"""Point estimators and variance formulas for the DAR(1) parameters.

``pi`` is estimated by state frequencies, ``alpha`` either by maximum
likelihood or by least squares on the empirical transition matrix (closed
form), and ``beta`` by the missing fraction.  The likelihood reads the
per-gap pair counts :attr:`~darcat.core.CatSeries.pairs`, raising the
persistence to the power of each observed gap, so it accepts complete and
gapped series alike; on a complete series it is the root of a monotone
score, found by bisection.  On complete series both alpha estimators run
row-batched over stacked jump tables (:func:`alpha_mle_rows`,
:func:`alpha_ls_rows`); the per-series entry points call them with a
batch of one.
The per-series entry points count nothing themselves: they read the
state counts and the pair table cached on the series (:mod:`darcat.core`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import CatSeries, DarcatError, jump_frequencies, transition_counts

__all__ = [
    "AllMissing",
    "InsufficientTransitions",
    "UndefinedTransitionRow",
    "PiEstimate",
    "AlphaEstimate",
    "estimate_pi",
    "vn",
    "pi_hat_variance",
    "pi_hat_covariance",
    "pi_variance_limit",
    "pi_covariance_limit",
    "alpha_mle_equation",
    "alpha_mle_rows",
    "estimate_alpha_mle",
    "alpha_ls_from_matrix",
    "alpha_ls_rows",
    "estimate_alpha_ls",
    "estimate_alpha_mle_gapped",
    "estimate_beta",
]

_ALPHA_HI = 1.0 - 1e-9

# Why a row of :func:`alpha_mle_rows` or :func:`alpha_ls_rows` is not
# admissible; the empty string marks an admissible estimate.
ADMISSIBLE = ""
BOUNDARY = "boundary"  # estimate outside [0, 1), or the MLE's score negative at 0
ALL_REPEATS = "all_repeats"  # nothing but repeats: the MLE is 1
FEW_STATES = "fewer_than_2_states"
UNDEFINED_ROW = "undefined_row"  # an observed state never seen as a jump origin


class AllMissing(DarcatError):
    """Series contains no observed value."""


class InsufficientTransitions(DarcatError):
    """No usable consecutive pair of observed values."""


class UndefinedTransitionRow(DarcatError):
    """An observed state never occurs as a jump origin, so its row of the
    empirical transition matrix is undefined."""


@dataclass(frozen=True)
class PiEstimate:
    """State frequencies with their exact-variance ingredients.

    ``var_asymptotic`` holds the per-component scale of n*Var, namely
    (1+alpha)/(1-alpha) * pi_j*(1-pi_j); it stays None until an alpha
    estimate is supplied via :meth:`with_alpha`.
    """

    pi_hat: np.ndarray
    n_obs: int
    counts: np.ndarray
    var_asymptotic: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.pi_hat.setflags(write=False)
        self.counts.setflags(write=False)

    def with_alpha(self, alpha: float) -> "PiEstimate":
        scale = (1.0 + alpha) / (1.0 - alpha) * self.pi_hat * (1.0 - self.pi_hat)
        return replace(self, var_asymptotic=scale)


@dataclass(frozen=True)
class AlphaEstimate:
    alpha_hat: float
    method: str  # "MLE" or "LeastSquares"
    converged: bool
    iterations: int = 0


def estimate_pi(series: CatSeries) -> PiEstimate:
    """Frequency of each state among the observed values.

    All observations are counted, index 0 included; ``n_obs`` reports the
    denominator actually used.
    """
    counts = series.state_counts
    n_obs = int(counts.sum())
    if n_obs == 0:
        raise AllMissing("series has no observed value")
    return PiEstimate(pi_hat=counts / n_obs, n_obs=n_obs, counts=counts)


def vn(alpha: float, n: int) -> float:
    """The weighted geometric sum sum_{h=1..n} (n-h) * alpha**h.

    Equals alpha * (alpha**n - 1 + n*d) / d**2 with d = 1 - alpha.  For
    n*d > 1 that closed form loses at most a factor e to cancellation;
    below, the bracket is summed as its binomial expansion
    sum_{j>=2} C(n, j) (-d)**j, whose terms fall at least geometrically.
    Both stay within a few ulps of the exact sum, also near alpha = 1.
    """
    if not 0.0 <= alpha < 1.0:
        raise DarcatError(f"alpha must lie in [0, 1), got {alpha}")
    if n < 1:
        raise DarcatError(f"n must be >= 1, got {n}")
    d = 1.0 - alpha
    if n * d > 1.0:
        return alpha * (alpha**n - 1.0 + n * d) / d**2
    # sum_{j=2..n} C(n, j) (-d)**(j-2)
    term = total = n * (n - 1) / 2.0
    for j in range(2, n):
        term *= -(n - j) * d / (j + 1)
        total += term
        if abs(term) <= 1e-17 * total:
            break
    return alpha * total


def pi_hat_variance(pi_j: float, alpha: float, n: int) -> float:
    """Exact variance of the state-frequency estimator over n observations."""
    return pi_j * (1.0 - pi_j) / n + 2.0 * (1.0 - pi_j) * pi_j * vn(alpha, n) / n**2


def pi_hat_covariance(pi_j: float, pi_jp: float, alpha: float, n: int) -> float:
    """Exact covariance between two state-frequency estimators (j != j')."""
    return -2.0 * pi_j * pi_jp * vn(alpha, n) / n**2


def pi_variance_limit(pi_j: float, alpha: float) -> float:
    """Limit of n*Var: (1+alpha)/(1-alpha) * pi_j*(1-pi_j)."""
    return (1.0 + alpha) / (1.0 - alpha) * pi_j * (1.0 - pi_j)


def pi_covariance_limit(pi_j: float, pi_jp: float, alpha: float) -> float:
    """Limit of n*Cov: -2*alpha/(1-alpha) * pi_j*pi_j'."""
    return -2.0 * alpha / (1.0 - alpha) * pi_j * pi_jp


def _scores(alpha: np.ndarray, repeats: np.ndarray, pi: np.ndarray, n_pairs: np.ndarray) -> np.ndarray:
    """:func:`alpha_mle_equation` per row: ``alpha`` and ``n_pairs`` (m,), ``repeats`` and ``pi`` (m, k)."""
    a = alpha[:, None]
    terms = np.divide(repeats, a + (1.0 - a) * pi, out=np.zeros(repeats.shape), where=repeats > 0)
    return terms.sum(axis=1) / n_pairs - 1.0


def alpha_mle_equation(alpha: float, diag_counts: np.ndarray, pi_hat: np.ndarray, n_trans: int) -> float:
    """Score whose root in [0, 1) is the likelihood maximiser.

    f(alpha) = (1/n) sum_j N_jj / (alpha + (1-alpha)*pi_j) - 1.  Strictly
    decreasing in alpha whenever some N_jj > 0 and some pi_j < 1.
    """
    repeats, pi = np.asarray(diag_counts)[None], np.asarray(pi_hat, dtype=float)[None]
    with np.errstate(divide="ignore"):
        return float(_scores(np.array([alpha]), repeats, pi, np.array([n_trans]))[0])


def alpha_mle_rows(jumps: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Likelihood alpha from one-step jump tables, one estimate per row.

    ``jumps`` is an ``(m, k, k)`` count table with at least one jump per
    row and ``pi`` the ``(m, k)`` state frequencies.  The root of
    :func:`alpha_mle_equation` on [0, 1) is bisected in every row at once,
    each row stopping on its own bracket width.  Returns ``(alpha_hat,
    iterations, why)``: a row of nothing but repeats gets 1 and
    ``ALL_REPEATS``, one whose root would be negative gets 0 and
    ``BOUNDARY``, an admissible one ``ADMISSIBLE``.
    """
    repeats = np.diagonal(jumps, axis1=1, axis2=2)
    n_pairs = jumps.sum(axis=(1, 2))
    m = n_pairs.size
    all_repeats = repeats.sum(axis=1) == n_pairs
    with np.errstate(divide="ignore"):
        negative = ~all_repeats & (_scores(np.zeros(m), repeats, pi, n_pairs) < 0.0)
        lo, hi = np.zeros(m), np.full(m, _ALPHA_HI)
        iterations = np.zeros(m, dtype=np.int64)
        active = ~(all_repeats | negative)
        while active.any():
            mid = 0.5 * (lo + hi)
            up = _scores(mid, repeats, pi, n_pairs) > 0.0
            lo = np.where(active & up, mid, lo)
            hi = np.where(active & ~up, mid, hi)
            iterations += active
            active &= hi - lo > 1e-10
    alpha_hat = np.select([all_repeats, negative], [1.0, 0.0], 0.5 * (lo + hi))
    why = np.select([all_repeats, negative], [ALL_REPEATS, BOUNDARY], ADMISSIBLE)
    return alpha_hat, iterations, why


def _alpha_mle(gaps: np.ndarray, table: np.ndarray, pi_hat: np.ndarray) -> AlphaEstimate:
    """Maximise the likelihood of the per-gap pair counts :attr:`~darcat.core.CatSeries.pairs`.

    A pair x -> y observed h steps apart contributes
    log(alpha**h * 1{x=y} + (1 - alpha**h) * pi_y).  With gap 1 only, the
    score is monotone and bisection finds its unique root; when it has no
    root in [0, 1) (no repeated value at all, or nothing but repeats) the
    nearest boundary is returned with ``converged=False``.  With longer
    gaps the likelihood need not be unimodal, so it is scanned on a grid
    (step 1e-4) and refined by golden-section search; an optimum within
    1e-7 of either end is reported with ``converged=False``.
    """
    n_pairs = int(table.sum())
    if n_pairs == 0:
        raise InsufficientTransitions("no consecutive pair of observed values")
    if gaps.tolist() == [1]:
        alpha_hat, iterations, why = alpha_mle_rows(table, pi_hat[None])
        return AlphaEstimate(
            alpha_hat=float(alpha_hat[0]),
            method="MLE",
            converged=bool(why[0] == ADMISSIBLE),
            iterations=int(iterations[0]),
        )
    repeats = np.diagonal(table, axis1=1, axis2=2)
    jumps = table.sum(axis=(1, 2)) - repeats.sum(axis=1)
    g, y = np.nonzero(repeats)
    n_rep, pi_rep = repeats[g, y], pi_hat[y]

    def loglik(alphas: np.ndarray) -> np.ndarray:
        # the log pi_y of every jump does not depend on alpha and is left out
        t = alphas[:, None] ** gaps
        rep = t[:, g]
        return np.log(rep + (1.0 - rep) * pi_rep) @ n_rep + np.log1p(-t) @ jumps

    grid = np.arange(0.0, 1.0, 1e-4)
    best = grid[int(np.argmax(loglik(grid)))]

    def f(alpha: float) -> float:
        return float(loglik(np.array([alpha]))[0])

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = max(0.0, best - 1e-4), min(_ALPHA_HI, best + 1e-4)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    iters = 0
    while b - a > 1e-8:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        iters += 1
    alpha_hat = 0.5 * (a + b)
    converged = bool(1e-7 < alpha_hat < _ALPHA_HI - 1e-7)  # not np.bool_, which json cannot write
    return AlphaEstimate(alpha_hat=float(alpha_hat), method="MLE", converged=converged, iterations=iters)


def estimate_alpha_mle(series: CatSeries, pi_hat: np.ndarray) -> AlphaEstimate:
    """Maximum-likelihood estimate of alpha given state frequencies.

    Complete and gapped series are both accepted: every consecutive pair
    of observed values counts, through the transition probability over its
    gap.  Boundary estimates carry ``converged=False``; such estimates are
    the ones a simulation study must discard.
    """
    return _alpha_mle(*series.pairs, np.asarray(pi_hat, dtype=float))


def _ls_closed_form(p_hat: np.ndarray, pi: np.ndarray, used: np.ndarray) -> np.ndarray:
    """Least-squares alpha per row over the states flagged in ``used``.

    ``p_hat`` is ``(m, k, k)``, ``pi`` and ``used`` are ``(m, k)``; states
    not used add exact zeros to every sum, so each row equals the formula
    on its used sub-space.  A numerator that is 0 up to rounding gives
    exactly 0, an admissible estimate.
    """
    m, k = pi.shape
    pi = np.where(used, pi, 0.0)
    q = np.where(used, 1.0 - pi, 0.0)
    resid = np.where(used[:, :, None] & used[:, None, :], p_hat - pi[:, None, :], 0.0)
    diag = np.diagonal(resid, axis1=1, axis2=2)
    cross = (pi[:, None, :] * resid).reshape(m, k * k).sum(axis=1)
    num = (q * diag).sum(axis=1) - (cross - (pi * diag).sum(axis=1))
    # every summed term lies in [-1, 1]: a numerator within 8k^2 ulps of 0
    # is the rounding of an exact 0 (say, all states equally frequent)
    num[np.abs(num) <= 8 * k * k * np.finfo(float).eps] = 0.0
    den = (used.sum(axis=1) - 1) * (pi**2).sum(axis=1) + (q**2).sum(axis=1)
    return num / den


def alpha_ls_from_matrix(p_hat: np.ndarray, pi: np.ndarray) -> float:
    """Closed-form least-squares alpha from a transition matrix estimate.

    Minimises the squared deviation between ``p_hat`` and the model matrix
    alpha*I + (1-alpha)*Q built from ``pi``.  Feeding the exact model
    matrix recovers alpha exactly.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    pi = np.asarray(pi, dtype=float)
    return float(_ls_closed_form(p_hat[None], pi[None], np.ones((1, pi.size), dtype=bool))[0])


def alpha_ls_rows(jumps: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares alpha from one-step jump tables, one estimate per row.

    ``jumps`` is an ``(m, k, k)`` count table and ``pi`` the ``(m, k)``
    state frequencies; states with pi = 0 are left out of the sums.  That
    mask stays here rather than in
    :meth:`~darcat.core.CatSeries.restrict_to_observed` because the rows
    of a batched Monte Carlo cell are plain arrays, not series.  Returns
    ``(alpha_hat, why)``: NaN with ``FEW_STATES`` for a row with fewer
    than 2 observed states, NaN with ``UNDEFINED_ROW`` for one where an
    observed state is never a jump origin, the raw value with
    ``BOUNDARY`` when it falls outside [0, 1), else ``ADMISSIBLE``.
    """
    probs, defined = jump_frequencies(jumps)
    visited = pi > 0
    few = visited.sum(axis=1) < 2
    undefined = ~few & (visited & ~defined).any(axis=1)
    ok = ~(few | undefined)
    alpha_hat = np.full(pi.shape[0], np.nan)
    alpha_hat[ok] = _ls_closed_form(probs[ok], pi[ok], visited[ok])
    outside = ~((0.0 <= alpha_hat) & (alpha_hat < 1.0))
    why = np.select([few, undefined, outside], [FEW_STATES, UNDEFINED_ROW, BOUNDARY], ADMISSIBLE)
    return alpha_hat, why


def estimate_alpha_ls(series: CatSeries, pi_hat: np.ndarray) -> AlphaEstimate:
    """Least-squares estimate of alpha from the empirical transition matrix.

    States never observed in the series are excluded from the sums (the
    estimate then lives on the observed sub-space).  An observed state with
    an undefined matrix row raises :class:`UndefinedTransitionRow`.  Values
    outside [0, 1) are reported raw with ``converged=False`` rather than
    clamped.
    """
    pi_hat = np.asarray(pi_hat, dtype=float)
    jumps = transition_counts(series).matrix
    alpha_hat, why = alpha_ls_rows(jumps[None], pi_hat[None])
    if why[0] == FEW_STATES:
        raise InsufficientTransitions("least squares needs at least 2 observed states")
    if why[0] == UNDEFINED_ROW:
        bad = np.flatnonzero((pi_hat > 0) & (jumps.sum(axis=1) == 0)) + 1
        raise UndefinedTransitionRow(f"states {bad.tolist()} observed but never as a jump origin")
    return AlphaEstimate(alpha_hat=float(alpha_hat[0]), method="LeastSquares", converged=bool(why[0] == ADMISSIBLE))


def estimate_alpha_mle_gapped(series: CatSeries) -> AlphaEstimate:
    """Gap-aware maximum likelihood with pi estimated from the series itself.

    Equals :func:`estimate_alpha_mle` given the state frequencies of the
    series; kept as its own entry point for series with missing runs.
    """
    return _alpha_mle(*series.pairs, estimate_pi(series).pi_hat)


def estimate_beta(series: CatSeries) -> float:
    """Missing fraction over all observations (the model's hiding probability).

    The observed fraction is simply 1 minus this value; reports should
    show both since field tables sometimes quote the observed share.
    """
    return series.n_missing / len(series)
