"""Point estimators and variance formulas for the DAR(1) parameters.

``pi`` is estimated by state frequencies, ``alpha`` either by maximum
likelihood or by least squares on the empirical transition matrix (closed
form), and ``beta`` by the missing fraction.  The likelihood reads the
per-gap pair counts :attr:`~darcat.core.CatSeries.pairs`, raising the
persistence to the power of each observed gap, so it accepts complete and
gapped series alike.  On a complete series it is the root of a score
that is convex and decreasing in alpha, found by Newton's method from a
lower bound of the root, which it climbs to without overshooting.  On a
gapped series it may have several local maxima, so its first maximum on
a grid of 10^4 points is refined.  That grid point is the dense scan's
argmax, found while evaluating about a sixth of the grid: each repeat
term of the likelihood is non-decreasing in alpha and each jump term
non-increasing, so on a block [a, b] of the grid it is at most rep(b) +
jump(a), and a block whose bound falls below the best block end value,
less a slack of 1e-9 of it for rounding, is skipped
(:func:`_grid_argmax`).  Two scans of 201 points, at step 1e-6 and then
1e-8 around the best point so far, refine it.  On complete series both
alpha estimators run row-batched over stacked jump tables
(:func:`alpha_mle_rows`, :func:`alpha_ls_rows`); the per-series entry
points call them with a batch of one.
The per-series entry points count nothing themselves: they read the
state counts and the pair table cached on the series (:mod:`darcat.core`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CatSeries, DarcatError, jump_frequencies, transition_counts
from .dar import _check_unit_interval, _validate_pi

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
    """State frequencies ``pi_hat = counts / n_obs``; :func:`pi_variance_limit` gives the scale of n*Var."""

    pi_hat: np.ndarray
    n_obs: int
    counts: np.ndarray  # the series' read-only state_counts

    def __post_init__(self) -> None:
        self.pi_hat.setflags(write=False)


@dataclass(frozen=True)
class AlphaEstimate:
    alpha_hat: float
    method: str  # "MLE" or "LeastSquares"
    converged: bool
    iterations: int = 0  # MLE: Newton steps at gap 1, 2 refining scans with gaps, 0 at a boundary by rule


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
    _check_unit_interval("alpha", alpha)
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


def _pi_hat_scale(alpha: float, n: int) -> float:
    """1/n + 2 v_n / n^2: Var(pi_hat_j) over pi_j(1-pi_j), and -Cov(pi_hat_j, pi_hat_j') over pi_j pi_j'.

    At lag h the indicators of states j and j' have covariance
    alpha**h (pi_j [j = j'] - pi_j pi_j'), so both moments carry the one
    factor sum over all pairs of time points alpha**|s-t| / n^2.
    """
    return 1.0 / n + 2.0 * vn(alpha, n) / n**2


def pi_hat_variance(pi_j: float, alpha: float, n: int) -> float:
    """Exact variance of the state-frequency estimator over n observations."""
    return pi_j * (1.0 - pi_j) * _pi_hat_scale(alpha, n)


def pi_hat_covariance(pi_j: float, pi_jp: float, alpha: float, n: int) -> float:
    """Exact covariance between two state-frequency estimators (j != j')."""
    return -pi_j * pi_jp * _pi_hat_scale(alpha, n)


def pi_variance_limit(pi_j: float, alpha: float) -> float:
    """Limit of n*Var: (1+alpha)/(1-alpha) * pi_j*(1-pi_j)."""
    _check_unit_interval("alpha", alpha)
    return (1.0 + alpha) / (1.0 - alpha) * pi_j * (1.0 - pi_j)


def pi_covariance_limit(pi_j: float, pi_jp: float, alpha: float) -> float:
    """Limit of n*Cov: -(1+alpha)/(1-alpha) * pi_j*pi_j'."""
    _check_unit_interval("alpha", alpha)
    return -(1.0 + alpha) / (1.0 - alpha) * pi_j * pi_jp


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
    :func:`alpha_mle_equation` on [0, 1) is found by Newton's method in
    every row at once.  Each term r_j / (pi_j + alpha*(1 - pi_j)), with
    r_j = N_jj / n, is convex and decreasing in alpha, so the score is
    too, and Newton started left of the root climbs to it without
    overshooting.  The start is the lower bound L = max(0, max_j (r_j -
    pi_j) / (1 - pi_j)) over the repeated states with pi_j < 1: at the
    root no term exceeds 1, so none can at any alpha below L, and from L
    on every denominator is at least r_j > 0, past a pole at 0 of a
    repeated state with pi_j = 0.  A row stops once its step is at most
    1e-13 or it reaches 1 - 1e-9.  Returns ``(alpha_hat, iterations,
    why)``: a row of nothing but repeats gets 1 and ``ALL_REPEATS``, one
    whose root would be negative gets 0 and ``BOUNDARY``, an admissible
    one ``ADMISSIBLE``.
    """
    repeats = np.diagonal(jumps, axis1=1, axis2=2)
    n_pairs = jumps.sum(axis=(1, 2))
    m = n_pairs.size
    all_repeats = repeats.sum(axis=1) == n_pairs
    with np.errstate(divide="ignore"):
        negative = ~all_repeats & (_scores(np.zeros(m), repeats, pi, n_pairs) < 0.0)
    r = repeats / n_pairs[:, None]
    p = np.where(r > 0, pi, 1.0)  # a state that never repeats: denominator 1, term 0
    q = 1.0 - p
    # the start: each row's lower bound L
    alpha_hat = np.divide(r - p, q, out=np.zeros(r.shape), where=q > 0).max(axis=1, initial=0.0)
    iterations = np.zeros(m, dtype=np.int64)
    rows = np.flatnonzero(~(all_repeats | negative))
    alpha, r, p, q = alpha_hat[rows], r[rows], p[rows], q[rows]
    while rows.size:
        d = p + alpha[:, None] * q
        t = r / d
        step = (t.sum(axis=1) - 1.0) / (t * q / d).sum(axis=1)  # score over minus its slope
        alpha = np.minimum(alpha + step, _ALPHA_HI)
        alpha_hat[rows] = alpha
        iterations[rows] += 1
        go = (step > 1e-13) & (alpha < _ALPHA_HI)
        rows, alpha, r, p, q = rows[go], alpha[go], r[go], p[go], q[go]
    alpha_hat = np.select([all_repeats, negative], [1.0, 0.0], alpha_hat)
    why = np.select([all_repeats, negative], [ALL_REPEATS, BOUNDARY], ADMISSIBLE)
    return alpha_hat, iterations, why


def _gapped_loglik(gaps: np.ndarray, table: np.ndarray, pi_hat: np.ndarray):
    """The gap-aware log-likelihood of a pair table as ``alphas -> (rep, jump)``.

    ``rep`` sums the repeat terms log(pi_y + (1 - pi_y) * alpha**h), each
    non-decreasing in alpha; ``jump`` sums the jump terms
    log1p(-alpha**h), each non-increasing.  The log-likelihood is
    ``rep + jump``, less the log pi_y of every jump, which does not depend
    on alpha and is left out.
    """
    repeats = np.diagonal(table, axis1=1, axis2=2)
    jumps = table.sum(axis=(1, 2)) - repeats.sum(axis=1)
    g, y = np.nonzero(repeats)
    n_rep, pi_rep = repeats[g, y], pi_hat[y]

    def parts(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = alphas[:, None] ** gaps
        rep = t[:, g]
        return np.log(rep + (1.0 - rep) * pi_rep) @ n_rep, np.log1p(-t) @ jumps

    return parts


_GRID = np.arange(0.0, 1.0, 1e-4)  # 10^4 points, the last 0.9999
_GRID.setflags(write=False)
_BLOCKS = _GRID.reshape(-1, 100)  # one row per block of 100 consecutive points
_BLOCK_ENDS = _BLOCKS[:, [0, -1]].ravel()  # first, last point of block 0, of block 1, ...
_BLOCK_ENDS.setflags(write=False)
# relative to |best|: every term is <= 0, so rounding moves a bound or a
# value by a few ulps per term, far below 1e-9 of it
_SLACK = 1e-9


def _grid_argmax(parts) -> int:
    """Index into ``_GRID`` of the first maximum of the log-likelihood ``parts``.

    Equals ``np.argmax(rep + jump)`` over the whole grid, while evaluating
    only the blocks of 100 consecutive points that can hold the maximum.
    On a block [a, b] the repeat part is at most rep(b) and the jump part
    at most jump(a), so the log-likelihood is at most rep(b) + jump(a).
    Both parts are evaluated at every block's two end points, and ``best``
    is the largest log-likelihood among those points.  A block whose
    bound falls below ``best`` by more than the slack, 1e-9 of |best|,
    cannot hold a grid point that reaches ``best``, so it is skipped.
    Every other block is evaluated point by point, and the first maximum
    over the kept points in grid order is the dense scan's.
    """
    rep, jump = parts(_BLOCK_ENDS)
    best = np.max(rep + jump)
    bound = rep[1::2] + jump[0::2]
    kept = np.flatnonzero(bound >= best - _SLACK * abs(best))
    rep, jump = parts(_BLOCKS[kept].ravel())
    i = int(np.argmax(rep + jump))
    width = _BLOCKS.shape[1]
    return int(kept[i // width]) * width + i % width


def _alpha_mle(gaps: np.ndarray, table: np.ndarray, pi_hat: np.ndarray) -> AlphaEstimate:
    """Maximise the likelihood of the per-gap pair counts :attr:`~darcat.core.CatSeries.pairs`.

    A pair x -> y observed h steps apart contributes
    log(alpha**h * 1{x=y} + (1 - alpha**h) * pi_y).  With no repeated value
    at all the likelihood falls from alpha = 0, so 0 is returned; with
    nothing but repeats it is flat, and 1 is returned; both with
    ``converged=False``.  With gap 1 only, the score is convex and
    decreasing, and Newton's method from a lower bound finds its unique
    root (:func:`alpha_mle_rows`).  With longer gaps the likelihood need
    not be unimodal, so the first maximum on a grid of step 1e-4 is found
    (:func:`_grid_argmax`, which skips the blocks of the grid that cannot
    hold it) and refined by two 201-point scans, at step 1e-6 and then
    1e-8 around the best point so far, each clipped to [0, 1 - 1e-9] and
    taking its first maximum; ``iterations`` counts those 2 scans, or the
    Newton steps on gap 1.  An optimum within 1e-7 of either end is
    reported with ``converged=False``.
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
    n_repeats = int(np.trace(table, axis1=1, axis2=2).sum())
    if n_repeats in (0, n_pairs):
        # nothing but repeats means one observed category; 1 is what the
        # gap-1 path gives it (ALL_REPEATS)
        return AlphaEstimate(alpha_hat=0.0 if n_repeats == 0 else 1.0, method="MLE", converged=False)
    parts = _gapped_loglik(gaps, table, pi_hat)
    alpha_hat = _GRID[_grid_argmax(parts)]
    for step in (1e-6, 1e-8):  # 201 points centred on the best so far: +-1e-4, then +-1e-6
        alphas = np.clip(alpha_hat + step * np.arange(-100, 101), 0.0, _ALPHA_HI)
        rep, jump = parts(alphas)
        alpha_hat = alphas[np.argmax(rep + jump)]
    converged = bool(1e-7 < alpha_hat < _ALPHA_HI - 1e-7)  # not np.bool_, which json cannot write
    return AlphaEstimate(alpha_hat=float(alpha_hat), method="MLE", converged=converged, iterations=2)


def estimate_alpha_mle(series: CatSeries, pi_hat: np.ndarray) -> AlphaEstimate:
    """Maximum-likelihood estimate of alpha given state frequencies.

    Complete and gapped series are both accepted: every consecutive pair
    of observed values counts, through the transition probability over its
    gap.  Boundary estimates carry ``converged=False``; such estimates are
    the ones a simulation study must discard.  A ``pi_hat`` that is not a
    probability vector over the series' k states raises
    :class:`~darcat.core.DarcatError`.
    """
    return _alpha_mle(*series.pairs, _validate_pi("pi_hat", pi_hat, series.space.k))


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
    clamped.  A ``pi_hat`` that is not a probability vector over the
    series' k states raises :class:`~darcat.core.DarcatError`.
    """
    pi_hat = _validate_pi("pi_hat", pi_hat, series.space.k)
    jumps = transition_counts(series)
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
