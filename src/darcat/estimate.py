"""Point estimators and variance formulas for the DAR(1) parameters.

``pi`` is estimated by state frequencies, ``alpha`` either by maximum
likelihood or by least squares on the empirical transition matrix (closed
form), and ``beta`` by the missing fraction.  The likelihood reads the
per-gap pair counts of :func:`~darcat.core.pair_counts`, raising the
persistence to the power of each observed gap, so it accepts complete and
gapped series alike; on a complete series it is the root of a monotone
score, found by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import CatSeries, DarcatError, empirical_transition_matrix, pair_counts

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
    "estimate_alpha_mle",
    "alpha_ls_from_matrix",
    "estimate_alpha_ls",
    "estimate_alpha_mle_gapped",
    "estimate_beta",
]

_ALPHA_HI = 1.0 - 1e-9


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
    values = series.observed_values()
    if values.size == 0:
        raise AllMissing("series has no observed value")
    counts = np.bincount(values - 1, minlength=series.space.k)
    return PiEstimate(pi_hat=counts / values.size, n_obs=int(values.size), counts=counts)


def vn(alpha: float, n: int) -> float:
    """The weighted geometric sum sum_{h=1..n} (n-h) * alpha**h.

    Uses the closed form (n - alpha**n)/(1-alpha) - alpha(1-alpha**(n-1))/(1-alpha)**2 - n,
    falling back to the direct sum near alpha = 1 where the closed form
    cancels catastrophically.
    """
    if not 0.0 <= alpha < 1.0:
        raise DarcatError(f"alpha must lie in [0, 1), got {alpha}")
    if n < 1:
        raise DarcatError(f"n must be >= 1, got {n}")
    if 1.0 - alpha < 1e-6:
        h = np.arange(1, n + 1)
        return float(np.sum((n - h) * alpha**h))
    a_n = alpha**n
    return (n - a_n) / (1.0 - alpha) - alpha * (1.0 - alpha ** (n - 1)) / (1.0 - alpha) ** 2 - n


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


def _score(alpha: float, repeats: np.ndarray, pi: np.ndarray, n_pairs: int) -> float:
    """:func:`alpha_mle_equation` over cells already restricted to repeats > 0."""
    return float((repeats / (alpha + (1.0 - alpha) * pi)).sum()) / n_pairs - 1.0


def alpha_mle_equation(alpha: float, diag_counts: np.ndarray, pi_hat: np.ndarray, n_trans: int) -> float:
    """Score whose root in [0, 1) is the likelihood maximiser.

    f(alpha) = (1/n) sum_j N_jj / (alpha + (1-alpha)*pi_j) - 1.  Strictly
    decreasing in alpha whenever some N_jj > 0 and some pi_j < 1.
    """
    mask = diag_counts > 0
    with np.errstate(divide="ignore"):
        return _score(alpha, diag_counts[mask], pi_hat[mask], n_trans)


def _bisect_score(repeats: np.ndarray, pi_hat: np.ndarray, n_pairs: int) -> AlphaEstimate:
    """Root of :func:`alpha_mle_equation` on [0, 1) from one-step repeat counts."""
    if repeats.sum() == n_pairs:
        # nothing but repeats: likelihood increases all the way to alpha = 1
        return AlphaEstimate(alpha_hat=1.0, method="MLE", converged=False)
    mask = repeats > 0
    args = (repeats[mask], pi_hat[mask], n_pairs)
    with np.errstate(divide="ignore"):
        if _score(0.0, *args) < 0.0:
            # root would be negative
            return AlphaEstimate(alpha_hat=0.0, method="MLE", converged=False)
        lo, hi = 0.0, _ALPHA_HI
        iters = 0
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if _score(mid, *args) > 0.0:
                lo = mid
            else:
                hi = mid
            iters += 1
    return AlphaEstimate(alpha_hat=0.5 * (lo + hi), method="MLE", converged=True, iterations=iters)


def _alpha_mle(gaps: np.ndarray, table: np.ndarray, pi_hat: np.ndarray) -> AlphaEstimate:
    """Maximise the likelihood of the per-gap pair counts of :func:`pair_counts`.

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
    repeats = np.diagonal(table, axis1=1, axis2=2)
    if gaps.tolist() == [1]:
        return _bisect_score(repeats[0], pi_hat, n_pairs)
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
    converged = 1e-7 < alpha_hat < _ALPHA_HI - 1e-7
    return AlphaEstimate(alpha_hat=float(alpha_hat), method="MLE", converged=converged, iterations=iters)


def estimate_alpha_mle(series: CatSeries, pi_hat: np.ndarray) -> AlphaEstimate:
    """Maximum-likelihood estimate of alpha given state frequencies.

    Complete and gapped series are both accepted: every consecutive pair
    of observed values counts, through the transition probability over its
    gap.  Boundary estimates carry ``converged=False``; such estimates are
    the ones a simulation study must discard.
    """
    return _alpha_mle(*pair_counts(series), np.asarray(pi_hat, dtype=float))


def alpha_ls_from_matrix(p_hat: np.ndarray, pi: np.ndarray) -> float:
    """Closed-form least-squares alpha from a transition matrix estimate.

    Minimises the squared deviation between ``p_hat`` and the model matrix
    alpha*I + (1-alpha)*Q built from ``pi``.  Feeding the exact model
    matrix recovers alpha exactly.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    pi = np.asarray(pi, dtype=float)
    k = pi.size
    resid = p_hat - np.tile(pi, (k, 1))
    diag = np.diag(resid)
    num = float(np.sum((1.0 - pi) * diag)) - float(np.sum(pi * resid) - np.sum(pi * diag))
    den = (k - 1) * float(np.sum(pi**2)) + float(np.sum((1.0 - pi) ** 2))
    return num / den


def estimate_alpha_ls(series: CatSeries, pi_hat: np.ndarray) -> AlphaEstimate:
    """Least-squares estimate of alpha from the empirical transition matrix.

    States never observed in the series are excluded from the sums (the
    estimate then lives on the observed sub-space).  An observed state with
    an undefined matrix row raises :class:`UndefinedTransitionRow`.  Values
    outside [0, 1) are reported raw with ``converged=False`` rather than
    clamped.
    """
    pi_hat = np.asarray(pi_hat, dtype=float)
    etm = empirical_transition_matrix(series)
    visited = pi_hat > 0
    if visited.sum() < 2:
        raise InsufficientTransitions("least squares needs at least 2 observed states")
    if np.any(visited & ~etm.defined):
        bad = np.flatnonzero(visited & ~etm.defined) + 1
        raise UndefinedTransitionRow(f"states {bad.tolist()} observed but never as a jump origin")
    idx = np.flatnonzero(visited)
    value = alpha_ls_from_matrix(etm.probs[np.ix_(idx, idx)], pi_hat[idx])
    return AlphaEstimate(alpha_hat=value, method="LeastSquares", converged=0.0 <= value < 1.0)


def estimate_alpha_mle_gapped(series: CatSeries) -> AlphaEstimate:
    """Gap-aware maximum likelihood with pi estimated from the series itself.

    Equals :func:`estimate_alpha_mle` given the state frequencies of the
    series; kept as its own entry point for series with missing runs.
    """
    return _alpha_mle(*pair_counts(series), estimate_pi(series).pi_hat)


def estimate_beta(series: CatSeries) -> float:
    """Missing fraction over all observations (the model's hiding probability).

    The observed fraction is simply 1 minus this value; reports should
    show both since field tables sometimes quote the observed share.
    """
    return series.n_missing / len(series)
