"""The DAR(1) model: transition algebra, simulation and the missing-value variant.

A DAR(1) process keeps its previous state with probability ``alpha`` and
otherwise redraws from the marginal distribution ``pi``.  Its transition
matrix is ``alpha*I + (1-alpha)*Q`` where every row of Q equals ``pi``,
and the h-step matrix has the same form with ``alpha**h``.

A path is therefore a sequence of runs, one per redraw.  The simulation
finds the redraws among its uniforms and runs the inverse CDF only on
the uniforms they read (:func:`_runs`); :func:`draw_paths` repeats each
run's value over its length, and the Monte Carlo study counts the runs
without laying the paths out.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .core import MISSING, CatSeries, DarcatError, StateSpace

__all__ = [
    "DarModel",
    "MissingDarModel",
    "transition_matrix",
    "transition_matrix_power",
    "autocorrelation",
    "draw_paths",
    "simulate",
    "simulate_with_missing",
    "augmented_transition_matrix",
]

_PI_TOL = 1e-12


def _validate_pi(name: str, pi: np.ndarray, k: int) -> np.ndarray:
    """``pi`` as floats, or a DarcatError naming ``name`` unless it is a numeric probability vector over k states."""
    pi = np.asarray(pi)
    if pi.dtype.kind not in "iuf":  # strings are refused, not parsed
        raise DarcatError(f"{name} must be an array of real numbers, got dtype {pi.dtype}")
    pi = pi.astype(float, copy=False)
    if pi.ndim != 1 or pi.size < 2:
        raise DarcatError(f"{name} must be a probability vector of length >= 2")
    if pi.size != k:
        raise DarcatError(f"{name} has length {pi.size}, state space has k={k}")
    if not np.isfinite(pi).all():
        raise DarcatError(f"{name} must be finite, got {pi.tolist()}")
    if np.any(pi < 0):
        raise DarcatError(f"{name} components must be nonnegative")
    if abs(pi.sum() - 1.0) > _PI_TOL:
        raise DarcatError(f"{name} must sum to 1 within {_PI_TOL}, got {float(pi.sum())}")
    return pi


def _check_unit_interval(name: str, value: float) -> None:
    """Refuse a persistence or rate ``name`` that is not a real number in [0, 1), nan included."""
    if not isinstance(value, numbers.Real):
        raise DarcatError(f"{name} must be a real number, got {value!r}")
    if not 0.0 <= value < 1.0:
        raise DarcatError(f"{name} must lie in [0, 1), got {value}")


def _check_size(what: str, nbytes: int) -> None:
    """Refuse ``what`` when it sizes arrays of ``nbytes``, more than numpy allocates; the check allocates nothing."""
    if nbytes > np.iinfo(np.intp).max:
        raise DarcatError(f"{what} is too large: numpy cannot allocate its {nbytes} bytes")


@dataclass(frozen=True)
class DarModel:
    """Parameter pair (alpha, pi) on a given state space.

    ``alpha`` is restricted to [0, 1): at 1 the chain freezes at its start
    value and none of the inference below applies.  ``alpha`` is kept as a
    float, and ``pi`` as a read-only float copy of the vector given, so the
    caller's array stays theirs.
    """

    alpha: float
    pi: np.ndarray
    space: StateSpace

    def __post_init__(self) -> None:
        _check_unit_interval("alpha", self.alpha)
        object.__setattr__(self, "alpha", float(self.alpha))
        pi = _validate_pi("pi", self.pi, self.space.k).copy()
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)

    @classmethod
    def from_pi(cls, alpha: float, pi) -> "DarModel":
        """Build a model on a numeric state space matching len(pi)."""
        return cls(alpha=alpha, pi=pi, space=StateSpace.from_k(np.size(pi)))

    @property
    def k(self) -> int:
        return self.space.k


@dataclass(frozen=True)
class MissingDarModel:
    """DAR(1) model whose observations are independently hidden with probability beta."""

    base: DarModel
    beta: float

    def __post_init__(self) -> None:
        _check_unit_interval("beta", self.beta)


def transition_matrix(model: DarModel) -> np.ndarray:
    """One-step transition matrix alpha*I + (1-alpha)*Q."""
    return transition_matrix_power(model, 1)


def transition_matrix_power(model: DarModel, h: int) -> np.ndarray:
    """h-step transition matrix alpha**h * I + (1 - alpha**h) * Q, h >= 1."""
    if h < 1:
        raise DarcatError(f"h must be a positive integer, got {h}")
    ah = model.alpha**h
    k = model.k
    return ah * np.eye(k) + (1.0 - ah) * np.tile(model.pi, (k, 1))


def autocorrelation(model: DarModel, h: int) -> float:
    """Lag-h autocorrelation alpha**h (1 at lag 0)."""
    if h < 0:
        raise DarcatError(f"lag must be nonnegative, got {h}")
    return 1.0 if h == 0 else model.alpha**h


def _inverse_cdf(pi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Codes 1..k drawn by inverse CDF over the ordered state list.

    The code is 1 plus the number of the k-1 thresholds cumsum(pi)[:-1]
    that u reaches, so a u at or above the last threshold is state k even
    when the cumulative sum ends below 1.  Up to k = 32 the thresholds are
    counted by k-1 passes of ``u >= c``, from k = 33 by a binary search.
    On contiguous arrays of fresh uniforms, the run starts that
    :func:`_runs` passes, on one Xeon core, the passes take 0.2 to 0.3 of
    ``np.searchsorted``'s time at k = 2 and 3, 0.4 to 0.5 at k = 9 and 10,
    0.8 to 0.9 at k = 32 and 1.0 to 1.1 at k = 36 to 40, for 5,000 to 10^6
    uniforms; below about a thousand uniforms either takes microseconds.
    """
    thresholds = np.cumsum(pi)[:-1]
    if thresholds.size >= 32:
        idx = np.searchsorted(thresholds, u, side="right")
        idx += 1
        return idx
    idx = np.ones(u.shape, dtype=np.intp)
    for c in thresholds:
        idx += u >= c
    return idx


def _runs(model: DarModel, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs of the paths :func:`draw_paths` draws from ``u``: their flat starts and their codes.

    Step 0 of a row and each step t with V_t >= alpha redraw the value, so
    a row of the ``(m, n+1)`` paths is one run per redraw.  ``starts``
    holds the flat position p = r(n+1) + t of every redraw, rising, and
    ``codes`` the value drawn there from Z_t, the uniform at flat position
    2p - r of ``u``; the inverse CDF runs on those uniforms alone.
    """
    m, width = u.shape
    n = (width - 1) // 2
    redraw = np.empty((m, n + 1), dtype=bool)
    redraw[:, 0] = True
    np.greater_equal(u[:, 1::2], model.alpha, out=redraw[:, 1:])
    starts = np.flatnonzero(redraw)
    del redraw  # each temporary goes before the next is made: at m = 10^4, n = 500 they hold tens of MB
    at = starts * 2
    at -= starts // (n + 1)
    z = u.take(at)
    del at
    return starts, _inverse_cdf(model.pi, z)


def draw_paths(model: DarModel, u: np.ndarray) -> np.ndarray:
    """DAR(1) paths X_0..X_n, one per row of an ``(m, 2n+1)`` array of uniforms.

    Fixed draw layout per row: one uniform for X_0, then (V_t, Z_t) per
    step, Z_t consumed even when V_t = 1.  This keeps trajectories
    identical between the missing and non-missing variants for the same
    seed, and makes row r depend on row r of ``u`` only.  Each run of
    :func:`_runs` is repeated over its length.
    """
    m, width = u.shape
    n = (width - 1) // 2
    starts, codes = _runs(model, u)
    return np.repeat(codes, np.diff(starts, append=m * (n + 1))).reshape(m, n + 1)


def _latent_path(model: DarModel, n: int, seed: int) -> tuple[np.ndarray, np.random.Generator]:
    """X_0..X_n drawn from the first 2n+1 uniforms of ``default_rng(seed)``, and that generator to draw on from."""
    if n < 1:
        raise DarcatError(f"n must be >= 1, got {n}")
    _check_size(f"n={n}", 8 * (2 * int(n) + 1))
    rng = np.random.default_rng(seed)
    return draw_paths(model, rng.random((1, 2 * n + 1)))[0], rng


def simulate(model: DarModel, n: int, seed: int) -> CatSeries:
    """Simulate X_0..X_n; deterministic given the seed.

    X_0 is drawn from pi; each later step keeps the previous value with
    probability alpha and otherwise redraws from pi.
    """
    path, _ = _latent_path(model, n, seed)
    return CatSeries(model.space, path)


def simulate_with_missing(model: MissingDarModel, n: int, seed: int) -> CatSeries:
    """Simulate the latent path, then hide each entry independently with probability beta.

    The latent path consumes the same random stream as :func:`simulate`,
    so beta = 0 reproduces it bit for bit under the same seed; the mask is
    drawn after it from the same generator.
    """
    path, rng = _latent_path(model.base, n, seed)
    path[rng.random(n + 1) < model.beta] = MISSING
    return CatSeries(model.base.space, path)


def augmented_transition_matrix(model: MissingDarModel) -> np.ndarray:
    """Transition matrix of the observed chain on {missing} U E.

    State 0 of the returned (k+1)x(k+1) matrix is the missing state; state
    j >= 1 is category j.  Under independent thinning every row reaches the
    missing state with probability beta; from the missing state category j'
    is reached with probability (1-beta)*pi_j', and from category j with
    probability (1-beta)*P[j][j'].  Rows sum to 1.
    """
    k = model.base.k
    beta = model.beta
    p = transition_matrix(model.base)
    out = np.empty((k + 1, k + 1))
    out[:, 0] = beta
    out[0, 1:] = (1.0 - beta) * model.base.pi
    out[1:, 1:] = (1.0 - beta) * p
    return out
