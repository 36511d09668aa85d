"""The DAR(1) model: transition algebra, simulation and the missing-value variant.

A DAR(1) process keeps its previous state with probability ``alpha`` and
otherwise redraws from the marginal distribution ``pi``.  Its transition
matrix is ``alpha*I + (1-alpha)*Q`` where every row of Q equals ``pi``,
and the h-step matrix has the same form with ``alpha**h``.
"""

from __future__ import annotations

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


def _validate_pi(pi: np.ndarray) -> np.ndarray:
    pi = np.asarray(pi, dtype=float)
    if pi.ndim != 1 or pi.size < 2:
        raise DarcatError("pi must be a probability vector of length >= 2")
    if not np.isfinite(pi).all():
        raise DarcatError(f"pi components must be finite, got {pi.tolist()}")
    if np.any(pi < 0):
        raise DarcatError("pi components must be nonnegative")
    if abs(pi.sum() - 1.0) > _PI_TOL:
        raise DarcatError(f"pi must sum to 1 within {_PI_TOL}, got {pi.sum()!r}")
    return pi


@dataclass(frozen=True)
class DarModel:
    """Parameter pair (alpha, pi) on a given state space.

    ``alpha`` is restricted to [0, 1): at 1 the chain freezes at its start
    value and none of the inference below applies.
    """

    alpha: float
    pi: np.ndarray
    space: StateSpace

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise DarcatError(f"alpha must lie in [0, 1), got {self.alpha}")
        pi = _validate_pi(self.pi)
        if pi.size != self.space.k:
            raise DarcatError(f"pi has length {pi.size}, state space has k={self.space.k}")
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)

    @classmethod
    def from_pi(cls, alpha: float, pi, ordinal: bool = False) -> "DarModel":
        """Build a model on a numeric state space matching len(pi)."""
        pi = np.asarray(pi, dtype=float)
        return cls(alpha=float(alpha), pi=pi, space=StateSpace.from_k(pi.size, ordinal=ordinal))

    @property
    def k(self) -> int:
        return self.space.k


@dataclass(frozen=True)
class MissingDarModel:
    """DAR(1) model whose observations are independently hidden with probability beta."""

    base: DarModel
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta < 1.0:
            raise DarcatError(f"beta must lie in [0, 1), got {self.beta}")


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
    """Codes 1..k drawn by inverse CDF over the ordered state list."""
    idx = np.searchsorted(np.cumsum(pi), u, side="right")
    np.minimum(idx, pi.size - 1, out=idx)
    idx += 1
    return idx


def draw_paths(model: DarModel, u: np.ndarray) -> np.ndarray:
    """DAR(1) paths X_0..X_n, one per row of an ``(m, 2n+1)`` array of uniforms.

    Fixed draw layout per row: one uniform for X_0, then (V_t, Z_t) per
    step, Z_t consumed even when V_t = 1.  This keeps trajectories
    identical between the missing and non-missing variants for the same
    seed, and makes row r depend on row r of ``u`` only.
    """
    m, width = u.shape
    n = (width - 1) // 2
    # column 0 is X_0, column t >= 1 the innovation Z_t
    codes = _inverse_cdf(model.pi, u[:, 0::2])
    # x_t is the code at the last refresh step s <= t (step 0 being X_0)
    refresh = np.zeros((m, n + 1), dtype=np.intp)
    np.multiply(np.arange(1, n + 1), u[:, 1::2] >= model.alpha, out=refresh[:, 1:])
    np.maximum.accumulate(refresh, axis=1, out=refresh)
    return np.take_along_axis(codes, refresh, axis=1)


def simulate(model: DarModel, n: int, seed: int) -> CatSeries:
    """Simulate X_0..X_n; deterministic given the seed.

    X_0 is drawn from pi; each later step keeps the previous value with
    probability alpha and otherwise redraws from pi.
    """
    if n < 1:
        raise DarcatError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    path = draw_paths(model, rng.random((1, 2 * n + 1)))[0]
    return CatSeries(model.space, path)


def simulate_with_missing(model: MissingDarModel, n: int, seed: int) -> CatSeries:
    """Simulate the latent path, then hide each entry independently with probability beta.

    The latent path consumes the same random stream as :func:`simulate`,
    so beta = 0 reproduces it bit for bit under the same seed.
    """
    if n < 1:
        raise DarcatError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    path = draw_paths(model.base, rng.random((1, 2 * n + 1)))[0]
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
