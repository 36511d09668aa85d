"""Seeded simulation study of the persistence and marginal estimators.

For every cell of a (pi, alpha, n) grid, m chains are simulated and the
three estimators computed per chain.  Replicates whose persistence
estimate is not admissible are counted out (m1 for the likelihood
estimator, m2 for the least-squares one) and excluded from that
estimator's mean, while the marginal frequencies are averaged over all
replicates.  ``CellResult.dropped`` counts why each replicate was
counted out.  Everything is deterministic given the master seed.

Replicate r of cell c draws its 2n+1 uniforms from its own generator,
seeded with entry c*m + r of the master seed's uint32 stream.  All later
steps run on the whole cell at once: its replicates are the rows of one
(m, n+1) array of paths (:func:`~darcat.dar.draw_paths`), counted by
:func:`~darcat.core.path_counts` and estimated by
:func:`~darcat.estimate.alpha_mle_rows` and
:func:`~darcat.estimate.alpha_ls_rows`.  :func:`~darcat.dar.simulate` and
the per-series estimators call the same kernels with a batch of one, so
each row's arithmetic is theirs and the tables equal a
replicate-by-replicate loop exactly.  :func:`format_cells` writes one
table per marginal configuration through :func:`darcat.render.table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import render
from .core import DarcatError, path_counts
from .dar import DarModel, _check_unit_interval, _validate_pi, draw_paths
from .estimate import ADMISSIBLE, alpha_ls_rows, alpha_mle_rows

__all__ = [
    "SimGrid",
    "CellResult",
    "run_grid",
    "study_grid",
    "results_by_pi",
    "format_cells",
]

DEFAULT_SEED = 2


@dataclass(frozen=True)
class SimGrid:
    """Simulation grid: marginals x persistences x lengths, m replicates each."""

    pis: tuple[tuple[float, ...], ...]
    alphas: tuple[float, ...]
    ns: tuple[int, ...]
    m: int
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DarcatError(f"m must be >= 1, got {self.m}")
        for a in self.alphas:
            _check_unit_interval("alpha", a)
        # n and pi are checked here, so a bad cell fails before any cell runs
        for n in self.ns:
            if not isinstance(n, (int, np.integer)):
                raise DarcatError(f"n must be an integer, got {n!r}")
            if n < 1:
                raise DarcatError(f"n must be >= 1, got {n}")
        for pi in self.pis:
            _validate_pi(pi, len(pi))


@dataclass(frozen=True)
class CellResult:
    """Per-cell averages and the counts of admissible replicates.

    ``dropped`` holds ``(estimator, reason, count)`` for every reason that
    removed replicates from m1 (estimator ``"alpha1"``) or m2
    (``"alpha2"``), sorted by reason; the reasons are the non-empty
    ``why`` codes of :mod:`darcat.estimate`, and the counts of one
    estimator sum to m - m1 or m - m2.
    """

    pi: tuple[float, ...]
    alpha: float
    n: int
    m: int
    mean_pi_hat: tuple[float, ...]
    mean_alpha1: float | None
    m1: int
    mean_alpha2: float | None
    m2: int
    dropped: tuple[tuple[str, str, int], ...] = ()


def _replicate_seeds(master: int, total: int) -> np.ndarray:
    # One integer seed per replicate, cell-major: the uint32 stream of the
    # master seed sequence.  Adding cells or replicates at the end never
    # changes the seeds of earlier ones.
    return np.random.SeedSequence(master).generate_state(total, dtype=np.uint32)


def _estimate_paths(paths: np.ndarray, k: int):
    """Per-row pi_hat, then (alpha_hat, why) of the likelihood and the least-squares estimator."""
    counts, jumps = path_counts(paths, k)
    pi_hat = counts / paths.shape[1]
    alpha1, _, why1 = alpha_mle_rows(jumps, pi_hat)
    return pi_hat, (alpha1, why1), alpha_ls_rows(jumps, pi_hat)


def _admissible_mean(alpha_hat: np.ndarray, why: np.ndarray) -> tuple[float | None, int]:
    kept = alpha_hat[why == ADMISSIBLE]
    return (float(np.mean(kept)) if kept.size else None), int(kept.size)


def _dropped(estimator: str, why: np.ndarray) -> tuple[tuple[str, str, int], ...]:
    reasons, counts = np.unique(why[why != ADMISSIBLE], return_counts=True)
    return tuple((estimator, str(r), int(c)) for r, c in zip(reasons, counts))


def run_grid(grid: SimGrid) -> tuple[CellResult, ...]:
    """Simulate every cell of the grid and summarise the estimators."""
    cells = list(product(grid.pis, grid.alphas, grid.ns))
    seeds = _replicate_seeds(grid.seed, len(cells) * grid.m).reshape(len(cells), grid.m)
    results = []
    for (pi, alpha, n), cell_seeds in zip(cells, seeds):
        model = DarModel.from_pi(alpha, np.asarray(pi, dtype=float))
        u = np.stack([np.random.default_rng(int(s)).random(2 * n + 1) for s in cell_seeds])
        pi_hat, (alpha1, why1), (alpha2, why2) = _estimate_paths(draw_paths(model, u), model.k)
        mean_alpha1, m1 = _admissible_mean(alpha1, why1)
        mean_alpha2, m2 = _admissible_mean(alpha2, why2)
        results.append(
            CellResult(
                pi=tuple(pi),
                alpha=alpha,
                n=n,
                m=grid.m,
                mean_pi_hat=tuple(pi_hat.mean(axis=0)),
                mean_alpha1=mean_alpha1,
                m1=m1,
                mean_alpha2=mean_alpha2,
                m2=m2,
                dropped=_dropped("alpha1", why1) + _dropped("alpha2", why2),
            )
        )
    return tuple(results)


def study_grid(m: int = 100, seed: int = DEFAULT_SEED) -> SimGrid:
    """The four-marginal study grid: two 2-state and two 3-state configurations."""
    return SimGrid(
        pis=(
            (1 / 2, 1 / 2),
            (1 / 3, 2 / 3),
            (1 / 3, 1 / 3, 1 / 3),
            (1 / 4, 1 / 2, 1 / 4),
        ),
        alphas=(0.1, 0.2, 0.5, 0.8, 0.9),
        ns=(50, 100, 500),
        m=m,
        seed=seed,
    )


def results_by_pi(results: tuple[CellResult, ...]) -> dict[tuple[float, ...], list[CellResult]]:
    """Group cell results per marginal configuration, preserving order."""
    grouped: dict[tuple[float, ...], list[CellResult]] = {}
    for cell in results:
        grouped.setdefault(cell.pi, []).append(cell)
    return grouped


def _fmt_opt(x: float | None) -> str:
    return "NA" if x is None else f"{x:.3f}"


def format_cells(cells: list[CellResult], fmt: str) -> str:
    """One study table as csv, md or txt text: a row per cell, NA where no replicate was admissible."""
    header = ("alpha", "n", "pi_hat", "alpha1", "m1", "alpha2", "m2")
    rows = [
        (c.alpha, c.n, render.pi_vector(c.mean_pi_hat), _fmt_opt(c.mean_alpha1), c.m1, _fmt_opt(c.mean_alpha2), c.m2)
        for c in cells
    ]
    return render.table(fmt, header, rows, (6, 5, 24, 7, 4, 7, 4))
