"""Seeded simulation study of the persistence and marginal estimators.

For every cell of a (pi, alpha, n) grid, m chains are simulated and the
three estimators computed per chain.  Replicates whose persistence
estimate is not admissible are counted out (m1 for the likelihood
estimator, m2 for the least-squares one) and excluded from that
estimator's mean, while the marginal frequencies are averaged over all
replicates.  ``CellResult.dropped`` counts why each replicate was
counted out.  Everything is deterministic given the master seed.  The
cells are data; :func:`darcat.render.study_table` writes them.

Replicate r of cell c draws its 2n+1 uniforms from its own generator,
seeded with entry c*m + r of the master seed's uint32 stream.  These
generators are seeded in bulk: one vectorised pass hashes every seed as
``np.random.SeedSequence`` does (:func:`_pcg64_seed_words`), and one
``PCG64`` is re-seeded per replicate (:func:`_uniform_rows`), so each
replicate's uniforms are bit for bit those of
``np.random.default_rng(seed)``.  Each cell is then drawn and counted on
its own, from the runs of its replicates' paths: a path is one run per
redraw, and :func:`~darcat.dar._runs` draws only the value of each run.
Each row's state counts and jump table are read off these runs
(:func:`~darcat.core._run_counts`, which :func:`~darcat.core.path_counts`
also runs), so the (m, n+1) paths are never laid out, and only the
counts outlive the cell.  The cells of one marginal share k, so once
they are counted their rows are stacked and estimated in one call each of
:func:`~darcat.estimate.alpha_mle_rows` and
:func:`~darcat.estimate.alpha_ls_rows`; every cell is then summarised
from its own slice.  Every kernel is row-wise, and
:func:`~darcat.dar.simulate` and the per-series estimators call the same
kernels with a batch of one, so each row's arithmetic is theirs and the
tables equal a replicate-by-replicate loop exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import DarcatError, _run_counts
from .dar import DarModel, _check_size, _check_unit_interval, _runs, _validate_pi
from .estimate import ADMISSIBLE, ALL_REPEATS, BOUNDARY, FEW_STATES, UNDEFINED_ROW, alpha_ls_rows, alpha_mle_rows

__all__ = [
    "SimGrid",
    "CellResult",
    "run_grid",
    "study_grid",
    "results_by_pi",
]

DEFAULT_SEED = 2


def _check_count(name: str, value: object, least: int) -> None:
    if not isinstance(value, (int, np.integer)):
        raise DarcatError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DarcatError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class SimGrid:
    """Simulation grid: marginals x persistences x lengths, m replicates each."""

    pis: tuple[tuple[float, ...], ...]
    alphas: tuple[float, ...]
    ns: tuple[int, ...]
    m: int
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        _check_count("m", self.m, 1)
        _check_count("seed", self.seed, 0)
        for a in self.alphas:
            _check_unit_interval("alpha", a)
        # n and pi are checked here, so a bad cell fails before any cell runs
        for n in self.ns:
            _check_count("n", n, 1)
        for pi in self.pis:
            _validate_pi("pi", pi, len(pi))
        # 32 bytes of seed words per replicate of every cell, and a cell's (m, 2n+1) uniforms
        cells = len(self.pis) * len(self.alphas) * len(self.ns)
        _check_size(f"m={self.m}", int(self.m) * max(32 * cells, 8 * (2 * int(max(self.ns, default=0)) + 1)))


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
    # master seed sequence, whose first words do not depend on its length.
    # Cells are ordered marginal-major, so only marginals appended to
    # ``pis`` append cells and keep the seeds of earlier ones; a larger m,
    # or another alpha or n, moves the seeds of every cell after the first.
    return np.random.SeedSequence(master).generate_state(total, dtype=np.uint32)


_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _pcg64_seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every uint32 seed s at once, as rows of a (len, 4) array.

    NumPy's stream policy (NEP 19) fixes this hash, so it is re-run here
    on uint32 arrays instead of building one ``SeedSequence`` per seed.
    A seed below 2**32 is one word of entropy, padded with zeros to the
    pool of 4; ``mix_entropy`` hashes each pool word with ``hashmix`` and
    then mixes every pair of words with ``mix``, and ``generate_state``
    hashes the pool cyclically into 8 words, read pairwise as
    little-endian uint64; both hashes run ``hashmix`` with their own
    running constant.  Arrays wrap on overflow without a warning; the
    constant is a Python int masked to 32 bits.
    """

    def hasher(hash_const: int, mult: int):
        def hashmix(value: np.ndarray) -> np.ndarray:
            nonlocal hash_const
            value = value ^ np.uint32(hash_const)
            hash_const = (hash_const * mult) & _MASK32
            value = value * np.uint32(hash_const)
            return value ^ (value >> np.uint32(16))

        return hashmix

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)  # MIX_MULT_L, MIX_MULT_R
        return result ^ (result >> np.uint32(16))

    hashmix = hasher(0x43B0D7E5, 0x931E8875)  # INIT_A, MULT_A
    seeds = np.asarray(seeds, dtype=np.uint32)
    pool = [hashmix(seeds)] + [hashmix(np.zeros_like(seeds)) for _ in range(3)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    output = hasher(0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B
    return np.stack([output(pool[i % 4]) for i in range(8)], axis=1).astype("<u4", copy=False).view("<u8")


def _uniform_rows(seed_words: np.ndarray, width: int) -> np.ndarray:
    """Row r: the first ``width`` of ``default_rng(s_r).random()``, from row r of :func:`_pcg64_seed_words`.

    One ``PCG64`` is re-seeded per row as ``pcg64_set_seed`` seeds it
    (``pcg_setseq_128_srandom_r``): words 0-1 are the high and low half
    of the initial state, words 2-3 of the stream, and two LCG steps mix
    them.  Its doubles then fill the row in place.
    """
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    out = np.empty((len(seed_words), width))
    for row, (state_hi, state_lo, seq_hi, seq_lo) in zip(out, seed_words.tolist()):
        inc = (((seq_hi << 64) | seq_lo) << 1 | 1) & _MASK128
        state = ((((state_hi << 64) | state_lo) + inc) * _PCG64_MULT + inc) & _MASK128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        gen.random(out=row)
    return out


def _estimate_rows(pi_hat: np.ndarray, jumps: np.ndarray):
    """(alpha_hat, why) of the likelihood and the least-squares estimator per row of (m, k) pi_hat and (m, k, k) jumps."""
    alpha1, _, why1 = alpha_mle_rows(jumps, pi_hat)
    return (alpha1, why1), alpha_ls_rows(jumps, pi_hat)


def _admissible_mean(alpha_hat: np.ndarray, why: np.ndarray) -> tuple[float | None, int]:
    kept = alpha_hat[why == ADMISSIBLE]
    return (float(np.mean(kept)) if kept.size else None), int(kept.size)


_REASONS = tuple(sorted((ALL_REPEATS, BOUNDARY, FEW_STATES, UNDEFINED_ROW)))


def _dropped(estimator: str, why: np.ndarray) -> tuple[tuple[str, str, int], ...]:
    counts = [(reason, int(np.count_nonzero(why == reason))) for reason in _REASONS]
    return tuple((estimator, reason, count) for reason, count in counts if count)


def run_grid(grid: SimGrid) -> tuple[CellResult, ...]:
    """Simulate every cell of the grid and summarise the estimators.

    Cells are drawn and counted one at a time, and estimated one marginal
    at a time: a marginal's cells are contiguous and share k.
    """
    cells = list(product(grid.alphas, grid.ns))
    if not cells:
        return ()
    seed_words = _pcg64_seed_words(_replicate_seeds(grid.seed, len(grid.pis) * len(cells) * grid.m))
    seed_words = seed_words.reshape(len(grid.pis), len(cells), grid.m, 4)
    results = []
    for pi, pi_words in zip(grid.pis, seed_words):
        pi_hats, jump_tables = [], []
        for (alpha, n), cell_words in zip(cells, pi_words):
            model = DarModel.from_pi(alpha, np.asarray(pi, dtype=float))
            starts, codes = _runs(model, _uniform_rows(cell_words, 2 * n + 1))
            counts, jumps = _run_counts((grid.m, n + 1), starts, codes, model.k)
            pi_hats.append(counts / (n + 1))
            jump_tables.append(jumps)
        (alpha1, why1), (alpha2, why2) = _estimate_rows(np.concatenate(pi_hats), np.concatenate(jump_tables))
        for c, ((alpha, n), pi_hat) in enumerate(zip(cells, pi_hats)):
            rows = slice(c * grid.m, (c + 1) * grid.m)
            mean_alpha1, m1 = _admissible_mean(alpha1[rows], why1[rows])
            mean_alpha2, m2 = _admissible_mean(alpha2[rows], why2[rows])
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
                    dropped=_dropped("alpha1", why1[rows]) + _dropped("alpha2", why2[rows]),
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
