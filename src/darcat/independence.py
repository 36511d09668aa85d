"""Tests of serial independence for categorical series (null: no persistence).

Three tests are provided: a chi-square contingency test on the one-step
jump table, a normal test on the total run count, and an acceptance-band
test on the longest run, the only one of the three with an analytic
power.  All of them refuse missing values; apply a missing-value policy
first (drop or longest complete segment).  They read the jump table, the
runs and the state frequencies cached on the series (see
:mod:`darcat.core`), so running all three counts each of them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .core import CatSeries, DarcatError, MissingValuePresent, transition_counts
from .estimate import estimate_pi

__all__ = [
    "UnvisitedState",
    "DegenerateDistribution",
    "RunsSummary",
    "TestReport",
    "runs_summary",
    "chi_square_test",
    "runs_count_test",
    "longest_run_test",
    "longest_run_power",
]

_TIE_TOL = 1e-12


class UnvisitedState(DarcatError):
    """Some state never occurs, so the jump table has empty margins."""


class DegenerateDistribution(DarcatError):
    """A state probability of 0 or 1 degenerates the null distribution."""


@dataclass(frozen=True)
class RunsSummary:
    """Maximal-run counts of a complete series.

    ``by_state_and_length[(j, i)]`` counts maximal runs of state j having
    length i; marginals and the longest run length are precomputed.  The
    length-weighted count per state equals that state's number of
    occurrences in the scanned window.
    """

    by_state_and_length: dict[tuple[int, int], int]
    by_state: dict[int, int]
    total: int
    longest: int
    n_scanned: int


def runs_summary(series: CatSeries) -> RunsSummary:
    """Count maximal runs over the whole observation sequence."""
    if series.has_missing:
        raise MissingValuePresent("runs_summary requires a complete series")
    state, _, length = series.runs
    k1 = series.space.k + 1
    cells, n_cells = np.unique(length * k1 + state, return_counts=True)
    states, n_states = np.unique(state, return_counts=True)
    return RunsSummary(
        by_state_and_length={(c % k1, c // k1): m for c, m in zip(cells.tolist(), n_cells.tolist())},
        by_state=dict(zip(states.tolist(), n_states.tolist())),
        total=int(state.size),
        longest=int(length.max()),
        n_scanned=len(series),
    )


@dataclass(frozen=True)
class TestReport:
    """Outcome of one independence test at a given level."""

    name: str
    statistic: float
    reject: bool
    level: float
    p_value: float | None = None
    power: float | None = None
    notes: tuple[str, ...] = ()
    extras: dict[str, float] = field(default_factory=dict)


def chi_square_test(series: CatSeries, level: float = 0.05) -> TestReport:
    """Chi-square contingency test on the one-step jump table.

    The statistic sums (observed - expected)^2 / expected over all cells,
    with expected counts from the product of the margins divided by the
    total pair count; its null distribution is chi-square with (k-1)^2
    degrees of freedom.  Cells whose expected share falls below the usual
    5% practical floor are flagged in the notes.
    """
    counts = transition_counts(series)
    k = series.space.k
    if np.any(counts.row_sums == 0) or np.any(counts.col_sums == 0):
        bad = sorted(
            set((np.flatnonzero(counts.row_sums == 0) + 1).tolist())
            | set((np.flatnonzero(counts.col_sums == 0) + 1).tolist())
        )
        raise UnvisitedState(f"states {bad} missing from the jump table margins")
    t = counts.n_transitions
    expected = np.outer(counts.row_sums, counts.col_sums) / t
    c2 = float(np.sum((counts.matrix - expected) ** 2 / expected))
    df = (k - 1) ** 2
    p = float(stats.chi2.sf(c2, df))
    notes = []
    low = np.argwhere(expected / t < 0.05)
    if low.size:
        cells = [(int(a) + 1, int(b) + 1) for a, b in low]
        notes.append(f"expected share below 5% in cells {cells}")
    return TestReport(
        name="chi_square",
        statistic=c2,
        p_value=p,
        reject=p < level,
        level=level,
        notes=tuple(notes),
        extras={"df": float(df), "n_transitions": float(t)},
    )


def _check_pi(pi: np.ndarray, k: int) -> np.ndarray:
    pi = np.asarray(pi, dtype=float)
    if pi.size != k:
        raise DarcatError(f"pi has length {pi.size}, state space has k={k}")
    if not np.isfinite(pi).all():
        raise DarcatError(f"pi must be finite, got {pi.tolist()}")
    if np.any(pi <= 0.0) or np.any(pi >= 1.0):
        raise DegenerateDistribution("runs statistics need 0 < pi_j < 1 for every state")
    return pi


def _runs_and_pi(series: CatSeries, pi: np.ndarray | None) -> tuple[RunsSummary, np.ndarray, list[str]]:
    """The runs of a runs test, its checked ``pi`` (the state frequencies when None) and its notes."""
    summary = runs_summary(series)
    notes: list[str] = []
    if pi is None:
        pi = estimate_pi(series).pi_hat
        notes.append("pi estimated from the series")
    return summary, _check_pi(pi, series.space.k), notes


def runs_count_test(
    series: CatSeries,
    pi: np.ndarray | None = None,
    level: float = 0.05,
) -> TestReport:
    """Normal test on the total number of maximal runs.

    For k = 2 the statistic is (R - 2n pi1 pi2) / (2 sqrt(n pi1 pi2 (1 - 3 pi1 pi2))).
    For k > 2 it is (R - n(1 - sum pi^2)) / sqrt(n sigma2) with
    sigma2 = sum pi^2 + 2 sum pi^3 - 3 (sum pi^2)^2; the two agree at k = 2.
    ``pi`` may be the known marginal or omitted to plug in the state
    frequencies (flagged in the notes).  The p-value is two sided, since
    persistence deflates and anti-persistence inflates the run count.
    """
    summary, pi, notes = _runs_and_pi(series, pi)
    n = summary.n_scanned
    r = summary.total
    if pi.size == 2:
        prod = pi[0] * pi[1]
        mean = 2.0 * n * prod
        sd = 2.0 * math.sqrt(n * prod * (1.0 - 3.0 * prod))
    else:
        s2 = float(np.sum(pi**2))
        mean = n * (1.0 - s2)
        sigma2 = s2 + 2.0 * float(np.sum(pi**3)) - 3.0 * s2**2
        sd = math.sqrt(n * sigma2)
    z = (r - mean) / sd
    p = 2.0 * float(stats.norm.sf(abs(z)))
    return TestReport(
        name="runs_count",
        statistic=z,
        p_value=p,
        reject=p < level,
        level=level,
        notes=tuple(notes),
        extras={"total_runs": float(r), "null_mean": mean, "null_sd": sd, "n": float(n)},
    )


def _rho_and_mass(pi: np.ndarray) -> tuple[float, float]:
    """Largest state probability and the total mass of the states attaining it."""
    rho = float(pi.max())
    return rho, float(pi[pi >= rho - _TIE_TOL].sum())


def _band(rho: float, pi_rho: float, n: int, level: float) -> tuple[float, float]:
    c = n * (1.0 - rho) * pi_rho
    lo = math.log(-math.log(level / 2.0) / c) / math.log(rho)
    hi = math.log(-math.log(1.0 - level / 2.0) / c) / math.log(rho)
    return lo, hi


def _tail_prob(w: float, rho: float, pi_rho: float, n: int) -> float:
    """Asymptotic P(reduced longest run < w), clamped to [0, 1]."""
    p = math.exp(-n * (1.0 - rho) * pi_rho * rho**w)
    return min(1.0, max(0.0, p))


def longest_run_test(
    series: CatSeries,
    pi: np.ndarray | None = None,
    level: float = 0.05,
    alpha1: float | None = None,
) -> TestReport:
    """Acceptance-band test on the reduced longest run L - 1.

    The two-sided band for the reduced longest run comes from inverting
    its asymptotic tail probability at level/2 on each side, under the
    null where the largest diagonal transition probability is max(pi).
    The band endpoints are real numbers while the statistic is an integer,
    so the comparison rounds the band outward to the enclosing integers;
    rejecting on the raw endpoints would misread the large probability
    atom sitting just inside the lower endpoint as evidence.

    When ``alpha1`` is given, the analytic power at that alternative is
    attached to the report.
    """
    summary, pi, notes = _runs_and_pi(series, pi)
    n = summary.n_scanned
    rho0, pi_rho0 = _rho_and_mass(pi)
    lo, hi = _band(rho0, pi_rho0, n, level)
    l_tilde = summary.longest - 1
    reject = l_tilde < math.floor(lo) or l_tilde > math.ceil(hi)
    power = None
    if alpha1 is not None:
        power = longest_run_power(pi, alpha1, n, level)
    return TestReport(
        name="longest_run",
        statistic=float(l_tilde),
        p_value=None,
        reject=reject,
        level=level,
        power=power,
        notes=tuple(notes),
        extras={
            "longest": float(summary.longest),
            "band_lower": lo,
            "band_upper": hi,
            "rho0": rho0,
            "pi_rho0": pi_rho0,
            "n": float(n),
        },
    )


def longest_run_power(pi: np.ndarray, alpha1: float, n: int, level: float = 0.05) -> float:
    """Analytic power of the longest-run band test against persistence alpha1.

    Both band endpoints are computed under the null; the tail probability
    is then re-evaluated under the alternative, where the largest diagonal
    transition probability becomes alpha1 + (1 - alpha1) * max(pi) while
    the states attaining it keep the same total mass.  The result is
    clamped to [0, 1]; at alpha1 = 0 it equals the level exactly.
    """
    pi = _check_pi(pi, np.size(pi))
    if not 0.0 <= alpha1 < 1.0:
        raise DarcatError(f"alpha1 must lie in [0, 1), got {alpha1}")
    rho0, pi_rho0 = _rho_and_mass(pi)
    lo, hi = _band(rho0, pi_rho0, n, level)
    rho1 = alpha1 + (1.0 - alpha1) * rho0
    p_lo = _tail_prob(lo, rho1, pi_rho0, n)
    p_hi = _tail_prob(hi, rho1, pi_rho0, n)
    return min(1.0, max(0.0, 1.0 + p_lo - p_hi))
