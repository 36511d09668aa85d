import itertools
import re
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darcat import montecarlo, render
from darcat.core import CatSeries, DarcatError, StateSpace, path_counts
from darcat.dar import DarModel, draw_paths, simulate
from darcat.estimate import (
    ADMISSIBLE,
    FEW_STATES,
    UNDEFINED_ROW,
    InsufficientTransitions,
    UndefinedTransitionRow,
    alpha_ls_rows,
    alpha_mle_rows,
    estimate_alpha_ls,
    estimate_alpha_mle,
    estimate_pi,
)
from darcat.montecarlo import (
    SimGrid,
    study_grid,
    results_by_pi,
    run_grid,
    _estimate_rows,
    _pcg64_seed_words,
    _replicate_seeds,
    _uniform_rows,
)

SMALL = SimGrid(pis=((0.5, 0.5), (0.3, 0.7)), alphas=(0.2, 0.6), ns=(30, 60), m=4, seed=99)
# chains so short that every reason for dropping a replicate occurs
TINY = SimGrid(pis=((0.2, 0.3, 0.5),), alphas=(0.0, 0.9), ns=(2, 4), m=40, seed=3)
# marginals of k = 2, 3, 2: each is estimated as one stack of its cells' rows
MIXED_K = SimGrid(pis=((0.5, 0.5), (0.2, 0.3, 0.5), (0.3, 0.7)), alphas=(0.1, 0.8), ns=(5, 40), m=25, seed=8)


def test_deterministic_given_master_seed():
    assert run_grid(SMALL) == run_grid(SMALL)
    other = SimGrid(pis=SMALL.pis, alphas=SMALL.alphas, ns=SMALL.ns, m=4, seed=100)
    assert run_grid(other) != run_grid(SMALL)


def test_grid_shape_and_keys():
    results = run_grid(SMALL)
    assert len(results) == 2 * 2 * 2
    keys = {(c.pi, c.alpha, c.n) for c in results}
    assert ((0.3, 0.7), 0.6, 60) in keys
    for c in results:
        assert c.m1 <= c.m and c.m2 <= c.m
        assert len(c.mean_pi_hat) == len(c.pi)


def direct_cell(pi, alpha, n, seeds):
    """One cell replicate by replicate through the per-series functions.

    Returns the mean pi_hat and the admissible estimates of each estimator.
    """
    model = DarModel.from_pi(alpha, np.array(pi))
    pis, a1, a2 = [], [], []
    for seed in seeds:
        s = simulate(model, n, int(seed))
        pi_hat = estimate_pi(s).pi_hat
        pis.append(pi_hat)
        est = estimate_alpha_mle(s, pi_hat)
        if est.converged:
            a1.append(est.alpha_hat)
        try:
            est = estimate_alpha_ls(s, pi_hat)
        except (InsufficientTransitions, UndefinedTransitionRow):
            continue
        if est.converged:
            a2.append(est.alpha_hat)
    return tuple(np.mean(pis, axis=0)), a1, a2


def test_matches_direct_replication():
    # the documented seed-splitting rule: one uint32 per replicate in
    # cell-major order, so cell c's replicates use seeds c*m .. c*m+m-1;
    # the batched cells equal the per-series loop exactly, in grid order
    for grid in (SMALL, TINY, MIXED_K):
        results = run_grid(grid)
        seeds = _replicate_seeds(grid.seed, len(results) * grid.m)
        for c, cell in enumerate(results):
            mean_pi, a1, a2 = direct_cell(cell.pi, cell.alpha, cell.n, seeds[c * grid.m : (c + 1) * grid.m])
            assert cell.mean_pi_hat == mean_pi
            assert (cell.m1, cell.mean_alpha1) == (len(a1), float(np.mean(a1)) if a1 else None)
            assert (cell.m2, cell.mean_alpha2) == (len(a2), float(np.mean(a2)) if a2 else None)


def test_estimators_run_once_per_marginal(monkeypatch):
    # a marginal's 15 cells are counted one by one, then estimated as one stack of 15 * m rows
    calls = []
    for name, kernel in (("alpha_mle_rows", alpha_mle_rows), ("alpha_ls_rows", alpha_ls_rows)):

        def counted(jumps, pi, name=name, kernel=kernel):
            calls.append((name, len(pi)))
            return kernel(jumps, pi)

        monkeypatch.setattr(montecarlo, name, counted)
    run_grid(study_grid(m=2))
    assert calls == [("alpha_mle_rows", 30), ("alpha_ls_rows", 30)] * 4


@pytest.mark.parametrize("alphas, ns", [((), (10,)), ((0.5,), ())], ids=["no_alpha", "no_n"])
def test_grid_without_cells_runs_none(alphas, ns):
    assert run_grid(SimGrid(pis=((0.5, 0.5),), alphas=alphas, ns=ns, m=3)) == ()


def test_appending_a_marginal_keeps_the_earlier_cells():
    # cells are marginal-major, so a marginal appended to pis appends cells and their seeds
    extended = SimGrid(pis=SMALL.pis + ((0.1, 0.9),), alphas=SMALL.alphas, ns=SMALL.ns, m=SMALL.m, seed=SMALL.seed)
    before = run_grid(SMALL)
    assert run_grid(extended)[: len(before)] == before


# the study's own seeds (master seed 2 gives the first 6,000), and the ends of the uint32 range
BULK_SEEDS = np.concatenate([np.array([0, 1, 2**31, 2**32 - 1], dtype=np.uint32), _replicate_seeds(2, 10_000)])


@pytest.mark.parametrize("width, count", [(3, BULK_SEEDS.size), (101, BULK_SEEDS.size), (1001, 1_004)])
def test_bulk_seeding_draws_the_uniforms_of_default_rng_bit_for_bit(width, count):
    seeds = BULK_SEEDS[:count]
    drawn = _uniform_rows(_pcg64_seed_words(seeds), width)
    expected = np.stack([np.random.default_rng(int(s)).random(width) for s in seeds])
    assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))


def test_dropped_reasons_account_for_every_replicate():
    results = run_grid(TINY) + run_grid(SMALL)
    seen = set()
    for cell in results:
        for estimator, admissible in (("alpha1", cell.m1), ("alpha2", cell.m2)):
            assert sum(count for e, _, count in cell.dropped if e == estimator) == cell.m - admissible
        seen.update((e, reason) for e, reason, _ in cell.dropped)
    assert seen == {
        ("alpha1", "boundary"),
        ("alpha1", "all_repeats"),
        ("alpha2", "boundary"),
        ("alpha2", FEW_STATES),
        ("alpha2", UNDEFINED_ROW),
    }


EDGE_ROWS = [
    [2, 2, 2, 2, 2, 2],  # all repeats: one observed category, MLE at 1
    [1, 1, 1, 1, 1, 1],  # a single observed category, the first one
    [1, 2, 1, 2, 1, 2],  # no repeat: the MLE score is negative at 0
    [1, 1, 1, 2, 2, 3],  # state 3 only at the last position: undefined row
    [3, 3, 1, 1, 2, 2],  # ordinary row, both estimates admissible
    [1, 2, 3, 1, 2, 3],  # no repeat over all three states
]


def test_path_counts_of_edge_rows():
    states, jumps = path_counts(np.array(EDGE_ROWS), 3)
    assert states.tolist() == [[0, 6, 0], [6, 0, 0], [3, 3, 0], [3, 2, 1], [2, 2, 2], [2, 2, 2]]
    assert jumps.tolist() == [
        [[0, 0, 0], [0, 5, 0], [0, 0, 0]],
        [[5, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 3, 0], [2, 0, 0], [0, 0, 0]],
        [[2, 1, 0], [0, 1, 1], [0, 0, 0]],
        [[1, 1, 0], [0, 1, 0], [1, 0, 1]],
        [[0, 2, 0], [0, 0, 2], [1, 0, 0]],
    ]


def test_batched_estimators_match_per_series_on_edge_rows():
    space = StateSpace.from_k(3)
    counts, jumps = path_counts(np.array(EDGE_ROWS), space.k)
    pi_hat = counts / len(EDGE_ROWS[0])
    (alpha1, why1), (alpha2, why2) = _estimate_rows(pi_hat, jumps)
    for r, row in enumerate(EDGE_ROWS):
        s = CatSeries(space, tuple(row))
        pi = estimate_pi(s).pi_hat
        assert pi_hat[r].tolist() == pi.tolist()
        est = estimate_alpha_mle(s, pi)
        assert (alpha1[r], why1[r] == ADMISSIBLE) == (est.alpha_hat, est.converged)
        if why2[r] == FEW_STATES:
            with pytest.raises(InsufficientTransitions):
                estimate_alpha_ls(s, pi)
        elif why2[r] == UNDEFINED_ROW:
            with pytest.raises(UndefinedTransitionRow):
                estimate_alpha_ls(s, pi)
        else:
            est = estimate_alpha_ls(s, pi)
            assert (alpha2[r], why2[r] == ADMISSIBLE) == (est.alpha_hat, est.converged)
    assert why1.tolist() == ["all_repeats", "all_repeats", "boundary", ADMISSIBLE, ADMISSIBLE, "boundary"]
    assert why2.tolist() == [FEW_STATES, FEW_STATES, "boundary", UNDEFINED_ROW, ADMISSIBLE, "boundary"]
    assert alpha1[:3].tolist() == [1.0, 1.0, 0.0]


@st.composite
def row_stacks(draw):
    """(pi_hat, jumps) of 3-state rows: EDGE_ROWS among simulated blocks of several (alpha, n)."""
    blocks = [path_counts(np.array(EDGE_ROWS), 3)]
    for _ in range(draw(st.integers(1, 4))):
        alpha = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 0.99]))
        pi = draw(st.sampled_from([(1 / 3, 1 / 3, 1 / 3), (0.2, 0.3, 0.5), (0.05, 0.05, 0.9)]))
        n, rows = draw(st.integers(1, 80)), draw(st.integers(1, 12))
        u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((rows, 2 * n + 1))
        blocks.insert(draw(st.integers(0, len(blocks))), path_counts(draw_paths(DarModel.from_pi(alpha, np.array(pi)), u), 3))
    # pi_hat per block, as run_grid divides each cell's counts by its own length
    pi_hat = np.concatenate([counts / counts[0].sum() for counts, _ in blocks])
    return pi_hat, np.concatenate([jumps for _, jumps in blocks])


@settings(max_examples=60, deadline=None)
@given(stack=row_stacks())
def test_row_kernels_do_not_depend_on_the_batch(stack):
    # run_grid estimates a marginal's cells as one stack; its tables are bit-identical only if each row's
    # estimate is that row's alone, so every value (NaN rows too), iteration count and why code must match
    pi_hat, jumps = stack
    batched = alpha_mle_rows(jumps, pi_hat) + alpha_ls_rows(jumps, pi_hat)
    for r in range(len(pi_hat)):
        alone = alpha_mle_rows(jumps[r : r + 1], pi_hat[r : r + 1]) + alpha_ls_rows(jumps[r : r + 1], pi_hat[r : r + 1])
        for got, want in zip(batched, alone):
            if got.dtype == float:
                got, want = got.view(np.uint64), want.view(np.uint64)
            assert got[r] == want[0]


def test_mean_none_when_no_valid_replicate():
    # a single two-step chain that alternates leaves no admissible estimate
    grid = SimGrid(pis=((0.5, 0.5),), alphas=(0.0,), ns=(2,), m=1, seed=5)
    cell = run_grid(grid)[0]
    assert (cell.m1, cell.mean_alpha1) == (0, None)
    assert (cell.m2, cell.mean_alpha2) == (0, None)
    assert cell.dropped == (("alpha1", "boundary", 1), ("alpha2", "boundary", 1))


def test_study_grid_layout():
    grid = study_grid(m=3)
    assert len(grid.pis) == 4
    assert grid.alphas == (0.1, 0.2, 0.5, 0.8, 0.9)
    assert grid.ns == (50, 100, 500)
    results = run_grid(grid)
    grouped = results_by_pi(results)
    assert len(grouped) == 4
    assert all(len(cells) == 15 for cells in grouped.values())


def test_validation():
    with pytest.raises(DarcatError):
        SimGrid(pis=((0.5, 0.5),), alphas=(1.0,), ns=(10,), m=2)
    with pytest.raises(DarcatError):
        SimGrid(pis=((0.5, 0.5),), alphas=(0.5,), ns=(10,), m=0)


@pytest.mark.parametrize(
    "m, seed, message",
    [
        (2.5, 2, "m must be an integer, got 2.5"),
        (3.0, 2, "m must be an integer, got 3.0"),
        (3, -1, "seed must be >= 0, got -1"),
        (3, 2.5, "seed must be an integer, got 2.5"),
        (3, "2", "seed must be an integer, got '2'"),
    ],
    ids=["m_fraction", "m_float", "seed_negative", "seed_fraction", "seed_text"],
)
def test_bad_replicate_count_or_seed_is_refused_with_the_grid(m, seed, message):
    # before any cell runs: each used to fail inside numpy's seeding or reshape
    with pytest.raises(DarcatError, match=re.escape(message)):
        SimGrid(pis=((0.5, 0.5),), alphas=(0.5,), ns=(10,), m=m, seed=seed)
    assert SimGrid(pis=((0.5, 0.5),), alphas=(0.5,), ns=(10,), m=np.int64(3), seed=np.uint32(0)).seed == 0


@pytest.mark.parametrize(
    "ns, pis, message",
    [
        ((10, 0), ((0.5, 0.5),), "n must be >= 1, got 0"),
        ((-3,), ((0.5, 0.5),), "n must be >= 1, got -3"),
        ((2.5,), ((0.5, 0.5),), "n must be an integer, got 2.5"),
        ((10,), ((0.5, 0.5), (0.6, 0.6)), "pi must sum to 1 within 1e-12, got 1.2"),
        ((10,), ((0.5, 0.5), (1.0,)), "pi must be a probability vector of length >= 2"),
        ((10,), ((-0.5, 1.5),), "pi components must be nonnegative"),
    ],
    ids=["n_zero", "n_negative", "n_fraction", "pi_sum", "pi_one_state", "pi_negative"],
)
def test_bad_length_or_marginal_is_refused_with_the_grid(ns, pis, message):
    # before any cell runs: n = 0 used to average pi_hat over one point, n < 0 or 2.5 to fail inside numpy
    with pytest.raises(DarcatError, match=re.escape(message)):
        SimGrid(pis=pis, alphas=(0.5,), ns=ns, m=3)
    assert SimGrid(pis=((0.5, 0.5),), alphas=(0.5,), ns=(np.int64(3), 1), m=3).ns == (3, 1)


@pytest.mark.parametrize(
    "m, ns",
    [(10**20, (10,)), (2**63 // 24, (1,)), (1, (np.int64(2**62),))],
    ids=["replicates", "seed_words", "uniforms"],
)
def test_a_grid_numpy_could_not_allocate_is_refused_before_any_cell_runs(m, ns):
    # seed_words: a cell's 3m uniforms fit, but 32 bytes of seed words per replicate do not
    with pytest.raises(DarcatError, match=rf"^m={m} is too large: numpy cannot allocate"):
        SimGrid(pis=((0.5, 0.5),), alphas=(0.5,), ns=ns, m=m)


def exact_cell(pi, alpha, n):
    """Every moment run_grid estimates, over all k^(n+1) paths weighted by their DAR(1) probability.

    Returns E[pi_hat] and Var(pi_hat_j), and per estimator P(admissible) with the mean and variance of
    the admissible estimates.
    """
    pi = np.asarray(pi)
    paths = np.array(list(itertools.product(range(1, pi.size + 1), repeat=n + 1)))
    # X_0 ~ pi; X_t repeats X_{t-1} with probability alpha, else is drawn from pi afresh
    steps = alpha * (paths[:, 1:] == paths[:, :-1]) + (1 - alpha) * pi[paths[:, 1:] - 1]
    w = pi[paths[:, 0] - 1] * steps.prod(axis=1)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    counts, jumps = path_counts(paths, pi.size)
    pi_hat = counts / (n + 1)
    estimators = _estimate_rows(pi_hat, jumps)
    mean_pi = w @ pi_hat
    moments = []
    for alpha_hat, why in estimators:
        kept = why == ADMISSIBLE
        p_kept = w[kept].sum()
        mean = w[kept] @ alpha_hat[kept] / p_kept
        moments.append((p_kept, mean, w[kept] @ (alpha_hat[kept] - mean) ** 2 / p_kept))
    return mean_pi, w @ (pi_hat - mean_pi) ** 2, moments


EXACT_CELLS = [((0.3, 0.7), 0.5, 10), ((0.2, 0.3, 0.5), 0.6, 7), ((0.5, 0.5), 0.9, 12)]


def test_study_chain_matches_exact_enumeration_of_every_path():
    # 6 + 7 + 6 z-scores, each two-sided; Bonferroni keeps the family-wise false-alarm rate at 1e-3
    m, n_scores = 40_000, 19
    bound = NormalDist().inv_cdf(1 - 1e-3 / (2 * n_scores))
    scores = []
    for pi, alpha, n in EXACT_CELLS:
        mean_pi, var_pi, moments = exact_cell(pi, alpha, n)
        assert mean_pi == pytest.approx(pi, abs=1e-12)  # the chain starts stationary
        cell = run_grid(SimGrid(pis=(pi,), alphas=(alpha,), ns=(n,), m=m, seed=5))[0]
        for (p_kept, mean, var), kept, got in zip(moments, (cell.m1, cell.m2), (cell.mean_alpha1, cell.mean_alpha2)):
            scores.append((kept - m * p_kept) / np.sqrt(m * p_kept * (1 - p_kept)))
            scores.append((got - mean) / np.sqrt(var / kept))
        scores.extend((np.array(cell.mean_pi_hat) - mean_pi) / np.sqrt(var_pi / m))
    assert len(scores) == n_scores
    assert np.max(np.abs(scores)) < bound, np.round(scores, 2)


def test_formatters():
    cells = list(run_grid(SMALL))[:2]
    csv = render.study_table(cells, "csv")
    assert csv.splitlines()[0] == "alpha,n,pi_hat,alpha1,m1,alpha2,m2"
    assert len(csv.splitlines()) == 3
    md = render.study_table(cells, "md")
    assert md.startswith("| alpha | n |")
    assert md.count("\n") == 4
    txt = render.study_table(cells, "txt")
    assert "alpha1" in txt.splitlines()[0]
