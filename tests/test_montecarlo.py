import numpy as np
import pytest

from darcat.core import CatSeries, DarcatError, StateSpace
from darcat.dar import DarModel, simulate
from darcat.estimate import (
    ADMISSIBLE,
    FEW_STATES,
    UNDEFINED_ROW,
    InsufficientTransitions,
    UndefinedTransitionRow,
    estimate_alpha_ls,
    estimate_alpha_mle,
    estimate_pi,
)
from darcat.montecarlo import (
    SimGrid,
    format_cells,
    study_grid,
    results_by_pi,
    run_grid,
    _estimate_paths,
    _replicate_seeds,
)

SMALL = SimGrid(pis=((0.5, 0.5), (0.3, 0.7)), alphas=(0.2, 0.6), ns=(30, 60), m=4, seed=99)
# chains so short that every reason for dropping a replicate occurs
TINY = SimGrid(pis=((0.2, 0.3, 0.5),), alphas=(0.0, 0.9), ns=(2, 4), m=40, seed=3)


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
    # the batched cell equals the per-series loop exactly
    for grid in (SMALL, TINY):
        results = run_grid(grid)
        seeds = _replicate_seeds(grid.seed, len(results) * grid.m)
        for c, cell in enumerate(results):
            mean_pi, a1, a2 = direct_cell(cell.pi, cell.alpha, cell.n, seeds[c * grid.m : (c + 1) * grid.m])
            assert cell.mean_pi_hat == mean_pi
            assert (cell.m1, cell.mean_alpha1) == (len(a1), float(np.mean(a1)) if a1 else None)
            assert (cell.m2, cell.mean_alpha2) == (len(a2), float(np.mean(a2)) if a2 else None)


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


def test_batched_estimators_match_per_series_on_edge_rows():
    space = StateSpace.from_k(3)
    pi_hat, (alpha1, why1), (alpha2, why2) = _estimate_paths(np.array(EDGE_ROWS), space.k)
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


def test_formatters():
    cells = list(run_grid(SMALL))[:2]
    csv = format_cells(cells, "csv")
    assert csv.splitlines()[0] == "alpha,n,pi_hat,alpha1,m1,alpha2,m2"
    assert len(csv.splitlines()) == 3
    md = format_cells(cells, "md")
    assert md.startswith("| alpha | n |")
    assert md.count("\n") == 4
    txt = format_cells(cells, "txt")
    assert "alpha1" in txt.splitlines()[0]
