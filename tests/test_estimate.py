import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darcat import estimate
from darcat.core import MISSING, CatSeries, DarcatError, StateSpace, path_counts
from darcat.dar import DarModel, MissingDarModel, simulate, simulate_with_missing
from darcat.estimate import (
    ADMISSIBLE,
    ALL_REPEATS,
    BOUNDARY,
    FEW_STATES,
    UNDEFINED_ROW,
    AllMissing,
    InsufficientTransitions,
    alpha_ls_from_matrix,
    alpha_ls_rows,
    alpha_mle_equation,
    alpha_mle_rows,
    estimate_alpha_ls,
    estimate_alpha_mle,
    estimate_alpha_mle_gapped,
    estimate_beta,
    estimate_pi,
    pi_covariance_limit,
    pi_hat_covariance,
    pi_hat_variance,
    pi_variance_limit,
    vn,
)

K2 = StateSpace.from_k(2)


def series(obs, k=2):
    return CatSeries(StateSpace.from_k(k), tuple(obs))


def vn_brute(alpha, n):
    return sum((n - h) * alpha**h for h in range(1, n + 1))


def vn_exact(alpha, n):
    """sum_{h=1..n-1} (n-h) * alpha**h as an exact Fraction.

    With alpha = p/q exactly, q**(n-2) * sum_{h} (n-h) (p/q)**(h-1) is an
    integer, accumulated by Horner's rule from the highest power down.
    """
    if n < 2:
        return Fraction(0)
    p, q = alpha.as_integer_ratio()
    acc, qpow = 1, 1
    for c in range(2, n):
        qpow *= q
        acc = acc * p + c * qpow
    return Fraction(acc * p, q ** (n - 1))


class TestPi:
    def test_plain_frequencies(self):
        est = estimate_pi(series([1, 1, 2, 2]))
        assert np.allclose(est.pi_hat, [0.5, 0.5])
        assert est.n_obs == 4

    def test_missing_skipped(self):
        est = estimate_pi(series([1, MISSING, 1, 2]))
        assert np.allclose(est.pi_hat, [2 / 3, 1 / 3])
        assert est.n_obs == 3

    def test_all_missing(self):
        with pytest.raises(AllMissing):
            estimate_pi(series([MISSING, MISSING]))

    def test_simulated_marginal(self):
        # the 2-state asymmetric configuration at n=500 recovers (1/3, 2/3)
        s = simulate(DarModel.from_pi(0.5, [1 / 3, 2 / 3]), 500, seed=123)
        est = estimate_pi(s)
        assert np.allclose(est.pi_hat, [1 / 3, 2 / 3], atol=0.05)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        obs = rng.integers(1, 4, 100)
        est = estimate_pi(series(obs, k=3))
        swap = {1: 3, 2: 1, 3: 2}
        est_swapped = estimate_pi(series([swap[v] for v in obs], k=3))
        assert np.allclose(est.pi_hat, est_swapped.pi_hat[[2, 0, 1]])

    def test_with_alpha_fills_scale(self):
        # the scale of n*Var at a given alpha is a function of the estimate, not a field of it
        est = estimate_pi(series([1, 1, 2, 2]))
        assert np.allclose(pi_variance_limit(est.pi_hat, 0.5), 3.0 * 0.25)


class TestVn:
    def test_zero_alpha(self):
        assert vn(0.0, 17) == 0.0

    def test_hand_sum(self):
        assert vn(0.5, 3) == pytest.approx(1.25, abs=1e-15)

    def test_closed_form_matches_brute_force(self):
        for alpha in np.arange(0.0, 0.95, 0.1):
            for n in range(1, 101):
                expected = vn_brute(alpha, n)
                assert vn(float(alpha), n) == pytest.approx(expected, abs=1e-9 * max(1.0, expected))

    def test_near_one_guard(self):
        alpha = 1 - 1e-8
        assert vn(alpha, 50) == pytest.approx(vn_brute(alpha, 50), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.one_of(
            st.floats(0.0, 1.0 - 1e-9),
            st.floats(-9.0, 0.0).map(lambda e: 1.0 - 10.0**e),  # 1 - alpha spread over decades
        ),
        n=st.integers(1, 2000),
    )
    @example(alpha=0.999998, n=10)
    @example(alpha=0.9999989, n=10)
    @example(alpha=1.0 - 1e-9, n=2000)
    @example(alpha=0.999, n=1000)
    def test_matches_exact_sum(self, alpha, n):
        exact = vn_exact(alpha, n)
        value = vn(alpha, n)
        if exact == 0:
            assert value == 0.0
        else:
            assert abs(Fraction(value) - exact) <= exact / 10**12


class TestVariance:
    def test_binomial_at_alpha_zero(self):
        assert pi_hat_variance(0.3, 0.0, 50) == pytest.approx(0.3 * 0.7 / 50, abs=1e-15)

    def test_scaled_limit(self):
        assert pi_variance_limit(0.5, 0.5) == pytest.approx(0.75)
        n = 10_000
        assert n * pi_hat_variance(0.5, 0.5, n) == pytest.approx(0.75, abs=1e-2)

    def test_covariance_sign_and_limit(self):
        assert pi_hat_covariance(0.3, 0.4, 0.5, 100) < 0
        assert pi_covariance_limit(0.3, 0.4, 0.5) == pytest.approx(-(1 + 0.5) / 0.5 * 0.12)
        n = 10_000
        assert n * pi_hat_covariance(0.3, 0.4, 0.5, n) == pytest.approx(
            pi_covariance_limit(0.3, 0.4, 0.5), abs=1e-2
        )

    @pytest.mark.parametrize(
        "pi, alpha, n",
        [
            ((Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)), Fraction(3, 5), 6),
            ((Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)), Fraction(0), 5),
            ((Fraction(1, 3), Fraction(2, 3)), Fraction(0), 7),
            ((Fraction(1, 3), Fraction(2, 3)), Fraction(1, 2), 8),
            ((Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)), Fraction(9, 10), 5),
        ],
    )
    def test_moments_match_enumeration_of_every_path(self, pi, alpha, n):
        # the stationary chain: X_1 ~ pi, then repeat with probability alpha, else draw afresh from pi
        k = len(pi)
        mean, second = [Fraction(0)] * k, [[Fraction(0)] * k for _ in range(k)]
        for path in itertools.product(range(k), repeat=n):
            prob = pi[path[0]]
            for a, b in zip(path, path[1:]):
                prob *= alpha * (a == b) + (1 - alpha) * pi[b]
            freq = [Fraction(path.count(j), n) for j in range(k)]
            for j in range(k):
                mean[j] += prob * freq[j]
                for jp in range(k):
                    second[j][jp] += prob * freq[j] * freq[jp]
        assert mean == list(pi)
        p, a = [float(v) for v in pi], float(alpha)
        for j in range(k):
            assert pi_hat_variance(p[j], a, n) == pytest.approx(float(second[j][j] - pi[j] ** 2), rel=1e-12)
            for jp in range(j + 1, k):
                exact = second[j][jp] - pi[j] * pi[jp]
                assert pi_hat_covariance(p[j], p[jp], a, n) == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, -0.1, np.nan])
    @pytest.mark.parametrize(
        "call",
        [
            lambda a: pi_variance_limit(0.3, a),
            lambda a: pi_covariance_limit(0.3, 0.4, a),
            lambda a: vn(a, 50),
        ],
        ids=["pi_variance_limit", "pi_covariance_limit", "vn"],
    )
    def test_alpha_outside_unit_interval_is_refused(self, call, alpha):
        # 1.0 is what the MLE gives a series of nothing but repeats
        with pytest.raises(DarcatError, match=r"alpha must lie in \[0, 1\)"):
            call(alpha)


class TestAlphaMle:
    def test_expected_count_fixed_point(self):
        # diagonal counts at their expectation solve the score exactly
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            pi = rng.dirichlet(np.ones(k))
            alpha = float(rng.uniform(0, 0.99))
            n = 1000
            diag = n * pi * (alpha + (1 - alpha) * pi)
            assert alpha_mle_equation(alpha, diag, pi, n) == pytest.approx(0.0, abs=1e-12)

    def test_score_is_decreasing(self):
        s = simulate(DarModel.from_pi(0.4, [0.3, 0.3, 0.4]), 300, seed=2)
        pi_hat = estimate_pi(s).pi_hat
        x = s.obs
        diag = np.bincount(x[:-1][x[:-1] == x[1:]] - 1, minlength=3)
        grid = [alpha_mle_equation(a, diag, pi_hat, x.size - 1) for a in np.linspace(0, 0.999, 200)]
        assert all(b < a for a, b in zip(grid, grid[1:]))

    def test_alternating_series_hits_lower_boundary(self):
        s = series([1, 2] * 10)
        est = estimate_alpha_mle(s, estimate_pi(s).pi_hat)
        assert est.alpha_hat == 0.0 and not est.converged

    def test_constant_series_hits_upper_boundary(self):
        s = series([2] * 12, k=2)
        est = estimate_alpha_mle(s, estimate_pi(s).pi_hat)
        assert est.alpha_hat == 1.0 and not est.converged

    def test_no_pairs(self):
        with pytest.raises(InsufficientTransitions):
            estimate_alpha_mle(series([MISSING, 1, MISSING]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize(
        "pi, root",
        [
            ([0.0, 0.5, 0.5], (31**0.5 - 2) / 9),
            ([1e-300, 0.5, 0.5], (31**0.5 - 2) / 9),
            ([1.0, 0.0, 0.0], 1 / 6),
        ],
    )
    def test_zero_or_tiny_pi_at_a_repeated_state(self, pi, root):
        # N_11 = 3, N_22 = 1 over 9 pairs: the score has a pole at alpha = 0 (or nearly one, at 1e-300)
        # and roots 3/a + 2/(1+a) = 9, that is 9a^2 + 4a - 3 = 0, and 3 + 1/a = 9
        s = series([1, 1, 2, 3, 2, 2, 3, 1, 1, 1], k=3)
        est = estimate_alpha_mle(s, np.array(pi))
        assert est.converged and abs(est.alpha_hat - root) <= 1e-10

    @pytest.mark.parametrize(
        "pi, cause",
        [([-0.1, 1.1], "nonnegative"), ([0.7, 0.7], "sum to 1"), ([np.nan, 0.5], "finite"), ([0.5, 0.25, 0.25], "k=2")],
    )
    def test_pi_that_is_no_probability_vector_is_named(self, pi, cause):
        s = series([1, 1, 2, MISSING, 2, 1, 1, 2, 2, 1])
        with pytest.raises(DarcatError, match=cause):
            estimate_alpha_mle(s, np.array(pi))

    def test_pair_across_gap_is_used(self):
        s = series([1, MISSING, 2])
        est = estimate_alpha_mle(s, np.array([0.5, 0.5]))
        assert est == estimate_alpha_mle_gapped(s)
        assert est.alpha_hat == pytest.approx(0.0, abs=1e-7) and not est.converged

    @pytest.mark.parametrize("seed", range(6))
    def test_gapped_series_equals_gap_aware_estimate(self, seed):
        mm = MissingDarModel(DarModel.from_pi(0.6, [0.2, 0.3, 0.5]), 0.25)
        s = simulate_with_missing(mm, 200, seed=seed)
        assert s.has_missing
        assert estimate_alpha_mle(s, estimate_pi(s).pi_hat) == estimate_alpha_mle_gapped(s)

    def test_table_cell_mean(self):
        # half/half marginal, alpha = 0.5, n = 500, 100 replicates
        model = DarModel.from_pi(0.5, [0.5, 0.5])
        values = []
        for r in range(100):
            s = simulate(model, 500, seed=9000 + r)
            est = estimate_alpha_mle(s, estimate_pi(s).pi_hat)
            if est.converged:
                values.append(est.alpha_hat)
        assert len(values) == 100
        assert np.mean(values) == pytest.approx(0.494, abs=0.02)


def mle_why_reference(repeats, pi, n_pairs):
    """The ``why`` code of the gap-1 MLE of one row, from the score at 0."""
    if repeats.sum() == n_pairs:
        return ALL_REPEATS
    mask = repeats > 0
    return BOUNDARY if float((repeats[mask] / pi[mask]).sum()) / n_pairs - 1.0 < 0.0 else ADMISSIBLE


def exact_score(alpha, repeats, pi, n_pairs):
    """The gap-1 score of :func:`alpha_mle_equation` in exact arithmetic at the rational ``alpha``."""
    terms = (Fraction(int(c)) / (alpha + (1 - alpha) * Fraction(float(p))) for c, p in zip(repeats, pi) if c > 0)
    return sum(terms) / n_pairs - 1


def ls_reference(jumps, pi):
    """Least squares on the sub-matrix of observed states: ``(alpha_hat, why)``."""
    visited = pi > 0
    rows = jumps.sum(axis=1)
    if visited.sum() < 2:
        return None, FEW_STATES
    if np.any(visited & (rows == 0)):
        return None, UNDEFINED_ROW
    idx = np.flatnonzero(visited)
    p, q = jumps[np.ix_(idx, idx)] / rows[idx, None], pi[idx]
    resid = p - np.tile(q, (idx.size, 1))
    diag = np.diag(resid)
    num = float(np.sum((1.0 - q) * diag)) - float(np.sum(q * resid) - np.sum(q * diag))
    if abs(num) <= 8 * pi.size**2 * np.finfo(float).eps:
        num = 0.0  # the rounding of an exact 0, as in the kernel
    den = (idx.size - 1) * float(np.sum(q**2)) + float(np.sum((1.0 - q) ** 2))
    value = num / den
    return value, ADMISSIBLE if 0.0 <= value < 1.0 else BOUNDARY


@st.composite
def path_rows(draw):
    """Equal-length complete paths over k <= 7 states, runs of repeats likely."""
    k = draw(st.integers(2, 7))
    length = draw(st.integers(2, 60))
    row = st.lists(st.tuples(st.integers(1, k), st.integers(1, 8)), min_size=1, max_size=length)
    rows = [[v for v, r in runs for _ in range(r)] for runs in draw(st.lists(row, min_size=1, max_size=5))]
    rows = [(r * length)[:length] for r in rows]
    return k, np.array(rows)


class TestBatchedRows:
    """The row-batched estimators against scalar per-row references.

    Least squares and every ``why`` code must match exactly; the MLE must
    bracket the exact root of its score within 1e-10.
    """

    @settings(max_examples=200, deadline=None)
    @given(batch=path_rows())
    @example(batch=(3, np.array([[2, 2, 2, 2], [1, 2, 1, 2], [1, 1, 2, 3], [3, 3, 1, 2]])))
    def test_rows_equal_scalar_references(self, batch):
        k, paths = batch
        states, jumps = path_counts(paths, k)
        pi = states / paths.shape[1]
        alpha1, iterations, why1 = alpha_mle_rows(jumps, pi)
        alpha2, why2 = alpha_ls_rows(jumps, pi)
        for r in range(len(paths)):
            repeats, n_pairs = np.diagonal(jumps[r]).copy(), paths.shape[1] - 1
            assert why1[r] == mle_why_reference(repeats, pi[r], n_pairs)
            if why1[r] != ADMISSIBLE:
                assert (alpha1[r], iterations[r]) == ((1.0 if why1[r] == ALL_REPEATS else 0.0), 0)
            else:
                assert 1 <= iterations[r] <= 34
                a, tol = Fraction(float(alpha1[r])), Fraction(1, 10**10)
                if alpha1[r] == estimate._ALPHA_HI:  # the root lies at or above the upper end
                    assert exact_score(a, repeats, pi[r], n_pairs) >= 0
                else:  # the exact root lies within 1e-10, tighter than a 1e-10 bisection bracket
                    assert exact_score(a - tol, repeats, pi[r], n_pairs) > 0
                    assert exact_score(a + tol, repeats, pi[r], n_pairs) < 0
            value, why = ls_reference(jumps[r], pi[r])
            assert why2[r] == why
            if value is None:
                continue
            if k <= 3 or pi[r].all():
                assert alpha2[r] == value
            else:
                # zeros for unvisited states regroup numpy's pairwise sum of k*k >= 16 terms
                assert alpha2[r] == pytest.approx(value, rel=1e-12, abs=1e-15)


class TestAlphaLs:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            pi = rng.dirichlet(np.ones(k))
            alpha = float(rng.uniform(0, 0.999))
            p = alpha * np.eye(k) + (1 - alpha) * np.tile(pi, (k, 1))
            assert alpha_ls_from_matrix(p, pi) == pytest.approx(alpha, abs=1e-12)

    def test_exact_zero_is_admissible(self):
        # all states equally frequent: the numerator is exactly 0 and used to round to -1.4e-17
        s = series([3, 1, 1, 2, 2, 3], k=3)
        est = estimate_alpha_ls(s, estimate_pi(s).pi_hat)
        assert est.alpha_hat == 0.0 and est.converged
        alpha_hat, why = alpha_ls_rows(np.array([[[1, 1, 0], [0, 1, 1], [1, 0, 0]]]), np.full((1, 3), 1 / 3))
        assert alpha_hat.tolist() == [0.0] and why.tolist() == [ADMISSIBLE]

    @pytest.mark.parametrize(
        "pi, cause",
        [
            ([0.2, 0.2, 0.2], "sum to 1"),
            ([np.nan, 0.5, 0.5], "finite"),
            ([-0.5, 0.5, 1.0], "nonnegative"),
            ([0.5, 0.5], "k=3"),
        ],
    )
    def test_pi_that_is_no_probability_vector_is_named(self, pi, cause):
        s = series([1, 2, 3, 3, 1, 2, 2, 3, 1, 1], k=3)
        with pytest.raises(DarcatError, match=cause):
            estimate_alpha_ls(s, np.array(pi))

    def test_out_of_interval_reported_raw(self):
        s = series([1, 2] * 20)  # strong anti-persistence
        est = estimate_alpha_ls(s, estimate_pi(s).pi_hat)
        assert est.alpha_hat < 0.0 and not est.converged

    def test_table_cell_means(self):
        model = DarModel.from_pi(0.5, [0.5, 0.5])
        values = []
        for r in range(100):
            s = simulate(model, 500, seed=9000 + r)
            est = estimate_alpha_ls(s, estimate_pi(s).pi_hat)
            if est.converged:
                values.append(est.alpha_hat)
        assert np.mean(values) == pytest.approx(0.497, abs=0.02)
        # 3-state configuration at strong persistence
        model3 = DarModel.from_pi(0.9, [0.25, 0.5, 0.25])
        values3 = []
        for r in range(100):
            s = simulate(model3, 500, seed=9500 + r)
            est = estimate_alpha_ls(s, estimate_pi(s).pi_hat)
            if est.converged:
                values3.append(est.alpha_hat)
        assert np.mean(values3) == pytest.approx(0.892, abs=0.02)


class TestAlphaGapped:
    def test_reduces_to_plain_mle_on_complete_series(self):
        s = simulate(DarModel.from_pi(0.5, [0.5, 0.5]), 1000, seed=3)
        plain = estimate_alpha_mle(s, estimate_pi(s).pi_hat)
        gapped = estimate_alpha_mle_gapped(s)
        assert gapped.alpha_hat == pytest.approx(plain.alpha_hat, abs=1e-6)

    def test_consistency_with_missing(self):
        mm = MissingDarModel(DarModel.from_pi(0.5, [0.5, 0.5]), 0.3)
        s = simulate_with_missing(mm, 2000, seed=5)
        est = estimate_alpha_mle_gapped(s)
        assert est.alpha_hat == pytest.approx(0.5, abs=0.1)

    def test_alternating_with_gaps_hits_zero(self):
        s = series([1, MISSING, 2, MISSING, 1, MISSING, 2, 1, 2])
        est = estimate_alpha_mle_gapped(s)
        assert est.alpha_hat == pytest.approx(0.0, abs=1e-6)
        assert not est.converged

    def test_no_observed_pair(self):
        with pytest.raises(InsufficientTransitions):
            estimate_alpha_mle_gapped(series([1, MISSING]))

    def test_one_observed_category_gives_one_not_converged(self):
        # every pair is a repeat, so the likelihood is flat: the gap-1 path's ALL_REPEATS
        est = estimate_alpha_mle_gapped(series([1, MISSING, 1, 1]))
        assert (est.alpha_hat, est.converged, est.iterations) == (1.0, False, 0)
        complete = estimate_alpha_mle_gapped(series([1, 1, 1]))
        assert (complete.alpha_hat, complete.converged) == (1.0, False)

    def test_no_repeat_gives_exactly_zero_not_converged(self):
        est = estimate_alpha_mle_gapped(series([1, MISSING, 2, MISSING, 1, 2, 1]))
        assert (est.alpha_hat, est.converged, est.iterations) == (0.0, False, 0)


def grid_loglik(s):
    return estimate._gapped_loglik(*s.pairs, estimate_pi(s).pi_hat)


def dense_grid_argmax(parts):
    """The first maximum of the log-likelihood over every grid point."""
    rep, jump = parts(estimate._GRID)
    return int(np.argmax(rep + jump))


def grid_local_maxima(parts):
    rep, jump = parts(estimate._GRID)
    v = np.concatenate([[-np.inf], rep + jump, [-np.inf]])
    return np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])).tolist()


def field_sized_gapped(seed):
    """A gapped DAR(1) series of the field sizes: n 50-500, beta <= 0.3, k 2-5."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    n = int(rng.choice([50, 100, 500]))
    beta = float(rng.choice([0.1, 0.2, 0.3]))
    model = DarModel.from_pi(float(rng.uniform(0.0, 0.9)), rng.dirichlet(np.ones(k)))
    return simulate_with_missing(MissingDarModel(model, beta), n, seed=seed)


def field_sized_on_the_grid_path():
    """(seed, series) for the field-sized series of seeds 0-259 that reach the grid scan."""
    out = []
    for seed in range(260):
        s = field_sized_gapped(seed)
        gaps, table = s.pairs
        if gaps.tolist() != [1] and np.trace(table, axis1=1, axis2=2).sum() not in (0, table.sum()):
            out.append((seed, s))
    assert len(out) >= 200
    return out


class TestGridScan:
    """The blocked scan of the gap-aware likelihood against the dense one."""

    def test_equals_dense_argmax_on_field_sized_series(self):
        for seed, s in field_sized_on_the_grid_path():
            parts = grid_loglik(s)
            assert estimate._grid_argmax(parts) == dense_grid_argmax(parts), seed

    @pytest.mark.parametrize("seed, maxima", [(3988, [0, 2230]), (1761, [0, 3386])])
    def test_equals_dense_argmax_with_two_local_maxima(self, seed, maxima):
        # global maximum at 0 with a near one inside (3988), and the reverse (1761)
        parts = grid_loglik(field_sized_gapped(seed))
        assert grid_local_maxima(parts) == maxima
        assert estimate._grid_argmax(parts) == dense_grid_argmax(parts)

    @pytest.mark.parametrize(
        "obs, expected",
        [
            ((1, 2, 1, 2, 2, 1, MISSING, 2, 1, 2, 1, MISSING, 1, 2, 1, 2), 0),  # fewer repeats than independence gives
            ((1,) * 15000 + (MISSING,) + (2,) * 15000, 9999),  # one jump among 29,998 repeats: 0.9999
        ],
    )
    def test_equals_dense_argmax_at_the_grid_ends(self, obs, expected):
        parts = grid_loglik(series(obs))
        assert estimate._grid_argmax(parts) == dense_grid_argmax(parts) == expected

    def test_finds_a_maximum_no_block_end_shows(self):
        # a repeat part stepping up at grid point 7050 and a jump part stepping
        # down right after it: a one-point spike above a falling line, while
        # the best block end is alpha = 0
        def parts(alphas):
            i = np.rint(alphas * 1e4)
            return 10.0 * alphas + 10.0 * (i >= 7050), -20.0 * alphas - 10.0 * (i > 7050)

        assert estimate._grid_argmax(parts) == dense_grid_argmax(parts) == 7050

    def test_ties_go_to_the_first_maximum(self):
        def parts(alphas):
            i = np.rint(alphas * 1e4)
            return 1.0 * (i >= 2050) + 1.0 * (i >= 6050), -1.0 * (i > 2050) - 1.0 * (i > 6050)

        assert estimate._grid_argmax(parts) == dense_grid_argmax(parts) == 2050

    def test_refinement_reaches_a_dense_scan_around_the_grid_point(self):
        # alpha_hat is as good as a 1e-8 scan of the grid point +-1e-4, to 1e-12 of its value
        for seed, s in field_sized_on_the_grid_path():
            parts = grid_loglik(s)
            point = estimate._GRID[estimate._grid_argmax(parts)]
            dense = np.clip(point + 1e-8 * np.arange(-10_000, 10_001), 0.0, estimate._ALPHA_HI)
            best = np.max(np.add(*parts(dense)))
            est = estimate_alpha_mle_gapped(s)
            assert float(np.add(*parts(np.array([est.alpha_hat])))[0]) >= best - 1e-12 * abs(best), seed
            assert est.iterations == 2

    def test_likelihood_flat_to_rounding_gives_its_first_maximum(self):
        # every pair 5 steps apart, 2 repeats among 11: near 0 the likelihood
        # moves by alpha**5, below rounding, so the first maximum is 0 itself
        obs = [v for x in (1, 2, 1, 2, 2, 1, 2, 1, 1, 2, 1, 2) for v in (x, *[MISSING] * 4)][:-4]
        est = estimate_alpha_mle_gapped(series(obs))
        assert (est.alpha_hat, est.converged, est.iterations) == (0.0, False, 2)


@pytest.mark.parametrize("path", ["complete", "gapped", "least squares"])
def test_converged_is_a_plain_bool(path):
    # an np.bool_ flag would make the estimate unwritable as JSON
    model = DarModel.from_pi(0.5, [0.5, 0.5])
    complete = simulate(model, 500, seed=5)
    gapped = simulate_with_missing(MissingDarModel(model, 0.3), 500, seed=5)
    est = {
        "complete": lambda: estimate_alpha_mle(complete, estimate_pi(complete).pi_hat),
        "gapped": lambda: estimate_alpha_mle_gapped(gapped),
        "least squares": lambda: estimate_alpha_ls(complete, estimate_pi(complete).pi_hat),
    }[path]()
    assert type(est.converged) is bool
    assert json.loads(json.dumps(dataclasses.asdict(est)))["converged"] == est.converged


@pytest.mark.parametrize("estimator", [estimate_alpha_mle, estimate_alpha_ls])
def test_pi_hat_errors_name_pi_hat(estimator):
    # the check is shared with DarModel, whose errors say "pi"; the dtype message is pinned in test_dar.py
    s = series([1, 2, 2, 1, 1, 2, 1, 1, 2, 2])
    with pytest.raises(DarcatError, match=r"^pi_hat has length 3, state space has k=2$"):
        estimator(s, pi_hat=[0.5, 0.25, 0.25])
    with pytest.raises(DarcatError, match=r"^pi_hat must sum to 1 within 1e-12, got 1\.2$"):
        estimator(s, pi_hat=[0.6, 0.6])


class TestBeta:
    def test_complete_series(self):
        assert estimate_beta(series([1, 2, 1])) == 0.0

    def test_counts_all_positions(self):
        assert estimate_beta(series([1, MISSING, MISSING, 1])) == 0.5

    def test_field_survey_convention(self):
        # 31 annual positions with 24 observed: the observed fraction is the
        # figure reported in field tables, rounding to 0.774
        obs = [1] * 24 + [MISSING] * 7
        s = series(obs)
        beta = estimate_beta(s)
        assert beta == pytest.approx(7 / 31)
        assert round(1 - beta, 3) == 0.774
