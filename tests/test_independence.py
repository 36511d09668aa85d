import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc, ndtr
from scipy.stats import chi2_contingency

from darcat import independence
from darcat.core import MISSING, CatSeries, DarcatError, MissingValuePresent, StateSpace, transition_counts
from darcat.dar import DarModel, simulate
from darcat.independence import (
    DegenerateDistribution,
    UnvisitedState,
    chi_square_test,
    longest_run_power,
    longest_run_test,
    runs_count_test,
    runs_summary,
)


def series(obs, k=3):
    return CatSeries(StateSpace.from_k(k), tuple(obs))


def brute_force_runs(obs):
    """Independent oracle: scan every maximal constant block."""
    blocks = []
    i = 0
    while i < len(obs):
        j = i
        while j < len(obs) and obs[j] == obs[i]:
            j += 1
        blocks.append((obs[i], j - i))
        i = j
    return blocks


class TestRunsSummary:
    def test_hand_count(self):
        rs = runs_summary(series([1, 2, 2, 3, 1]))
        assert rs.total == 4
        assert rs.longest == 2
        assert rs.by_state_and_length == {(1, 1): 2, (2, 2): 1, (3, 1): 1}

    def test_single_run(self):
        rs = runs_summary(series([1, 1, 1, 1], k=2))
        assert rs.total == 1 and rs.longest == 4

    def test_refuses_missing(self):
        with pytest.raises(MissingValuePresent):
            runs_summary(series([1, MISSING, 1]))

    def test_against_brute_force_scanner(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2, 51))
            obs = rng.integers(1, k + 1, n).tolist()
            rs = runs_summary(series(obs, k=k))
            blocks = brute_force_runs(obs)
            assert rs.total == len(blocks)
            assert rs.longest == max(length for _, length in blocks)
            expected = {}
            for state, length in blocks:
                expected[(state, length)] = expected.get((state, length), 0) + 1
            assert rs.by_state_and_length == expected

    @given(st.lists(st.integers(1, 4), min_size=2, max_size=150))
    @settings(max_examples=200, deadline=None)
    def test_length_weighted_counts_identity(self, obs):
        rs = runs_summary(series(obs, k=4))
        for j in range(1, 5):
            mass = sum(i * c for (state, i), c in rs.by_state_and_length.items() if state == j)
            assert mass == obs.count(j)
        assert rs.total == sum(rs.by_state.values())


class TestChiSquare:
    def test_hand_computed_fixture(self):
        # [1,1,2,2] repeated 10 times: count table [[10,10],[9,10]] over 39
        # pairs; the statistic below was evaluated from those integers by
        # hand before this test was written.
        rep = chi_square_test(series([1, 1, 2, 2] * 10, k=2))
        assert rep.statistic == pytest.approx(0.027008310249307662, abs=1e-12)
        assert rep.extras["df"] == 1.0
        assert not rep.reject

    def test_relabel_invariance(self):
        rng = np.random.default_rng(17)
        obs = rng.integers(1, 4, 200).tolist()
        swap = {1: 2, 2: 3, 3: 1}
        a = chi_square_test(series(obs))
        b = chi_square_test(series([swap[v] for v in obs]))
        assert a.statistic == pytest.approx(b.statistic, abs=1e-10)

    def test_unvisited_state(self):
        with pytest.raises(UnvisitedState):
            chi_square_test(series([1, 2, 1, 2]))

    def test_refuses_missing(self):
        with pytest.raises(MissingValuePresent):
            chi_square_test(series([1, MISSING, 2], k=2))

    def test_low_expected_cells_flagged(self):
        rep = chi_square_test(series([1, 1, 1, 1, 1, 1, 1, 1, 2, 1], k=2))
        assert any("5%" in note for note in rep.notes)

    def test_detects_strong_persistence(self):
        s = simulate(DarModel.from_pi(0.8, [1 / 3, 1 / 3, 1 / 3]), 200, seed=1)
        assert chi_square_test(s).reject

    @given(st.integers(2, 6).flatmap(lambda k: st.tuples(st.just(k), st.lists(st.integers(1, k), min_size=3, max_size=301))))
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_contingency_test(self, case):
        # scipy is the oracle, on the same jump table; UnvisitedState exactly when a margin is zero
        k, obs = case
        s = series(obs, k=k)
        counts = transition_counts(s)
        if (counts.sum(axis=0) == 0).any() or (counts.sum(axis=1) == 0).any():
            with pytest.raises(UnvisitedState):
                chi_square_test(s)
            return
        rep = chi_square_test(s)
        c2, p, df, _ = chi2_contingency(counts, correction=False)
        assert rep.statistic == pytest.approx(c2, rel=1e-12, abs=0.0)
        assert rep.extras["df"] == df == (k - 1) ** 2
        # as in test_tail_probabilities_match_scipy_special, tails below 1e-300 are only bounded
        if p > 1e-300:
            assert rep.p_value == pytest.approx(p, rel=1e-12, abs=0.0)
        else:
            assert rep.p_value <= 1e-300


class TestRunsCount:
    def test_null_mean_monte_carlo(self):
        # iid half/half: the run count mean 2*n*pi1*pi2 = n/2
        model = DarModel.from_pi(0.0, [0.5, 0.5])
        total = 0
        for r in range(2000):
            total += runs_summary(simulate(model, 400, seed=60000 + r)).total
        assert total / 2000 == pytest.approx(200, rel=0.01)

    def test_three_state_variance_arithmetic(self):
        rep = runs_count_test(series([1, 2, 3, 1, 2, 3]), pi=np.array([1 / 3, 1 / 3, 1 / 3]))
        sigma2 = rep.extras["null_sd"] ** 2 / rep.extras["n"]
        assert sigma2 == pytest.approx(2 / 9, abs=1e-12)

    def test_degenerate_distribution(self):
        with pytest.raises(DegenerateDistribution):
            runs_count_test(series([1, 1, 1], k=2), pi=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("test", [runs_count_test, longest_run_test])
    @pytest.mark.parametrize("pi", [[np.nan, 0.5], [0.5, np.inf]])
    def test_non_finite_pi_is_refused(self, test, pi):
        with pytest.raises(DarcatError, match=r"pi must be finite, got \[(nan|0.5), (0.5|inf)\]"):
            test(series([1, 2, 2, 1, 2], k=2), pi=np.array(pi))

    @pytest.mark.parametrize("test", [runs_count_test, longest_run_test])
    def test_pi_not_summing_to_one_is_refused(self, test):
        with pytest.raises(DarcatError, match=r"pi must sum to 1 within 1e-12, got 0\.4"):
            test(series([1, 2, 2, 1, 2], k=2), pi=np.array([0.2, 0.2]))

    @pytest.mark.parametrize(
        "test",
        [runs_count_test, longest_run_test, lambda s, pi: longest_run_power(pi, 0.3, len(s))],
        ids=["runs_count_test", "longest_run_test", "longest_run_power"],
    )
    @pytest.mark.parametrize(
        "pi, cause",
        [([[0.5, 0.5]], "pi must be a probability vector of length >= 2"), ([-0.5, 1.5], "nonnegative")],
        ids=["two_dimensional", "negative"],
    )
    def test_pi_that_is_no_probability_vector_is_named(self, test, pi, cause):
        with pytest.raises(DarcatError, match=cause):
            test(series([1, 2, 2, 1, 2], k=2), pi=np.array(pi))

    def test_two_state_formula_agrees_with_general(self):
        # at k=2 the general moments are Mood's mean 2*n*p1*p2 and
        # sd 2*sqrt(n*p1*p2*(1-3*p1*p2))
        s = series([1, 2, 2, 1, 2, 1, 1, 1, 2, 2, 1], k=2)
        n = len(s)
        for p1 in np.linspace(0.05, 0.95, 19):
            prod = p1 * (1 - p1)
            rep = runs_count_test(s, pi=np.array([p1, 1 - p1]))
            assert rep.extras["null_mean"] == pytest.approx(2 * n * prod, rel=1e-12)
            assert rep.extras["null_sd"] == pytest.approx(2 * np.sqrt(n * prod * (1 - 3 * prod)), rel=1e-12)

    @pytest.mark.parametrize(
        "pi, obs",
        [((2**-30, 1 - 2**-30), [1, 2, 2, 1, 2, 2, 2, 1]), ((2**-30, 2**-30, 1 - 2**-29), [1, 2, 3, 3, 1, 3, 2, 3])],
    )
    def test_moments_near_a_certain_state_match_exact_fractions(self, pi, obs):
        # dyadic pi sums to exactly 1, so these Fractions are the exact moments of the floats given
        exact = [Fraction(p) for p in pi]
        assert sum(exact) == 1
        s2, s3 = sum(p**2 for p in exact), sum(p**3 for p in exact)
        n = len(obs)
        rep = runs_count_test(series(obs, k=len(pi)), pi=np.array(pi))
        assert rep.extras["null_mean"] == pytest.approx(float(n * (1 - s2)), rel=1e-12, abs=0)
        assert rep.extras["null_sd"] ** 2 == pytest.approx(float(n * (s2 + 2 * s3 - 3 * s2**2)), rel=1e-12, abs=0)

    def test_estimated_pi_flagged(self):
        rep = runs_count_test(series([1, 2, 1, 2, 1], k=2))
        assert any("estimated" in note for note in rep.notes)

    def test_two_sided_detects_both_directions(self):
        persistent = runs_count_test(series([1] * 10 + [2] * 10, k=2), pi=np.array([0.5, 0.5]))
        alternating = runs_count_test(series([1, 2] * 10, k=2), pi=np.array([0.5, 0.5]))
        assert persistent.statistic < 0 < alternating.statistic
        assert persistent.reject and alternating.reject


class TestLongestRun:
    def test_band_endpoints_frozen(self):
        # endpoints for level 0.05, n = 52, rho = pi_rho = 0.5, evaluated
        # on a calculator before implementation
        s = simulate(DarModel.from_pi(0.0, [0.5, 0.25, 0.25]), 51, seed=6)
        rep = longest_run_test(s, pi=np.array([0.5, 0.25, 0.25]))
        assert rep.extras["n"] == 52.0
        assert rep.extras["band_lower"] == pytest.approx(1.8172570729938418, abs=1e-12)
        assert rep.extras["band_upper"] == pytest.approx(9.004143406273231, abs=1e-12)
        assert rep.extras["rho0"] == 0.5 and rep.extras["pi_rho0"] == 0.5

    def test_tied_maximum_mass(self):
        s = series([1, 2, 1, 2, 2, 1], k=2)
        rep = longest_run_test(s, pi=np.array([0.5, 0.5]))
        assert rep.extras["pi_rho0"] == 1.0

    def test_constant_series_rejects(self):
        rep = longest_run_test(series([1] * 41, k=2), pi=np.array([0.5, 0.5]))
        assert rep.statistic == 40.0
        assert rep.reject

    def test_degenerate_pi(self):
        with pytest.raises(DegenerateDistribution):
            longest_run_test(series([1, 1, 2], k=2), pi=np.array([0.0, 1.0]))

    def test_power_attached_when_alpha_given(self):
        s = simulate(DarModel.from_pi(0.0, [0.4, 0.6]), 100, seed=3)
        rep = longest_run_test(s, pi=np.array([0.4, 0.6]), alpha1=0.5)
        assert rep.power is not None and 0.0 <= rep.power <= 1.0
        assert longest_run_test(s, pi=np.array([0.4, 0.6])).power is None


class TestLongestRunPower:
    def test_size_at_null(self):
        # power converges to the level as the alternative vanishes
        power = longest_run_power(np.array([0.3, 0.7]), 0.001, 200, level=0.05)
        assert power == pytest.approx(0.05, abs=0.02)

    def test_exact_at_zero(self):
        assert longest_run_power(np.array([0.3, 0.7]), 0.0, 200, level=0.05) == pytest.approx(0.05)

    def test_monotone_on_grid(self):
        # asserted on the grid only; past alpha ~0.9 the asymptotic tail
        # formula loses monotonicity as the alternative degenerates
        pi = np.full(4, 0.25)
        powers = [longest_run_power(pi, a, 100, 0.05) for a in np.linspace(0.0, 0.8, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(powers, powers[1:]))

    def test_clamped_to_unit_interval(self):
        assert 0.0 <= longest_run_power(np.array([0.9, 0.1]), 0.99, 10_000) <= 1.0

    def test_non_finite_pi_is_refused(self):
        with pytest.raises(DarcatError, match=r"pi must be finite, got \[nan, 0.5\]"):
            longest_run_power(np.array([np.nan, 0.5]), 0.3, 100)

    def test_pi_not_summing_to_one_is_refused(self):
        with pytest.raises(DarcatError, match=r"pi must sum to 1 within 1e-12, got 0\.4"):
            longest_run_power(np.array([0.2, 0.2]), 0.3, 100)


LEVEL_CHECKED = {
    "chi_square_test": lambda level: chi_square_test(series([1, 2, 2, 1, 2, 1], k=2), level=level),
    "runs_count_test": lambda level: runs_count_test(series([1, 2, 2, 1, 2, 1], k=2), level=level),
    "longest_run_test": lambda level: longest_run_test(series([1, 2, 2, 1, 2, 1], k=2), level=level),
    "longest_run_power": lambda level: longest_run_power(np.array([0.5, 0.5]), 0.3, 100, level=level),
}


@pytest.mark.parametrize("level", [np.nan, 0.0, 1.0, 1.5, -0.05])
@pytest.mark.parametrize("name", sorted(LEVEL_CHECKED))
def test_level_outside_unit_interval_is_refused(name, level):
    with pytest.raises(DarcatError, match=rf"level must lie in \(0, 1\), got {level}"):
        LEVEL_CHECKED[name](level)


@pytest.mark.parametrize("level", [1e-300, 2e-17, 5e-324])
@pytest.mark.parametrize("name", ["longest_run_test", "longest_run_power"])
def test_a_level_too_small_for_the_longest_run_band_is_refused(name, level):
    """1 - level/2 rounds to 1, so the band's upper end would be the log of 0."""
    with pytest.raises(DarcatError, match=rf"^level {level} is too small for the longest-run band"):
        LEVEL_CHECKED[name](level)
    assert math.isfinite(LEVEL_CHECKED["longest_run_power"](2.3e-16))  # 1 - level/2 < 1 here


# every df in 1..49, and df = (k - 1)^2, the chi-square test's df, for k <= 20
TAIL_DFS = sorted(set(range(1, 50)) | {(k - 1) ** 2 for k in range(2, 21)})


def test_tail_probabilities_match_scipy_special():
    # scipy is the oracle: darcat computes both tails with math alone
    c2 = np.linspace(0.0, 1000.0, 1001)
    for df in TAIL_DFS:
        ours = np.array([independence._chi_square_tail(df, float(x)) for x in c2])
        ref = chdtrc(df, c2)
        kept = ref > 1e-300
        assert ours[kept] == pytest.approx(ref[kept], rel=1e-12, abs=0.0), df
        assert np.all(ours[~kept] <= 1e-300), df
    z = np.linspace(0.0, 37.0, 3701)
    ours = np.array([independence._normal_two_sided_tail(float(v)) for v in z])
    assert ours == pytest.approx(2.0 * ndtr(-z), rel=1e-12, abs=0.0)
    assert [independence._normal_two_sided_tail(-v) for v in z.tolist()] == ours.tolist()


@pytest.mark.parametrize("x", [0.0, 1e-300, 1e-8, 0.5, 1.0, 3.84, 50.0, 700.0, 1400.0, 2000.0])
def test_chi_square_tail_closed_forms_at_one_and_two_df(x):
    assert independence._chi_square_tail(2, x) == math.exp(-x / 2.0)
    assert independence._chi_square_tail(1, x) == math.erfc(math.sqrt(x / 2.0))


def test_chi_square_tail_is_a_probability():
    # without the cap, rounding lifts the sum above 1, by up to 1e-13, from df = 52 on
    for df in range(1, 400):
        tails = [independence._chi_square_tail(df, x) for x in np.linspace(0.0, 100.0, 201).tolist()]
        assert tails[0] == 1.0
        assert all(0.0 <= t <= 1.0 for t in tails), df
