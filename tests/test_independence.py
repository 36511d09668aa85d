import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darcat.core import MISSING, CatSeries, DarcatError, MissingValuePresent, StateSpace
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

    def test_two_state_formula_agrees_with_general(self):
        # Mood's k=2 variance 4*p1*p2*(1-3*p1*p2) equals the general
        # sigma2 formula evaluated at (p1, p2)
        for p1 in np.linspace(0.05, 0.95, 19):
            p2 = 1 - p1
            general = (p1**2 + p2**2) + 2 * (p1**3 + p2**3) - 3 * (p1**2 + p2**2) ** 2
            assert general == pytest.approx(4 * p1 * p2 * (1 - 3 * p1 * p2), abs=1e-12)

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
