import numpy as np
import pytest

from darcat.core import MISSING, DarcatError
from darcat.dar import (
    DarModel,
    MissingDarModel,
    augmented_transition_matrix,
    autocorrelation,
    draw_paths,
    simulate,
    simulate_with_missing,
    transition_matrix,
    transition_matrix_power,
)


def model(alpha, pi):
    return DarModel.from_pi(alpha, np.asarray(pi, dtype=float))


def test_model_validation():
    with pytest.raises(DarcatError):
        model(1.0, [0.5, 0.5])
    with pytest.raises(DarcatError):
        model(-0.1, [0.5, 0.5])
    with pytest.raises(DarcatError):
        model(0.5, [0.6, 0.6])
    with pytest.raises(DarcatError):
        MissingDarModel(model(0.5, [0.5, 0.5]), 1.0)
    for pi in ([np.nan, 0.5], [np.inf, 0.5], [0.5, 0.5, -np.inf]):
        with pytest.raises(DarcatError, match="pi components must be finite"):
            model(0.5, pi)


def test_transition_matrix_iid_case():
    p = transition_matrix(model(0.0, [0.3, 0.7]))
    assert np.allclose(p, [[0.3, 0.7], [0.3, 0.7]])


def test_transition_matrix_formula():
    p = transition_matrix(model(0.5, [0.5, 0.5]))
    assert np.allclose(p, [[0.75, 0.25], [0.25, 0.75]])


def test_diagonal_dominance_identity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        pi = rng.dirichlet(np.ones(k))
        alpha = float(rng.uniform(0, 0.999))
        p = transition_matrix(model(alpha, pi))
        assert np.allclose(np.diag(p) - pi, alpha * (1 - pi), atol=1e-12)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        # stationarity
        assert np.allclose(pi @ p, pi, atol=1e-12)


def test_power_h1_and_iid():
    m = model(0.4, [0.2, 0.8])
    assert np.array_equal(transition_matrix_power(m, 1), transition_matrix(m))
    m0 = model(0.0, [0.2, 0.8])
    assert np.allclose(transition_matrix_power(m0, 9), transition_matrix(m0))


def test_power_matches_matrix_product():
    m = model(0.5, [0.5, 0.5])
    assert np.allclose(transition_matrix_power(m, 2), [[0.625, 0.375], [0.375, 0.625]])
    rng = np.random.default_rng(11)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        mm = model(float(rng.uniform(0, 0.99)), rng.dirichlet(np.ones(k)))
        p = transition_matrix(mm)
        for h in range(1, 21):
            assert np.allclose(transition_matrix_power(mm, h), np.linalg.matrix_power(p, h), atol=1e-10)


def test_autocorrelation():
    m = model(0.5, [0.5, 0.5])
    assert autocorrelation(m, 0) == 1.0
    assert autocorrelation(m, 3) == pytest.approx(0.125)
    assert autocorrelation(model(0.0, [0.5, 0.5]), 4) == 0.0


def test_simulate_deterministic_given_seed():
    m = model(0.3, [0.2, 0.3, 0.5])
    assert np.array_equal(simulate(m, 200, seed=9).obs, simulate(m, 200, seed=9).obs)
    assert not np.array_equal(simulate(m, 200, seed=9).obs, simulate(m, 200, seed=10).obs)


def test_simulate_iid_frequencies():
    m = model(0.0, [0.3, 0.7])
    s = simulate(m, 100_000, seed=21)
    freq = np.bincount(s.obs - 1, minlength=2) / len(s)
    assert np.allclose(freq, [0.3, 0.7], atol=0.01)


def test_simulate_marginal_frequencies_persistent():
    m = model(0.5, [0.5, 0.5])
    s = simulate(m, 100_000, seed=22)
    x = s.obs
    freq = np.bincount(x - 1, minlength=2) / x.size
    assert np.allclose(freq, [0.5, 0.5], atol=0.01)
    same = np.mean(x[1:] == x[:-1])
    assert same == pytest.approx(0.75, abs=0.01)


def test_simulate_near_absorbing():
    s = simulate(model(0.999, [0.25, 0.25, 0.25, 0.25]), 50, seed=4)
    changes = int(np.sum(np.diff(s.obs) != 0))
    assert changes <= 3


def test_missing_beta_zero_bit_identical():
    m = model(0.6, [0.4, 0.6])
    base = simulate(m, 500, seed=77)
    masked = simulate_with_missing(MissingDarModel(m, 0.0), 500, seed=77)
    assert np.array_equal(masked.obs, base.obs)


def test_missing_fraction():
    mm = MissingDarModel(model(0.2, [0.5, 0.5]), 0.9)
    s = simulate_with_missing(mm, 10_000, seed=31)
    assert s.n_missing / len(s) == pytest.approx(0.9, abs=0.02)


def test_missing_observed_values_keep_marginal():
    mm = MissingDarModel(model(0.0, [0.3, 0.7]), 0.5)
    s = simulate_with_missing(mm, 100_000, seed=13)
    seen = s.obs[s.obs != MISSING]
    freq = np.bincount(seen - 1, minlength=2) / seen.size
    assert np.allclose(freq, [0.3, 0.7], atol=0.01)


def test_augmented_matrix_beta_zero():
    m = model(0.5, [0.5, 0.5])
    aug = augmented_transition_matrix(MissingDarModel(m, 0.0))
    assert np.allclose(aug[1:, 1:], transition_matrix(m))
    assert np.allclose(aug[:, 0], 0.0)


def test_augmented_matrix_thinning_example():
    aug = augmented_transition_matrix(MissingDarModel(model(0.0, [0.5, 0.5]), 0.5))
    assert np.allclose(aug, [[0.5, 0.25, 0.25]] * 3)


def test_augmented_matrix_rows_sum_to_one():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        mm = MissingDarModel(
            model(float(rng.uniform(0, 0.99)), rng.dirichlet(np.ones(k))),
            float(rng.uniform(0, 0.99)),
        )
        aug = augmented_transition_matrix(mm)
        assert np.allclose(aug.sum(axis=1), 1.0, atol=1e-12)
        assert aug.shape == (k + 1, k + 1)


def test_simulated_series_has_no_missing_without_beta():
    s = simulate(model(0.5, [0.5, 0.5]), 1000, seed=1)
    assert MISSING not in s.obs


def path_reference(model, u):
    """Step-by-step DAR(1) path from one row of 2n+1 uniforms."""
    def code(v):
        return min(int(np.searchsorted(np.cumsum(model.pi), v, side="right")), model.k - 1) + 1

    path = [code(u[0])]
    for t in range(1, (len(u) - 1) // 2 + 1):
        path.append(path[-1] if u[2 * t - 1] < model.alpha else code(u[2 * t]))
    return path


@pytest.mark.parametrize("alpha, pi", [(0.0, [0.5, 0.5]), (0.6, [0.2, 0.3, 0.5]), (0.95, [0.1] * 10)])
def test_draw_paths_rows_follow_the_recursion(alpha, pi):
    m = model(alpha, pi)
    u = np.random.default_rng(4).random((5, 2 * 40 + 1))
    paths = draw_paths(m, u)
    assert paths.shape == (5, 41)
    assert [path_reference(m, row) for row in u] == paths.tolist()
    # a row does not depend on the others, and simulate is a batch of one
    assert draw_paths(m, u[2:3]).tolist() == paths[2:3].tolist()
    assert np.array_equal(simulate(m, 40, 9).obs, draw_paths(m, np.random.default_rng(9).random((1, 81)))[0])
