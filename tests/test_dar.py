import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darcat import core, dar
from darcat.core import MISSING, CatSeries, DarcatError, StateSpace
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
from darcat.estimate import estimate_alpha_ls, estimate_alpha_mle


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
        with pytest.raises(DarcatError, match="pi must be finite"):
            model(0.5, pi)
    with pytest.raises(DarcatError, match=r"pi must sum to 1 within 1e-12, got 0\.4$"):
        DarModel.from_pi(0.3, [0.2, 0.2])


SERIES = CatSeries(StateSpace.from_k(2), [1, 2, 2, 1, 1, 2])


@pytest.mark.parametrize(
    "name, call",
    [
        ("pi", lambda: DarModel.from_pi(0.5, ["0.25", "0.75"])),
        ("pi", lambda: DarModel(alpha=0.5, pi=np.array(["0.5", "0.5"]), space=StateSpace.from_k(2))),
        ("pi", lambda: DarModel.from_pi(0.5, [Fraction(1, 2), Fraction(1, 2)])),
        ("pi_hat", lambda: estimate_alpha_mle(SERIES, pi_hat=["0.5", "0.5"])),
        ("pi_hat", lambda: estimate_alpha_ls(SERIES, pi_hat=["0.5", "0.5"])),
    ],
    ids=["from_pi", "DarModel", "from_pi_object", "estimate_alpha_mle", "estimate_alpha_ls"],
)
def test_pi_that_is_not_numeric_is_refused_not_parsed(name, call):
    # the error names the argument that was checked
    with pytest.raises(DarcatError, match=rf"^{name} must be an array of real numbers, got dtype "):
        call()


@pytest.mark.parametrize(
    "name, call",
    [
        ("alpha", lambda v: DarModel(alpha=v, pi=np.array([0.5, 0.5]), space=StateSpace.from_k(2))),
        ("alpha", lambda v: DarModel.from_pi(v, [0.5, 0.5])),
        ("beta", lambda v: MissingDarModel(model(0.5, [0.5, 0.5]), v)),
    ],
)
@pytest.mark.parametrize("value", ["0.5", None, np.array(0.5), 0.5j])
def test_alpha_and_beta_that_are_not_real_numbers_are_refused_by_name(name, call, value):
    with pytest.raises(DarcatError, match=rf"^{name} must be a real number, got "):
        call(value)


@pytest.mark.parametrize("alpha", [0, np.float64(0.25), Fraction(1, 4), np.int64(0)])
def test_a_real_alpha_of_any_numeric_type_is_kept_as_a_float(alpha):
    m = DarModel(alpha=alpha, pi=np.array([0.5, 0.5]), space=StateSpace.from_k(2))
    assert type(m.alpha) is float and m.alpha == float(alpha)


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


@pytest.mark.parametrize("n", [10**18, 10**20, np.int64(2**62)], ids=["too_big", "too_many_dimensions", "int64"])
def test_a_length_numpy_refuses_outright_is_refused_before_drawing(n):
    # numpy refuses 2n+1 uniforms of these n outright, "array is too big" or "Maximum allowed dimension exceeded";
    # 2n+1 is counted in Python ints, so an int64 n does not wrap
    m = model(0.5, [0.5, 0.5])
    for draw in (lambda: simulate(m, n, seed=1), lambda: simulate_with_missing(MissingDarModel(m, 0.1), n, seed=1)):
        with pytest.raises(DarcatError, match=rf"^n={n} is too large: numpy cannot allocate"):
            draw()


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


def test_simulate_frees_its_uniforms_before_laying_out_the_path():
    """The uniforms (16 bytes a step) and the path (8) are never held at once: the peak stays below 28 bytes a step."""
    m = model(0.6, [0.3, 0.3, 0.4])
    n = 10**6
    simulate(m, 10, 1)  # nothing first-call-only counts
    tracemalloc.start()
    try:
        simulate(m, n, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * (n + 1), peak / (n + 1)


def test_runs_of_hand_made_uniforms():
    """A redraw that picks the code it replaces starts a run; a row without a redraw is one run."""
    m = model(0.5, [0.5, 0.5])
    u = np.array([
        [0.1, 0.7, 0.2, 0.9, 0.8],  # X_0 = 1, redrawn as 1, then as 2
        [0.6, 0.1, 0.9, 0.2, 0.1],  # X_0 = 2, kept twice
    ])
    starts, codes = dar._runs(m, u)
    assert (starts.tolist(), codes.tolist()) == ([0, 1, 2, 3], [1, 1, 2, 2])
    assert draw_paths(m, u).tolist() == [[1, 1, 2], [2, 2, 2]]
    # the last run of row 0 and the first of row 1 hold the same code, but no jump joins them
    states, jumps = core._run_counts((2, 3), starts, codes, 2)
    assert states.tolist() == [[2, 1], [0, 3]]
    assert jumps.tolist() == [[[1, 1], [0, 0]], [[0, 0], [0, 2]]]


@st.composite
def uniform_batches(draw):
    """A model and its (m, 2n+1) uniforms; a small Dirichlet concentration makes redraws of the same code common."""
    m, n = draw(st.sampled_from([1, 3])), draw(st.sampled_from([1, 2, 40]))
    k = draw(st.sampled_from([2, 3, 10, 20]))
    alpha = draw(st.sampled_from([0.0, 0.5, 1 - 1e-12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pi = rng.dirichlet(np.full(k, draw(st.sampled_from([0.05, 1.0]))))
    return model(alpha, pi), rng.random((m, 2 * n + 1))


@given(batch=uniform_batches())
@settings(max_examples=200, deadline=None)
def test_the_runs_draw_the_recursion_and_count_each_row_as_its_series_does(batch):
    mdl, u = batch
    m, n = u.shape[0], (u.shape[1] - 1) // 2
    paths = draw_paths(mdl, u)
    assert paths.tolist() == [path_reference(mdl, row) for row in u]
    starts, codes = dar._runs(mdl, u)
    if mdl.alpha == 0.0:  # every step redraws
        assert starts.tolist() == list(range(m * (n + 1)))
    if mdl.alpha == 1 - 1e-12:  # no step redraws: each row is one run
        assert starts.tolist() == list(range(0, m * (n + 1), n + 1))
    states, jumps = core._run_counts(paths.shape, starts, codes, mdl.k)
    for r, row in enumerate(paths):
        series = CatSeries(mdl.space, row)
        assert states[r].tolist() == series.state_counts.tolist()
        assert jumps[r].tolist() == series.pairs[1][0].tolist()


def inverse_cdf_reference(pi, u):
    """The binary-search form: the number of cumsum(pi) entries at or below u, capped at k - 1, plus 1."""
    idx = np.searchsorted(np.cumsum(pi), u, side="right")
    return np.minimum(idx, pi.size - 1) + 1


@pytest.mark.parametrize("k", [*range(2, 21), 32, 33, 40, 1000])
def test_inverse_cdf_equals_the_binary_search(k):
    """The counting passes draw what the binary search draws, at every k from 2 to 1000."""
    rng = np.random.default_rng(k)
    zeros = rng.dirichlet(np.ones(k))
    zeros[rng.permutation(k)[: k // 2]] = 0.0  # equal thresholds, and states that cannot be drawn
    pis = [
        rng.dirichlet(np.ones(k)),
        np.full(k, 1.0 / k),
        zeros / zeros.sum(),
        rng.dirichlet(np.ones(k)) * (1.0 - 2.0**-40),  # the cumulative sum ends below 1
    ]
    for pi in pis:
        cum = np.cumsum(pi)
        assert pi is not pis[-1] or cum[-1] < 1.0
        u = np.concatenate([
            rng.random(2000),
            cum,  # u exactly at every boundary
            np.nextafter(cum, 0.0),
            np.nextafter(cum, 1.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ])
        got = dar._inverse_cdf(pi, u[:, None])
        assert got.dtype == np.intp and got.shape == (u.size, 1)
        assert np.array_equal(got.ravel(), inverse_cdf_reference(pi, u))
