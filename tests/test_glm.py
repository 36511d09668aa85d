import numpy as np
import pytest

from darcat import glm
from darcat.core import MISSING, CatSeries, StateSpace
from darcat.dar import DarModel, simulate
from darcat.glm import (
    MAX_ITER,
    NoUsableRows,
    Separation,
    _multinomial_hessian,
    _po_hessian,
    aic_table,
    build_design,
    fit_multinomial,
    fit_proportional_odds,
    multinomial_loglik_grad,
    proportional_odds_loglik_grad,
)


def series(obs, k, ordinal=False):
    return CatSeries(StateSpace.from_k(k, ordinal=ordinal), tuple(obs))


def fd_gradient(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_jacobian(grad, x, h=1e-5):
    """Central differences of a vector-valued gradient, one column per coordinate."""
    return np.column_stack([(grad(x + e) - grad(x - e)) / (2 * h) for e in h * np.eye(x.size)])


def assert_hessian_matches(hessian, grad, x):
    h = hessian(x)
    hf = fd_jacobian(grad, x)
    assert np.max(np.abs(h - h.T)) <= 1e-12 * max(1.0, np.max(np.abs(h)))
    assert np.max(np.abs(h - hf)) <= 1e-6 * max(1.0, np.max(np.abs(hf)))


def hessian_design(k, lag):
    """A design whose responses cover every category, both ends of the scale included."""
    d = build_design(simulate(DarModel.from_pi(0.4, np.full(k, 1.0 / k)), 300, seed=40 + k), lag)
    assert set(d.y.tolist()) == set(range(1, k + 1))
    return d


MNL_TRUE = np.array([[0.5, 0.8, -0.4], [-0.3, 0.2, 0.6]])


def generate_mnl_chain(n, seed):
    """Lag-1 multinomial-logit chain with known coefficients (k=3)."""
    rng = np.random.default_rng(seed)
    y = [1]
    for _ in range(n):
        x = np.array([1.0, 1.0 if y[-1] == 1 else 0.0, 1.0 if y[-1] == 2 else 0.0])
        eta = MNL_TRUE @ x
        p = np.exp(np.append(eta, 0.0))
        p /= p.sum()
        y.append(1 + int(rng.choice(3, p=p)))
    return series(y, k=3)


PO_THETA = np.array([-1.2, 0.1, 1.4])
PO_SLOPES = np.array([0.8, 0.4, -0.5])


def generate_po_chain(n, seed):
    """Lag-1 proportional-odds chain with known cutpoints and slopes (k=4)."""
    rng = np.random.default_rng(seed)
    y = [1]
    for _ in range(n):
        x = np.array([1.0 if y[-1] == j else 0.0 for j in (1, 2, 3)])
        cum = 1.0 / (1.0 + np.exp(-(PO_THETA - x @ PO_SLOPES)))
        p = np.diff(np.concatenate([[0.0], cum, [1.0]]))
        y.append(1 + int(rng.choice(4, p=p)))
    return series(y, k=4, ordinal=True)


class TestBuildDesign:
    def test_lag1_two_states(self):
        d = build_design(series([1, 2, 1, 2], k=2), 1)
        assert d.n_used == 3
        assert d.column_names == ("intercept", "lag1_state1")
        assert d.X.tolist() == [[1.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        assert d.y.tolist() == [2, 1, 2]

    def test_lag0_is_intercept_only(self):
        d = build_design(series([1, 2, 2], k=2), 0)
        assert d.X.shape == (3, 1)

    def test_missing_masks_dependent_rows(self):
        obs = [1, 2, 1, 2, 1, MISSING, 2, 1, 2, 1]
        d = build_design(series(obs, k=2), 2)
        assert set(d.t_index.tolist()) == {2, 3, 4, 8, 9}

    def test_usable_rows_shrink_with_lag(self):
        # 31 positions with one 7-year observation gap: 24 usable at lag 0,
        # 22 at lag 1, 20 at lags 1-2
        obs = [1 + (i % 2) for i in range(31)]
        for i in range(10, 17):
            obs[i] = MISSING
        s = series(obs, k=2)
        assert build_design(s, 0).n_used == 24
        assert build_design(s, 1).n_used == 22
        assert build_design(s, 2).n_used == 20

    def test_no_usable_rows(self):
        with pytest.raises(NoUsableRows):
            build_design(series([MISSING, MISSING, 1], k=2), 1)

    def test_covariate_width(self):
        d = build_design(series(list(range(1, 5)) * 5, k=4), 2)
        assert d.X.shape[1] == 1 + 2 * 3


class TestMultinomial:
    def test_intercept_only_closed_form(self):
        obs = [1] * 30 + [2] * 50 + [3] * 20
        fit = fit_multinomial(build_design(series(obs, k=3), 0))
        counts = np.array([30, 50, 20])
        assert fit.log_pl == pytest.approx(float(np.sum(counts * np.log(counts / 100))), abs=1e-8)
        assert fit.n_params == 2

    def test_gradient_small_at_optimum(self):
        s = generate_mnl_chain(500, seed=8)
        fit = fit_multinomial(build_design(s, 1))
        d = build_design(s, 1)
        _, g = multinomial_loglik_grad(fit.coefficients.ravel(), d.X, d.y, 3)
        assert np.max(np.abs(g)) < 1e-6

    def test_synthetic_recovery(self):
        fit = fit_multinomial(build_design(generate_mnl_chain(5000, seed=23), 1))
        assert np.max(np.abs(fit.coefficients - MNL_TRUE)) < 0.15

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        d = build_design(generate_mnl_chain(300, seed=2), 1)
        for _ in range(10):
            params = rng.normal(0, 0.5, 2 * d.X.shape[1])
            _, g = multinomial_loglik_grad(params, d.X, d.y, 3)
            gf = fd_gradient(lambda v: multinomial_loglik_grad(v, d.X, d.y, 3)[0], params)
            assert np.max(np.abs(g - gf)) <= 1e-4 * max(1.0, np.max(np.abs(gf)))

    def test_fitted_probabilities_sum_to_one(self):
        d = build_design(generate_mnl_chain(400, seed=5), 1)
        fit = fit_multinomial(d)
        eta = d.X @ fit.coefficients.T
        probs = np.exp(eta)
        probs = np.column_stack([probs, np.ones(len(d.y))])
        probs /= probs.sum(axis=1, keepdims=True)
        assert np.all((probs > 0) & (probs < 1))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-10)

    def test_separation_detected(self):
        # the lagged value determines the response exactly
        fit_err = pytest.raises(Separation)
        with fit_err:
            fit_multinomial(build_design(series([1, 2] * 40, k=2), 1))

    def test_aic_identity(self):
        fit = fit_multinomial(build_design(generate_mnl_chain(200, seed=3), 1))
        assert fit.aic == -2.0 * fit.log_pl + 2 * fit.n_params

    @pytest.mark.parametrize("lag", [0, 1, 2])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_hessian_matches_finite_differences(self, k, lag):
        d = hessian_design(k, lag)
        rng = np.random.default_rng(10 * k + lag)
        fit = fit_multinomial(d)
        assert fit.column_names == d.column_names and fit.categories == tuple(range(1, k + 1))
        points = [rng.normal(0, 0.5, (k - 1) * d.X.shape[1]) for _ in range(3)] + [fit.coefficients.ravel()]
        for params in points:
            assert_hessian_matches(
                lambda v: _multinomial_hessian(v, d.X, k),
                lambda v: multinomial_loglik_grad(v, d.X, d.y, k)[1],
                params,
            )

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_saturated_lag1_closed_form(self, k):
        # one free probability per (previous, current) pair: log PL = sum N_jj' log(N_jj' / N_j.)
        rng = np.random.default_rng(k)
        obs = rng.integers(1, k + 1, 400)
        obs[rng.random(400) < 0.15] = MISSING
        d = build_design(series(obs.tolist(), k=k), 1)
        counts = np.zeros((k, k))
        np.add.at(counts, (obs[d.t_index - 1] - 1, d.y - 1), 1)
        assert np.all(counts > 0) and counts.sum() == d.n_used
        expected = float(np.sum(counts * np.log(counts / counts.sum(axis=1, keepdims=True))))
        fit = fit_multinomial(d)
        assert fit.n_params == k * (k - 1)
        assert fit.log_pl == pytest.approx(expected, abs=1e-8)

    def test_beats_nested_intercept_model_on_same_rows(self):
        s = generate_mnl_chain(300, seed=4)
        d1 = build_design(s, 1)
        full = fit_multinomial(d1)
        intercept_design = build_design(s, 0)
        keep = np.isin(intercept_design.t_index, d1.t_index)
        from darcat.glm import Design

        d0 = Design(
            X=intercept_design.X[keep],
            y=intercept_design.y[keep],
            lag=0,
            k=3,
            column_names=("intercept",),
            t_index=intercept_design.t_index[keep],
        )
        reduced = fit_multinomial(d0)
        assert full.log_pl >= reduced.log_pl - 1e-9


class TestProportionalOdds:
    def test_intercept_only_cutpoints(self):
        obs = [1] * 20 + [2] * 30 + [3] * 35 + [4] * 15
        fit = fit_proportional_odds(build_design(series(obs, k=4, ordinal=True), 0))
        cum = np.cumsum([0.2, 0.3, 0.35])
        assert np.allclose(fit.cutpoints, np.log(cum / (1 - cum)), atol=1e-7)
        assert fit.n_params == 3

    def test_binary_reduces_to_logistic(self):
        s = simulate(DarModel.from_pi(0.4, [0.45, 0.55]), 400, seed=19)
        d = build_design(s, 1)
        mnl = fit_multinomial(d)
        po = fit_proportional_odds(d)
        assert po.log_pl == pytest.approx(mnl.log_pl, abs=1e-8)
        assert po.cutpoints[0] == pytest.approx(mnl.coefficients[0, 0], abs=1e-6)
        assert po.coefficients[0] == pytest.approx(-mnl.coefficients[0, 1], abs=1e-6)

    def test_synthetic_recovery(self):
        fit = fit_proportional_odds(build_design(generate_po_chain(5000, seed=47), 1))
        assert np.max(np.abs(fit.coefficients - PO_SLOPES)) < 0.15

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        d = build_design(generate_po_chain(300, seed=6), 1)
        X = d.X[:, 1:]
        for _ in range(10):
            theta = np.sort(rng.normal(0, 1, 3))
            theta += np.arange(3) * 0.05 + 0.02
            params = np.concatenate([theta, rng.normal(0, 0.5, X.shape[1])])
            _, g = proportional_odds_loglik_grad(params, X, d.y, 4)
            gf = fd_gradient(lambda v: proportional_odds_loglik_grad(v, X, d.y, 4)[0], params)
            assert np.max(np.abs(g - gf)) <= 1e-4 * max(1.0, np.max(np.abs(gf)))

    @pytest.mark.parametrize("lag", [0, 1, 2])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_hessian_matches_finite_differences(self, k, lag):
        # y = 1 has no cutpoint below and y = k none above; both occur in every case
        d = hessian_design(k, lag)
        rng = np.random.default_rng(10 * k + lag)
        X = d.X[:, 1:]
        fit = fit_proportional_odds(d)
        assert fit.column_names == d.column_names[1:] and fit.categories == tuple(range(1, k + 1))
        points = [
            np.concatenate([np.sort(rng.normal(0, 1, k - 1)) + 0.05 * np.arange(k - 1), rng.normal(0, 0.5, X.shape[1])])
            for _ in range(3)
        ] + [np.concatenate([fit.cutpoints, fit.coefficients])]
        for params in points:
            assert_hessian_matches(
                lambda v: _po_hessian(v, X, d.y, k),
                lambda v: proportional_odds_loglik_grad(v, X, d.y, k)[1],
                params,
            )

    def test_cutpoints_ordered_and_cumulative_monotone(self):
        fit = fit_proportional_odds(build_design(generate_po_chain(1000, seed=9), 1))
        assert np.all(np.diff(fit.cutpoints) > 0)

    def test_empty_category_collapsed(self):
        obs = [v if v != 3 else 4 for v in generate_po_chain(400, seed=12).obs]
        fit = fit_proportional_odds(build_design(series(obs, k=4, ordinal=True), 1))
        assert fit.categories == (1, 2, 4)
        assert any("collapsed" in note for note in fit.notes)


class TestAicTable:
    def test_parameter_counts_with_unobserved_category(self):
        # 5 declared categories, 4 observed: counts follow the observed set
        rng = np.random.default_rng(20)
        obs = rng.integers(1, 5, 300).tolist()
        s = series(obs, k=5, ordinal=True)
        cat = aic_table(s, "categorical")
        assert [r.n_params for r in cat.rows] == [3, 12, 21]
        order = aic_table(s, "ordinal")
        assert [r.n_params for r in order.rows] == [3, 6, 9]

    def test_minimum_flagged(self):
        s = simulate(DarModel.from_pi(0.8, [0.25, 0.25, 0.25, 0.25]), 300, seed=30)
        table = aic_table(s, "categorical", lags=(0, 1))
        assert table.best_lag == 1
        fitted = [r for r in table.rows if r.aic is not None]
        assert min(fitted, key=lambda r: r.aic).lag == table.best_lag

    def test_failed_cell_becomes_na(self):
        table = aic_table(series([1, 2] * 40, k=2), "categorical", lags=(0, 1))
        by_lag = {r.lag: r for r in table.rows}
        assert by_lag[1].aic is None and by_lag[1].error is not None
        assert by_lag[0].aic is not None
        assert table.best_lag == 0
        assert "NA" in table.render("txt") and "NA" in table.render("csv")

    def test_common_rows_mode_aligns_samples(self):
        obs = [1 + (i % 2) for i in range(40)]
        obs[10] = MISSING
        s = series(obs, k=2)
        table = aic_table(s, "ordinal", lags=(0, 1, 2), common_rows=True)
        sizes = {r.n_used for r in table.rows if r.n_used is not None and r.aic is not None}
        assert len(sizes) == 1

    @pytest.mark.parametrize("family", ["categorical", "ordinal"])
    def test_common_rows_failed_lag_reports_attempted_rows(self, family):
        # the 3 rows usable at lag 2 all have response 1, so every lag fails on those same 3 rows
        s = series([1, 2, MISSING, 1, 1, 1, 1, 1, MISSING, 2], k=2)
        table = aic_table(s, family, lags=(0, 1, 2), common_rows=True)
        assert [(r.lag, r.n_used, r.aic) for r in table.rows] == [(0, 3, None), (1, 3, None), (2, 3, None)]
        assert all("fewer than 2" in r.error for r in table.rows)
        per_lag = aic_table(s, family, lags=(0, 1, 2))
        assert [r.n_used for r in per_lag.rows] == [8, 5, 3]

    def test_common_rows_empty_common_set(self):
        # nothing is usable at lag 2, so no row is attempted at any lag
        s = series([1, 2, MISSING, 1, 2, MISSING, 2, 1], k=2)
        table = aic_table(s, "categorical", lags=(0, 1, 2), common_rows=True)
        assert [(r.n_used, r.aic) for r in table.rows] == [(0, None), (0, None), (None, None)]
        assert table.rows[0].error == "no rows in the common usable set"
        assert isinstance(table.rows[2].error, str) and table.best_lag is None

    @pytest.mark.parametrize("family", ["categorical", "ordinal"])
    @pytest.mark.parametrize("common_rows", [False, True])
    def test_every_fit_reports_its_newton_steps(self, monkeypatch, family, common_rows):
        fits = []
        fitter = glm._FITTERS[family]

        def recording(design):
            fits.append(fitter(design))
            return fits[-1]

        monkeypatch.setitem(glm._FITTERS, family, recording)
        obs = simulate(DarModel.from_pi(0.5, [0.2, 0.3, 0.5]), 400, seed=31).obs.copy()
        obs[np.random.default_rng(31).random(obs.size) < 0.1] = MISSING
        table = aic_table(series(obs.tolist(), k=3, ordinal=True), family, common_rows=common_rows)
        assert len(fits) == 3 and all(r.aic is not None for r in table.rows)
        for fit in fits:
            if family == "ordinal" and fit.lag == 0:
                # the cutpoints start at the empirical cumulative logits, the closed-form optimum
                assert fit.iterations == 0
            else:
                assert 1 <= fit.iterations <= MAX_ITER

    def test_unknown_family_rejected(self):
        with pytest.raises(Exception):
            aic_table(series([1, 2, 1, 2], k=2), "poisson")
