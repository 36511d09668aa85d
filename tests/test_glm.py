from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from darcat import cli, glm, render
from darcat.core import MISSING, CatSeries, DarcatError, StateSpace
from darcat.dar import DarModel, simulate
from darcat.glm import (
    MAX_COEF,
    MAX_ITER,
    Design,
    NoUsableRows,
    Separation,
    SingularHessian,
    aic_table,
    aic_tables,
    build_design,
    fit_multinomial,
    fit_proportional_odds,
    multinomial_loglik_grad,
    proportional_odds_loglik_grad,
)


def series(obs, k):
    return CatSeries(StateSpace.from_k(k), tuple(obs))


def comparable(table):
    """The table with each fit's arrays as lists, so that two tables compare with == field by field."""

    def listed(fit):
        if fit is None:
            return None
        cutpoints = None if fit.cutpoints is None else fit.cutpoints.tolist()
        return replace(fit, coefficients=fit.coefficients.tolist(), cutpoints=cutpoints)

    return replace(table, rows=tuple(replace(r, fit=listed(r.fit)) for r in table.rows))


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


def mnl_hessian(X, counts, params):
    """:func:`glm._multinomial_hessian` at ``params`` on the patterns ``X`` with their response ``counts``."""
    q = counts.shape[1] - 1
    _, _, probs = glm._multinomial_probs(params, X, np.zeros((X.shape[1], q + 1)))
    weighted = probs[:, :q] * counts.sum(axis=1)[:, None]
    return glm._multinomial_hessian(probs, weighted, X[:, :, None] * X[:, None, :], 1.0 - np.eye(q + 1, q))


def po_hessian(X, y, k_eff, counts, params):
    """:func:`glm._po_hessian` at ``params`` on the cells ``X``, ``y`` with ``counts``, D_hi and D_lo built row by row."""
    q = k_eff - 1
    d_hi, d_lo = np.zeros((2, y.size, q + X.shape[1]))
    for c, response in enumerate(y.tolist()):
        if response <= q:  # the cutpoint above y = k_eff sits at +inf
            d_hi[c, response - 1] = 1.0
        if response >= 2:  # the one below y = 1 at -inf
            d_lo[c, response - 2] = 1.0
    d_hi[:, q:] = d_lo[:, q:] = -X
    theta = np.concatenate([[-np.inf], np.zeros(q), [np.inf]])
    _, f, fp = glm._po_pieces(params, X, np.array([y, y - 1]), theta)
    return glm._po_hessian(np.concatenate([d_hi, d_lo]), np.concatenate([counts, -counts]), f, fp)


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
    return series(y, k=4)


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

    @pytest.mark.parametrize("lag, span", [(2, 1), (1, 0), (-1, 0), (-1, 2), (-2, -1)])
    def test_a_negative_lag_or_a_span_below_the_lag_is_refused_by_name(self, lag, span):
        with pytest.raises(DarcatError, match=rf"^a design needs 0 <= lag <= span, got lag {lag} and span {span}$"):
            Design(series([1, 2, 1, 1, 2, 2, 1, 2], k=2), lag, span)


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
                lambda v: mnl_hessian(d.X, np.eye(k)[d.y - 1], v),
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
        # the count matrix is that tally: a row per previous state, a column per current one
        X, N, *_ = d._prepared
        assert np.array_equal(N, counts)
        # the design is saturated, so the fit starts at its optimum: the one Newton reaches from zero
        params, ll, steps = glm._newton(glm._multinomial_evaluation(X, N), np.zeros((k - 1) * X.shape[1]))
        assert fit.iterations == 0 < steps
        assert np.max(np.abs(fit.coefficients.ravel() - params)) < 1e-8 and fit.log_pl == pytest.approx(ll, abs=1e-10)

    def test_a_design_with_an_empty_cell_is_not_saturated(self, monkeypatch):
        obs = np.tile([1, 1, 2, 2, 3, 3, 1, 3, 2, 3], 8)  # every (lag-1 state, response) pair but (2, 1)
        d = build_design(series(obs.tolist(), k=3), 1)
        X, counts, *_ = d._prepared
        assert d.table[1, 0] == 0 and np.count_nonzero(d.table) == 8
        # as many patterns as columns, but one zero count
        assert counts.shape == (3, 3) and X.shape[1] == 3 and np.count_nonzero(counts) == 8
        starts = []
        monkeypatch.setattr(glm, "_newton", lambda evaluate, params: starts.append(params) or (params, 0.0, 0))
        fit_multinomial(d)
        assert starts[0].tolist() == [0.0] * 6  # such a fit has no maximum; it starts at zero, as it always has

    def test_a_saturated_optimum_beyond_the_bound_is_separation(self, monkeypatch):
        # '1' * a + '2' * b + '1' is saturated at lag 1, and its optimum has the lag-1 slope
        # log(a - 1) + log(b - 1) = 30.4 > MAX_COEF; its window counts stand in for its 8e6 values
        a = b = 4_000_000
        s = series([1, 2, 1], k=2)
        s._windows[1] = np.array([[a - 1, 1], [1, b - 1]])
        d = build_design(s, 1)
        X, counts, *_ = d._prepared
        starts, newton = [], glm._newton
        monkeypatch.setattr(glm, "_newton", lambda evaluate, params: newton(evaluate, starts.append(params) or params))
        message = rf"^coefficient magnitude exceeded {MAX_COEF}$"
        with pytest.raises(Separation, match=message):
            fit_multinomial(d)
        assert np.abs(starts[0]).max() == pytest.approx(np.log(a - 1) + np.log(b - 1))
        with pytest.raises(Separation, match=message):  # Newton from zero passes the bound on its way there
            newton(glm._multinomial_evaluation(X, counts), np.zeros(2))
        (row,) = aic_table(s, "categorical", lags=(1,)).rows
        assert row.fit is None and row.n_used == a + b and row.error == f"coefficient magnitude exceeded {MAX_COEF}"

    def test_beats_nested_intercept_model_on_same_rows(self):
        s = generate_mnl_chain(300, seed=4)
        d1 = build_design(s, 1)
        full = fit_multinomial(d1)
        d0 = Design(s, lag=0, span=1)  # the intercept-only model on the lag-1 rows
        assert d0.t_index.tolist() == d1.t_index.tolist() and d0.n_used == d1.n_used
        reduced = fit_multinomial(d0)
        assert full.log_pl >= reduced.log_pl - 1e-9


class TestProportionalOdds:
    def test_intercept_only_cutpoints(self):
        obs = [1] * 20 + [2] * 30 + [3] * 35 + [4] * 15
        fit = fit_proportional_odds(build_design(series(obs, k=4), 0))
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
                lambda v: po_hessian(X, d.y, k, np.ones(d.n_used), v),
                lambda v: proportional_odds_loglik_grad(v, X, d.y, k)[1],
                params,
            )

    @pytest.mark.parametrize("lag", [0, 1, 2])
    def test_cutpoints_ordered_and_cumulative_monotone(self, lag):
        fit = fit_proportional_odds(build_design(generate_po_chain(1000, seed=9), lag))
        assert np.all(np.diff(fit.cutpoints) > 0)

    @pytest.mark.parametrize("lag", [0, 1, 2])
    @pytest.mark.parametrize("k, gone", [(3, None), (4, None), (5, None), (5, 3)])
    def test_cutpoints_out_of_order_have_no_likelihood(self, k, gone, lag):
        # the fit's only guard on the order: every kept category has a cell, and F is monotone
        # (k = 2 has a single cutpoint, so nothing to order)
        obs = hessian_design(k, 0).y
        if gone is not None:
            obs = np.where(obs == gone, gone + 1, obs)
        d = build_design(series(obs, k), lag)
        X, counts, categories, *_ = d._prepared
        q = len(categories) - 1
        response, pattern = np.nonzero(counts.T)  # the fit's cells: the non-zero counts
        assert set(response.tolist()) == set(range(q + 1)) and q == k - 1 - (gone is not None)
        evaluate = glm._po_evaluation(X[pattern, 1:], response + 1, q + 1, counts.T[response, pattern])
        rng = np.random.default_rng(100 * k + lag)
        for _ in range(50):
            theta = np.sort(rng.normal(0, 2, q)) + 0.1 * np.arange(q)
            slopes = rng.normal(0, 1, X.shape[1] - 1)
            assert np.isfinite(evaluate(np.concatenate([theta, slopes]))[0])
            assert evaluate(np.concatenate([theta[::-1], slopes]))[0] == -np.inf
            j = rng.integers(1, q)
            theta[j] = theta[j - 1] - rng.choice([0.0, 1e-12, 1e-3, rng.exponential(2.0)])
            assert evaluate(np.concatenate([theta, slopes]))[0] == -np.inf

    def test_empty_category_collapsed(self):
        obs = [v if v != 3 else 4 for v in generate_po_chain(400, seed=12).obs]
        fit = fit_proportional_odds(build_design(series(obs, k=4), 1))
        assert fit.categories == (1, 2, 4)
        assert any("collapsed" in note for note in fit.notes)


class TestAicTable:
    def test_parameter_counts_with_unobserved_category(self):
        # 5 declared categories, 4 observed: counts follow the observed set
        rng = np.random.default_rng(20)
        obs = rng.integers(1, 5, 300).tolist()
        s = series(obs, k=5)
        cat = aic_table(s, "categorical")
        assert [r.fit.n_params for r in cat.rows] == [3, 12, 21]
        order = aic_table(s, "ordinal")
        assert [r.fit.n_params for r in order.rows] == [3, 6, 9]

    def test_minimum_flagged(self):
        s = simulate(DarModel.from_pi(0.8, [0.25, 0.25, 0.25, 0.25]), 300, seed=30)
        table = aic_table(s, "categorical", lags=(0, 1))
        assert table.best_lag == 1
        fitted = [r for r in table.rows if r.fit is not None]
        assert min(fitted, key=lambda r: r.fit.aic).lag == table.best_lag

    def test_failed_cell_becomes_na(self):
        table = aic_table(series([1, 2] * 40, k=2), "categorical", lags=(0, 1))
        by_lag = {r.lag: r for r in table.rows}
        assert by_lag[1].fit is None and by_lag[1].error is not None
        assert by_lag[0].fit is not None and by_lag[0].error is None
        assert table.best_lag == 0
        assert "NA" in render.aic_table(table, "txt") and "NA" in render.aic_table(table, "csv")

    def test_common_rows_mode_aligns_samples(self):
        obs = [1 + (i % 2) for i in range(40)]
        obs[10] = MISSING
        s = series(obs, k=2)
        table = aic_table(s, "ordinal", lags=(0, 1, 2), common_rows=True)
        sizes = {r.n_used for r in table.rows if r.n_used is not None and r.fit is not None}
        assert len(sizes) == 1

    @pytest.mark.parametrize("family", ["categorical", "ordinal"])
    def test_common_rows_failed_lag_reports_attempted_rows(self, family):
        # the 3 rows usable at lag 2 all have response 1, so every lag fails on those same 3 rows
        s = series([1, 2, MISSING, 1, 1, 1, 1, 1, MISSING, 2], k=2)
        table = aic_table(s, family, lags=(0, 1, 2), common_rows=True)
        assert [(r.lag, r.n_used, r.fit) for r in table.rows] == [(0, 3, None), (1, 3, None), (2, 3, None)]
        assert all("fewer than 2" in r.error for r in table.rows)
        per_lag = aic_table(s, family, lags=(0, 1, 2))
        assert [r.n_used for r in per_lag.rows] == [8, 5, 3]

    def test_common_rows_empty_common_set(self):
        # nothing is usable at lag 2, so no row is attempted at any lag
        s = series([1, 2, MISSING, 1, 2, MISSING, 2, 1], k=2)
        table = aic_table(s, "categorical", lags=(0, 1, 2), common_rows=True)
        assert [(r.n_used, r.fit) for r in table.rows] == [(0, None), (0, None), (None, None)]
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
        s = series(obs.tolist(), k=3)
        table = aic_table(s, family, common_rows=common_rows)
        assert len(fits) == 3
        # each row holds the very fit the fitter returned for its lag, made on the rows it counts
        by_lag = sorted(fits, key=lambda fit: fit.lag)
        assert all(r.fit is fit and r.n_used == fit.n_used for r, fit in zip(table.rows, by_lag, strict=True))
        # every (lag-1 state, response) cell is seen, so the lag-1 multinomial design is saturated
        assert np.all(Design(s, 1, 2 if common_rows else 1).table > 0)
        for fit in fits:
            if fit.lag == 0 or (family, fit.lag) == ("categorical", 1):
                # each starts at its closed-form optimum: the empirical cumulative logits of the
                # intercept-only model, or the saturated multinomial's log odds log(N_pj / N_p,ref)
                assert fit.iterations == 0
            else:
                assert 1 <= fit.iterations <= MAX_ITER

    def test_rows_keep_each_fits_steps_and_notes(self):
        obs = [v if v != 3 else 4 for v in generate_po_chain(400, seed=12).obs]
        table = aic_table(series(obs, k=4), "ordinal", lags=(0, 1))
        fit = fit_proportional_odds(build_design(series(obs, k=4), 1))
        row = table.rows[1]
        assert row.fit.iterations == fit.iterations >= 1 and row.fit.notes == fit.notes
        assert any("collapsed" in note for note in row.fit.notes)

    def test_unknown_family_rejected(self):
        with pytest.raises(Exception):
            aic_table(series([1, 2, 1, 2], k=2), "poisson")


class TestSharedDesign:
    @given(
        k=st.integers(2, 5),
        share=st.floats(0.0, 0.5),
        lags=st.sets(st.integers(0, 2), min_size=1),
        common_rows=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_families_on_one_design_equal_one_family_tables(self, k, share, lags, common_rows, seed):
        """Every row field, each fit's included, NA pattern and best lag as when each family builds its own designs."""
        rng = np.random.default_rng(seed)
        obs = rng.integers(1, k + 1, int(rng.integers(3, 200)))
        obs[rng.random(obs.size) < share] = MISSING
        s = series(obs.tolist(), k=k)
        lags = tuple(lags)
        got = aic_tables(s, ("categorical", "ordinal"), lags=lags, common_rows=common_rows)
        want = tuple(aic_table(s, family, lags=lags, common_rows=common_rows) for family in ("categorical", "ordinal"))
        assert tuple(map(comparable, got)) == tuple(map(comparable, want))

    @pytest.mark.parametrize("lags", [(), (1, 3), (-1,), (0, 2, 5)])
    @pytest.mark.parametrize("common_rows", [False, True])
    def test_a_bad_lag_set_is_refused_before_any_fit(self, monkeypatch, lags, common_rows):
        monkeypatch.setattr(glm, "build_design", None)  # nothing is built
        with pytest.raises(DarcatError, match=r"^lags must be one or more of 0, 1 and 2, got \("):
            aic_tables(series([1, 2, 1, 2, 2, 1], k=2), ("categorical",), lags=lags, common_rows=common_rows)

    @pytest.mark.parametrize("common_rows", [[], ["--common-rows"]])
    def test_fit_glm_builds_and_prepares_each_design_once(self, monkeypatch, tmp_path, capsys, common_rows):
        builds, prepared = [], []
        build, prepare = glm.build_design, glm._prepare

        def counting_build(series, lag):
            builds.append(lag)
            return build(series, lag)

        def counting_prepare(design):
            prepared.append(design)
            return prepare(design)

        monkeypatch.setattr(glm, "build_design", counting_build)
        monkeypatch.setattr(glm, "_prepare", counting_prepare)
        obs = simulate(DarModel.from_pi(0.5, [0.2, 0.3, 0.5]), 300, seed=33).obs.copy()
        obs[np.random.default_rng(33).random(obs.size) < 0.1] = MISSING
        (tmp_path / "states.txt").write_text("1\n2\n3\n")
        (tmp_path / "s.csv").write_text("t,value\n" + "".join(f"{t},{'NA' if v == MISSING else v}\n" for t, v in enumerate(obs)))
        argv = ["fit-glm", str(tmp_path / "s.csv"), "--states", str(tmp_path / "states.txt"), "--family", "both"]
        assert cli.main(argv + common_rows) == 0
        assert "NA" not in capsys.readouterr().out
        assert sorted(builds) == [0, 1, 2]
        assert len(prepared) == len({id(d) for d in prepared}) == 3

    @pytest.mark.parametrize("common_rows", [False, True])
    def test_aic_tables_never_reads_the_row_view(self, monkeypatch, tmp_path, capsys, common_rows):
        def refuse(design):
            raise AssertionError("the row view was read")

        monkeypatch.setattr(Design, "_rows", property(refuse))
        obs = simulate(DarModel.from_pi(0.5, [0.2, 0.3, 0.5]), 300, seed=34).obs.copy()
        obs[np.random.default_rng(34).random(obs.size) < 0.1] = MISSING
        s = series(obs.tolist(), k=3)
        tables = aic_tables(s, ("categorical", "ordinal"), common_rows=common_rows)
        assert all(r.fit is not None for table in tables for r in table.rows)
        with pytest.raises(AssertionError, match="row view"):
            build_design(s, 1).X
        (tmp_path / "states.txt").write_text("1\n2\n3\n")
        (tmp_path / "s.csv").write_text("t,value\n" + "".join(f"{t},{'NA' if v == MISSING else v}\n" for t, v in enumerate(obs)))
        argv = ["fit-glm", str(tmp_path / "s.csv"), "--states", str(tmp_path / "states.txt"), "--family", "both"]
        assert cli.main(argv + ["--common-rows"] * common_rows) == 0
        assert "NA" not in capsys.readouterr().out

    def test_exactly_singular_hessian_keeps_its_error_text(self):
        def evaluate(params):
            grad = np.array([1.0, 0.0])
            return 0.0, grad, lambda: np.linalg.solve(np.ones((2, 2)), -grad)

        with pytest.raises(SingularHessian, match="^Singular matrix$"):
            glm._newton(evaluate, np.zeros(2))

    def test_a_step_without_likelihood_is_halved_away(self):
        # the Hessian is off by a factor 2, so the full step overshoots to x = 2, where the likelihood is 0
        seen = []

        def evaluate(params):
            seen.append(float(params[0]))
            if params[0] > 1.5:
                return -np.inf, np.zeros(1), None
            grad = np.array([-2.0 * (params[0] - 1.0)])
            return -((params[0] - 1.0) ** 2), grad, lambda: np.linalg.solve(np.array([[-1.0]]), -grad)

        params, ll, steps = glm._newton(evaluate, np.zeros(1))
        assert (params.tolist(), ll, steps) == ([1.0], 0.0, 1)
        assert seen == [0.0, 2.0, 1.0]

    def test_a_line_search_that_finds_no_rise_is_named(self):
        # every step away from 0 lowers the likelihood, while the gradient says it should rise
        def evaluate(params):
            return (0.0 if params[0] == 0.0 else -1.0), np.array([0.25]), lambda: np.array([0.25])

        with pytest.raises(
            SingularHessian,
            match=r"^Newton stalled: the line search of step 1 found no rise in 40 halvings; max \|gradient\| 0\.25$",
        ):
            glm._newton(evaluate, np.zeros(1))

    def test_a_fall_within_the_rounding_of_a_large_likelihood_is_no_fall(self):
        # |ll| = 3e6, as at n = 10^6; the full step lands one rounding step (4.7e-10) lower, where the gradient is 0
        ll0, ll1 = -3e6, float(np.nextafter(-3e6, -np.inf))

        def evaluate(params):
            if params[0] == 0.0:
                return ll0, np.array([1.0]), lambda: np.array([1.0])
            return ll1, np.array([0.0]), lambda: np.array([0.0])

        params, ll, steps = glm._newton(evaluate, np.zeros(1))
        assert (params.tolist(), ll, steps) == ([1.0], ll1, 1)

    def test_a_long_ordinal_fit_is_not_stalled_by_rounding(self):
        # at n = 10^6, k = 20, the lag-1 line search once refused steps that lost only the rounding of the sum
        s = simulate(DarModel.from_pi(0.5, np.full(20, 0.05)), 10**6, seed=20)
        obs = s.obs.copy()
        obs[np.random.default_rng(20).random(obs.size) < 0.01] = MISSING
        fit = fit_proportional_odds(build_design(CatSeries(s.space, obs), 1))
        assert fit.iterations == 5
        assert fit.log_pl == pytest.approx(-2758907.048, abs=1e-3)

    def test_running_out_of_steps_is_named(self):
        # the Hessian is a million times too large, so each step goes 2e-6 of the way to the maximum at 1
        def evaluate(params):
            x = params[0]
            grad = np.array([-2.0 * (x - 1.0)])
            return -((x - 1.0) ** 2), grad, lambda: np.linalg.solve(np.array([[-2e6]]), -grad)

        with pytest.raises(SingularHessian, match=rf"^Newton stalled: no convergence in {MAX_ITER} Newton steps; ") as err:
            glm._newton(evaluate, np.zeros(1))
        assert str(err.value).endswith("max |gradient| 2")

    def test_a_stop_close_enough_to_the_optimum_is_a_fit(self):
        # the same path, but the gradient is already below 1e-5 when the steps run out
        def evaluate(params):
            x = params[0]
            grad = np.array([-2.0 * (x - 1.0)])
            return -((x - 1.0) ** 2), grad, lambda: np.linalg.solve(np.array([[-2e6]]), -grad)

        params, _, steps = glm._newton(evaluate, np.array([1.0 - 4e-6]))
        assert steps == MAX_ITER and abs(params[0] - 1.0) < 4e-6


def markov_chain(k, n, seed, forbid=()):
    """n + 1 states of a chain with Dirichlet transition rows that never moves from a to b for (a, b) in ``forbid``."""
    rng = np.random.default_rng(seed)
    trans = rng.dirichlet(np.ones(k), size=k)
    for a, b in forbid:
        trans[a - 1, b - 1] = 0.0
        trans[a - 1] /= trans[a - 1].sum()
    obs = [int(rng.integers(1, k + 1))]
    for u in rng.random(n):
        obs.append(1 + min(int(np.searchsorted(np.cumsum(trans[obs[-1] - 1]), u, side="right")), k - 1))
    return np.array(obs)


class TestSquareStep:
    """On a square multinomial design the Newton step is X^-1 times the step in eta: the solve's step, with no Hessian."""

    @staticmethod
    def assert_step_is_the_solve(X, counts, params):
        """The formula's step equals ``np.linalg.solve`` on the Hessian within 1e-9 relative.

        A solve is good to about cond(H) * 1e-16 only, and on a walk toward
        separation cond(H) passes 1e8, so where 1e-12 cond(H) is the wider
        bound, the steps are held to that.
        """
        _, grad, step = glm._multinomial_evaluation(X, counts)(params)
        hessian = mnl_hessian(X, counts, params)
        closed, solved = step(), np.linalg.solve(hessian, -grad)
        tolerance = max(1e-9, 1e-12 * np.linalg.cond(hessian))
        assert np.max(np.abs(closed - solved)) <= tolerance * max(1.0, np.max(np.abs(solved)))

    def assert_along_the_walk(self, X, counts):
        """The step at every point Newton steps from on its way from zero; returns how many there were."""
        points = []
        evaluate = glm._multinomial_evaluation(X, counts)

        def recording(params):
            ll, grad, step = evaluate(params)
            return ll, grad, lambda: points.append(params) or step()

        try:
            glm._newton(recording, np.zeros((counts.shape[1] - 1) * X.shape[1]))
        except DarcatError:  # a walk to Separation, or one that stalls
            pass
        for params in points:
            self.assert_step_is_the_solve(X, counts, params)
        return len(points)

    @given(
        k=st.integers(2, 6),
        lag=st.integers(0, 1),
        zero=st.booleans(),
        common_rows=st.booleans(),
        share=st.sampled_from([0.0, 0.2]),
        n=st.integers(20, 300),
        scale=st.sampled_from([0.3, 1.0, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_square_step_equals_the_solve(self, k, lag, zero, common_rows, share, n, scale, seed):
        rng = np.random.default_rng(seed)
        forbid = [tuple(int(v) for v in rng.integers(1, k + 1, 2))] if zero else []
        obs = markov_chain(k, n, seed, forbid)
        obs[rng.random(obs.size) < share] = MISSING
        s = series(obs.tolist(), k=k)
        try:
            build_design(s, 2)
            X, counts, *_ = glm._prepare(Design(s, lag, 2 if common_rows else lag))
        except DarcatError:
            return
        assert X.shape[0] == X.shape[1]  # every lag-0 and lag-1 design is square
        for _ in range(3):
            params = np.clip(rng.normal(0.0, scale, (counts.shape[1] - 1) * X.shape[1]), -MAX_COEF, MAX_COEF)
            self.assert_step_is_the_solve(X, counts, params)
        self.assert_along_the_walk(X, counts)

    def test_a_walk_to_separation(self):
        # 1 -> 3 and 3 -> 1 never occur, so the lag-1 fit has no MLE and Newton walks until a coefficient passes the bound
        d = build_design(series(markov_chain(3, 400, 5, forbid=[(1, 3), (3, 1)]).tolist(), k=3), 1)
        X, counts, *_ = d._prepared
        assert counts[0, 2] == counts[2, 0] == 0 and X.shape == (3, 3)
        with pytest.raises(Separation):
            fit_multinomial(d)
        assert self.assert_along_the_walk(X, counts) >= 10

    def test_a_square_lag2_design(self):
        # 2 never follows 2, so the lag-2 patterns (1, 1), (1, 2) and (2, 1) are as many as the columns
        obs = markov_chain(2, 200, 6, forbid=[(2, 2)])
        d = build_design(series(obs.tolist(), k=2), 2)
        X, counts, *_ = d._prepared
        assert X.shape == (3, 3)
        rng = np.random.default_rng(6)
        for _ in range(5):
            self.assert_step_is_the_solve(X, counts, rng.normal(0.0, 2.0, 3))
        assert self.assert_along_the_walk(X, counts) >= 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_hessian_keeps_its_digits_where_a_probability_nears_1(self, seed):
        """The solve of the Hessian misses the formula's step by no more than eps * cond(H), its own rounding.

        At N(0, 8) coefficients, 7% of these points have a non-reference p_r
        within 1e-10 of 1.  A diagonal p (1 - p) that took 1 - p by
        cancellation missed by 1.5e4 to 5.7e5 times that bound, one seed to
        the next; the sums of the other probabilities stay within a third of it.
        """
        eps = np.finfo(float).eps
        for k in range(3, 7):
            X, counts, *_ = build_design(series(markov_chain(k, 400, seed + 10 * k).tolist(), k=k), 1)._prepared
            assert X.shape == (k, k)
            rng = np.random.default_rng(seed)
            for _ in range(300):
                params = rng.normal(0.0, 8.0, (counts.shape[1] - 1) * k)
                _, grad, step = glm._multinomial_evaluation(X, counts)(params)
                hessian = mnl_hessian(X, counts, params)
                closed, solved = step(), np.linalg.solve(hessian, -grad)
                assert np.max(np.abs(closed - solved)) <= eps * np.linalg.cond(hessian) * np.max(np.abs(closed))

    def test_a_lag1_fit_with_a_zero_count_makes_no_solve(self, monkeypatch):
        obs = np.tile([1, 1, 2, 2, 3, 3, 1, 3, 2, 3], 8)  # every (lag-1 state, response) pair but (2, 1)
        d = build_design(series(obs.tolist(), k=3), 1)
        solves, solve = [], np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(args) or solve(*args))
        fit = fit_multinomial(d)
        assert fit.iterations >= 10 and solves == []


@given(
    k=st.integers(2, 6),
    used=st.integers(1, 6),
    n=st.integers(3, 60),
    lag=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_pruning_keeps_the_columns_column_by_column_reduction_keeps(k, used, n, lag, seed):
    """Full-rank designs kept at once, others reduced: the columns and notes of a Gram-Schmidt pass over every column."""
    obs = np.random.default_rng(seed).integers(1, min(used, k) + 1, n)
    try:
        d = build_design(series(obs.tolist(), k=k), lag)
    except DarcatError:
        return
    X, names = d.X, d.column_names
    keep, basis = [], np.zeros((X.shape[0], 0))
    for i in range(X.shape[1]):
        resid = X[:, i] - basis @ (basis.T @ X[:, i])
        if np.linalg.norm(resid) > 1e-8 * max(1.0, np.linalg.norm(X[:, i])):
            keep.append(i)
            basis = np.column_stack([basis, resid / np.linalg.norm(resid)])
    pruned, kept_names, notes = glm._prune_columns(X, names)
    assert kept_names == tuple(names[i] for i in keep) and np.array_equal(pruned, X[:, keep])
    assert bool(notes) == (len(keep) < X.shape[1])


class TestLogistic:
    def test_matches_expit_within_1e_15(self):
        # scipy is the oracle: darcat's logistic is numpy alone
        x = np.linspace(-700.0, 700.0, 280001)
        assert glm._logistic(x) == pytest.approx(expit(x), rel=1e-15, abs=0.0)

    def test_is_exact_and_silent_at_the_infinities_and_beyond_overflow(self):
        x = np.array([-np.inf, -1e308, -800.0, -710.0, 710.0, 800.0, 1e308, np.inf])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            f = glm._logistic(x)
        assert f[0] == 0.0 and f[-1] == 1.0
        assert np.all((0.0 <= f[:4]) & (f[:4] < 1e-300)) and np.all(f[4:] == 1.0)


class TestCells:
    @pytest.mark.parametrize("family", ["categorical", "ordinal"])
    def test_each_point_is_evaluated_once(self, monkeypatch, family):
        """One evaluation per point, its pieces computed once, one step per Newton step.

        Each step builds a Hessian, but on a square multinomial design.
        """
        names = {
            "categorical": ("_multinomial_evaluation", "_multinomial_probs", "_multinomial_hessian"),
            "ordinal": ("_po_evaluation", "_po_pieces", "_po_hessian"),
        }[family]
        evaluated, pieced, steps, hessians = [], [], [], []
        evaluation, pieces, hessian = (getattr(glm, name) for name in names)

        def counting_evaluation(*constants):
            evaluate = evaluation(*constants)

            def counted(params):
                evaluated.append(params.tobytes())
                ll, grad, step = evaluate(params)

                def counted_step():
                    steps.append(None)
                    return step()

                return ll, grad, counted_step

            return counted

        def counting_pieces(params, *args):
            pieced.append(params.tobytes())
            return pieces(params, *args)

        def counting_hessian(*args):
            hessians.append(None)
            return hessian(*args)

        for name, counter in zip(names, (counting_evaluation, counting_pieces, counting_hessian)):
            monkeypatch.setattr(glm, name, counter)
        chain = generate_mnl_chain(600, seed=8) if family == "categorical" else generate_po_chain(600, seed=9)
        # no (2, 1) transition: the lag-1 design is square, with a zero count, so its multinomial fit steps
        gap = series(np.tile([1, 1, 2, 2, 3, 3, 1, 3, 2, 3], 8).tolist(), k=3)
        stepped = {}
        for s, lags in ((chain, (0, 1, 2)), (gap, (1,))):
            for lag in lags:
                for calls in (evaluated, pieced, steps, hessians):
                    calls.clear()
                design = build_design(s, lag)
                fit = glm._FITTERS[family](design)
                X, counts, *_ = design._prepared
                square = family == "categorical" and X.shape[0] == X.shape[1]
                assert len(steps) == fit.iterations and len(hessians) == (0 if square else fit.iterations)
                assert pieced == evaluated and len(set(evaluated)) == len(evaluated) >= fit.iterations + 1
                stepped[square] = stepped.get(square, 0) + fit.iterations
        assert all(stepped.values())  # both kinds of step were taken

    @given(
        k=st.integers(2, 6),
        share=st.floats(0.0, 0.5),
        lag=st.integers(0, 2),
        extra=st.integers(0, 2),
        family=st.sampled_from(["categorical", "ordinal"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_cells_equal_rows(self, k, share, lag, extra, family, seed):
        """The count matrix tallies the rows, and log-PL, gradient, Hessian and Newton step on it equal those on rows."""
        rng = np.random.default_rng(seed)
        obs = rng.integers(1, k + 1, int(rng.integers(3, 300)))
        obs[rng.random(obs.size) < share] = MISSING
        s = series(obs.tolist(), k=k)
        try:
            build_design(s, lag)
            design = Design(s, lag, lag + extra)  # extra > 0: the common rows of a larger lag
            X, counts, categories, _, _ = glm._prepare(design)
        except DarcatError:
            return
        # brute force: one row per seen pattern of lagged states, oldest first, in sorted order
        patterns = [tuple(obs[t - d] for d in range(lag, 0, -1)) for t in design.t_index.tolist()]
        seen = sorted(set(patterns))
        row_pattern = [seen.index(pattern) for pattern in patterns]
        want = np.zeros((len(seen), k + 1))
        for r, y in zip(row_pattern, design.y.tolist()):
            want[r, y] += 1
        assert np.array_equal(counts, want[:, categories]) and counts.sum() == design.n_used
        assert len(np.unique(X, axis=0)) == len(X) == len(seen)
        X_rows, _, _ = glm._prune_columns(design.X, design.column_names)
        assert np.array_equal(X[row_pattern], X_rows)
        y_rows = np.searchsorted(categories, design.y) + 1
        k_eff = len(categories)
        if family == "categorical":
            params = rng.normal(0, 1, (k_eff - 1) * X.shape[1])
            evaluate = glm._multinomial_evaluation(X, counts)
            evaluate_rows = glm._multinomial_evaluation(X_rows, np.eye(k_eff)[y_rows - 1])
            h, h_rows = mnl_hessian(X, counts, params), mnl_hessian(X_rows, np.eye(k_eff)[y_rows - 1], params)
        else:
            theta = np.sort(rng.normal(0, 1, k_eff - 1)) + 0.05 * np.arange(k_eff - 1)
            params = np.concatenate([theta, rng.normal(0, 0.5, X.shape[1] - 1)])
            response, pattern = np.nonzero(counts.T)
            cells = (X[pattern, 1:], response + 1, k_eff, counts.T[response, pattern])
            rows = (X_rows[:, 1:], y_rows, k_eff, np.ones(design.n_used))
            evaluate, evaluate_rows = glm._po_evaluation(*cells), glm._po_evaluation(*rows)
            h, h_rows = po_hessian(*cells, params), po_hessian(*rows, params)
        ll, grad, step = evaluate(params)
        ll_rows, grad_rows, step_rows = evaluate_rows(params)
        assert abs(ll - ll_rows) <= 1e-12 * abs(ll_rows)
        assert np.max(np.abs(grad - grad_rows)) <= 1e-12 * max(1.0, np.max(np.abs(grad_rows)))
        assert np.max(np.abs(h - h_rows)) <= 1e-12 * max(1.0, np.max(np.abs(h_rows)))
        # a square design's step is the formula, its rows' the solve
        s, s_rows = step(), step_rows()
        assert np.max(np.abs(s - s_rows)) <= 1e-9 * max(1.0, np.max(np.abs(s_rows)))

    @pytest.mark.parametrize("family", ["categorical", "ordinal"])
    @pytest.mark.parametrize("common_rows", [False, True])
    def test_k20_tables_equal_row_level_fits(self, family, common_rows):
        """39 covariate columns at lag 2: the same rows, NA pattern and errors as fitting on rows."""
        obs = simulate(DarModel.from_pi(0.5, np.full(20, 0.05)), 500, seed=7).obs.copy()
        obs[np.random.default_rng(7).random(obs.size) < 0.05] = MISSING
        s = series(obs.tolist(), k=20)
        assert build_design(s, 2).X.shape[1] == 39
        table = aic_table(s, family, common_rows=common_rows)
        rows = row_level_rows(s, family, common_rows)
        fitted = [r for r in rows if r.fit is not None]
        assert table.best_lag == min(fitted, key=lambda r: r.fit.aic).lag
        for got, want in zip(table.rows, rows, strict=True):
            assert (got.lag, got.n_used, got.error) == (want.lag, want.n_used, want.error)
            if want.error is None:
                g, w = got.fit, want.fit
                assert (g.n_params, g.iterations, g.notes) == (w.n_params, w.iterations, w.notes)
                assert g.log_pl == pytest.approx(w.log_pl, rel=1e-12)
        # 19 * 20 and 19 * 39 multinomial coefficients on about 450 rows diverge; every ordinal lag fits
        fitted = [True, False, False] if family == "categorical" else [True, True, True]
        assert [r.error is None for r in table.rows] == fitted


def row_level_rows(s, family, common_rows):
    """The rows of ``aic_table(s, family, common_rows=common_rows)``, each fit run on its rows one by one.

    Every row of the row view is a cell of count 1, and Newton starts at
    the log odds for the intercept-only multinomial, else at zero, and at
    the empirical cumulative logits for the ordinal family.
    """
    common = build_design(s, 2).t_index
    rows = []
    for lag in (0, 1, 2):
        d = build_design(s, lag)
        keep = np.isin(d.t_index, common) if common_rows else np.ones(d.n_used, dtype=bool)
        X, y = d.X[keep], d.y[keep]
        try:
            categories, y = np.unique(y, return_inverse=True)
            categories, y = categories.tolist(), y + 1
            gone = sorted(set(range(1, d.k + 1)).difference(categories))
            notes = [f"empty response categories {gone} collapsed out"] if gone else []
            if len(categories) < 2:
                raise DarcatError("response takes fewer than 2 distinct values")
            X, names, more_notes = glm._prune_columns(X, d.column_names)
            k_eff, p = len(categories), X.shape[1]
            n_j = np.bincount(y - 1).astype(float)
            if family == "categorical":
                start = np.log(n_j[:-1] / n_j[-1]) if p == 1 else np.zeros((k_eff - 1) * p)
                evaluate = glm._multinomial_evaluation(X, np.eye(k_eff)[y - 1])
            else:
                cum = np.cumsum(n_j / y.size)[:-1]
                start = np.concatenate([np.log(cum / (1.0 - cum)), np.zeros(p - 1)])
                evaluate = glm._po_evaluation(X[:, 1:], y, k_eff, np.ones(y.size))
            params, ll, steps = glm._newton(evaluate, start)
        except DarcatError as exc:
            rows.append(glm.AicRow(lag=lag, n_used=y.size, error=str(exc)))
            continue
        n_params = (k_eff - 1) * p if family == "categorical" else k_eff - 2 + p
        fit = glm.GlmFit(
            family, lag, params, ll, n_params, y.size, tuple(categories), names,
            notes=tuple(notes + more_notes), iterations=steps,
        )
        rows.append(glm.AicRow(lag=lag, n_used=y.size, fit=fit))
    return rows
