"""Release gate: every numbered criterion below must pass at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see one PASS/FAIL
line per criterion (printed output is shown in the -rA summary).
"""

import time

import numpy as np
import pytest

from darcat.core import CatSeries, StateSpace
from darcat.dar import DarModel, simulate, transition_matrix, transition_matrix_power
from darcat.estimate import alpha_ls_from_matrix, alpha_mle_equation, estimate_pi, vn
from darcat.glm import (
    aic_table,
    build_design,
    fit_multinomial,
    fit_proportional_odds,
    multinomial_loglik_grad,
    proportional_odds_loglik_grad,
)
from darcat.independence import (
    UnvisitedState,
    chi_square_test,
    longest_run_power,
    longest_run_test,
    runs_count_test,
    runs_summary,
)
from darcat.montecarlo import study_grid, run_grid

LEVEL = 0.05

# Published study values at n = 500 for the four marginal configurations:
# mean alpha estimates (likelihood, least squares) per persistence value.
STUDY_ALPHA_500 = {
    0: {0.1: (0.092, 0.094), 0.2: (0.191, 0.194), 0.5: (0.494, 0.497), 0.8: (0.795, 0.799), 0.9: (0.890, 0.894)},
    1: {0.1: (0.095, 0.097), 0.2: (0.190, 0.192), 0.5: (0.486, 0.489), 0.8: (0.790, 0.793), 0.9: (0.893, 0.896)},
    2: {0.1: (0.104, 0.105), 0.2: (0.199, 0.201), 0.5: (0.495, 0.496), 0.8: (0.793, 0.795), 0.9: (0.895, 0.893)},
    3: {0.1: (0.098, 0.099), 0.2: (0.194, 0.195), 0.5: (0.493, 0.493), 0.8: (0.799, 0.799), 0.9: (0.893, 0.892)},
}
STUDY_PI_500 = {
    0: {0.1: (0.503, 0.497), 0.2: (0.499, 0.501), 0.5: (0.499, 0.501), 0.8: (0.502, 0.498), 0.9: (0.503, 0.494)},
    1: {0.1: (0.337, 0.663), 0.2: (0.336, 0.664), 0.5: (0.334, 0.666), 0.8: (0.343, 0.657), 0.9: (0.336, 0.664)},
    2: {
        0.1: (0.333, 0.329, 0.338),
        0.2: (0.330, 0.336, 0.334),
        0.5: (0.340, 0.323, 0.332),
        0.8: (0.336, 0.328, 0.336),
        0.9: (0.348, 0.322, 0.330),
    },
    3: {
        0.1: (0.249, 0.501, 0.250),
        0.2: (0.246, 0.506, 0.248),
        0.5: (0.253, 0.497, 0.250),
        0.8: (0.258, 0.503, 0.239),
        0.9: (0.248, 0.493, 0.259),
    },
}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def study():
    grid = study_grid(m=100)
    start = time.perf_counter()
    results = run_grid(grid)
    elapsed = time.perf_counter() - start
    pis = list(grid.pis)
    by = {(pis.index(c.pi), c.alpha, c.n): c for c in results}
    return by, elapsed


def test_criterion_1_table_reproduction(study):
    by, elapsed = study
    worst_alpha = 0.0
    worst_pi = 0.0
    for table, per_alpha in STUDY_ALPHA_500.items():
        for alpha, (a1, a2) in per_alpha.items():
            cell = by[(table, alpha, 500)]
            worst_alpha = max(worst_alpha, abs(cell.mean_alpha1 - a1), abs(cell.mean_alpha2 - a2))
            ref_pi = STUDY_PI_500[table][alpha]
            worst_pi = max(worst_pi, max(abs(m - r) for m, r in zip(cell.mean_pi_hat, ref_pi)))
    report(
        "criterion 1: table reproduction",
        worst_alpha <= 0.02 and worst_pi <= 0.05 and elapsed < 60.0,
        f"worst alpha dev {worst_alpha:.4f} (<=0.02), worst pi dev {worst_pi:.4f} (<=0.05), "
        f"runtime {elapsed:.1f}s (<60s)",
    )


def test_criterion_2_valid_replicate_counts(study):
    by, _ = study
    m1_small = by[(0, 0.1, 50)].m1
    m1_large = by[(0, 0.1, 500)].m1
    ok = 45 <= m1_small <= 85 and m1_large == 100
    # bookkeeping sanity across the grid: counts grow with n (one-cell
    # slack for simulation noise) and the likelihood bias stays small
    mono = True
    for table in range(4):
        for alpha in (0.1, 0.2, 0.5, 0.8, 0.9):
            for field in ("m1", "m2"):
                seq = [getattr(by[(table, alpha, n)], field) for n in (50, 100, 500)]
                mono &= all(b >= a - 1 for a, b in zip(seq, seq[1:]))
    bias = max(abs(by[(t, a, 500)].mean_alpha1 - a) for t in range(4) for a in (0.1, 0.2, 0.5, 0.8, 0.9))
    report(
        "criterion 2: valid-replicate counts",
        ok and mono and bias < 0.015,
        f"m1(n=50)={m1_small} in [45,85], m1(n=500)={m1_large}==100, "
        f"counts monotone={mono}, max |bias| at n=500 {bias:.4f} (<0.015)",
    )


def test_criterion_3_estimator_identities():
    rng = np.random.default_rng(0)
    worst_ls = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        pi = rng.dirichlet(np.ones(k))
        alpha = float(rng.uniform(0, 0.999))
        p = alpha * np.eye(k) + (1 - alpha) * np.tile(pi, (k, 1))
        worst_ls = max(worst_ls, abs(alpha_ls_from_matrix(p, pi) - alpha))
    worst_mle = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        pi = rng.dirichlet(np.ones(k))
        alpha = float(rng.uniform(0, 0.999))
        n = 1000
        diag = n * pi * (alpha + (1 - alpha) * pi)
        worst_mle = max(worst_mle, abs(alpha_mle_equation(alpha, diag, pi, n)))
    worst_vn = 0.0
    for alpha in np.arange(0.0, 0.95, 0.1):
        for n in range(1, 101):
            brute = sum((n - h) * alpha**h for h in range(1, n + 1))
            worst_vn = max(worst_vn, abs(vn(float(alpha), n) - brute) / max(1.0, brute))
    report(
        "criterion 3: estimator identities",
        worst_ls < 1e-12 and worst_mle < 1e-12 and worst_vn < 1e-9,
        f"LS recovery {worst_ls:.2e} (<1e-12), MLE fixed point {worst_mle:.2e} (<1e-12), "
        f"weighted-sum closed form {worst_vn:.2e} (<1e-9)",
    )


def test_criterion_4_clt_constant():
    details = []
    ok = True
    for alpha, seed0 in ((0.0, 1000), (0.5, 2000)):
        model = DarModel.from_pi(alpha, [0.5, 0.5])
        stats = []
        for r in range(500):
            est = estimate_pi(simulate(model, 2000, seed=seed0 + r))
            p1 = est.pi_hat[0]
            stats.append(np.sqrt(est.n_obs) * (p1 - 0.5) / np.sqrt(p1 * (1 - p1)))
        var = float(np.var(stats, ddof=1))
        target = (1 + alpha) / (1 - alpha)
        rel = abs(var - target) / target
        ok &= rel <= 0.15
        details.append(f"alpha={alpha}: var {var:.3f} vs {target} (rel {rel:.3f})")
    report("criterion 4: CLT constant", ok, "; ".join(details) + " (<=0.15)")


def test_criterion_5_test_calibration():
    m = 2000
    iid3 = DarModel.from_pi(0.0, [1 / 3, 1 / 3, 1 / 3])
    rej_chi = rej_runs = 0
    for r in range(m):
        s = simulate(iid3, 500, seed=30000 + r)
        rej_chi += chi_square_test(s, level=LEVEL).reject
        rej_runs += runs_count_test(s, pi=np.array([1 / 3, 1 / 3, 1 / 3]), level=LEVEL).reject
    size_chi, size_runs = rej_chi / m, rej_runs / m

    iid2 = DarModel.from_pi(0.0, [0.5, 0.5])
    nonrej = 0
    for r in range(m):
        s = simulate(iid2, 500, seed=40000 + r)
        nonrej += not longest_run_test(s, pi=np.array([0.5, 0.5]), level=LEVEL).reject
    coverage = nonrej / m

    dep = DarModel.from_pi(0.8, [1 / 3, 1 / 3, 1 / 3])
    rej = done = 0
    for r in range(500):
        try:
            rej += chi_square_test(simulate(dep, 200, seed=50000 + r), level=LEVEL).reject
            done += 1
        except UnvisitedState:
            pass
    power = rej / done

    ok = (
        0.03 <= size_chi <= 0.07
        and 0.03 <= size_runs <= 0.07
        and power >= 0.95
        and 0.90 <= coverage <= 0.99
    )
    report(
        "criterion 5: test calibration",
        ok,
        f"chi2 size {size_chi:.4f}, runs size {size_runs:.4f} (both in [0.03,0.07]); "
        f"chi2 power {power:.3f} (>=0.95, {done} usable); longest-run coverage {coverage:.4f} (in [0.90,0.99])",
    )


def test_criterion_6_power_regimes():
    # annual-survey scale: 6 categories over ~25 usable years
    larch_scale = [
        longest_run_power(np.full(6, 1 / 6), alpha, 25, LEVEL) for alpha in (0.25, 0.30, 0.35)
    ]
    larch_ok = all(0.25 <= p <= 0.55 for p in larch_scale)
    # weekly-abundance scale: a dominant category of mass 0.625 over 47
    # usable weeks at the estimated persistence, and the pooled multi-year
    # variant (dominant mass 0.463, 208 weeks)
    plank_yearly = longest_run_power(np.array([0.625, 0.167, 0.042, 0.166]), 0.540, 47, LEVEL)
    plank_pooled = longest_run_power(np.array([0.463, 0.293, 0.112, 0.132]), 0.468, 208, LEVEL)
    plank_ok = abs(plank_yearly - 0.44) <= 0.10 and abs(plank_pooled - 0.66) <= 0.10
    report(
        "criterion 6: power regimes",
        larch_ok and plank_ok,
        f"survey-scale powers {[round(p, 3) for p in larch_scale]} in [0.25,0.55]; "
        f"weekly-scale {plank_yearly:.3f} vs 0.44 and pooled {plank_pooled:.3f} vs 0.66 (+/-0.10)",
    )


def _fd_gradient(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def _mnl_chain(n, seed, coefs):
    rng = np.random.default_rng(seed)
    y = [1]
    for _ in range(n):
        x = np.array([1.0, 1.0 if y[-1] == 1 else 0.0, 1.0 if y[-1] == 2 else 0.0])
        p = np.exp(np.append(coefs @ x, 0.0))
        p /= p.sum()
        y.append(1 + int(rng.choice(3, p=p)))
    return CatSeries(StateSpace.from_k(3), tuple(y))


def _po_chain(n, seed, theta, slopes):
    rng = np.random.default_rng(seed)
    y = [1]
    for _ in range(n):
        x = np.array([1.0 if y[-1] == j else 0.0 for j in (1, 2, 3)])
        cum = 1.0 / (1.0 + np.exp(-(theta - x @ slopes)))
        p = np.diff(np.concatenate([[0.0], cum, [1.0]]))
        y.append(1 + int(rng.choice(4, p=p)))
    return CatSeries(StateSpace.from_k(4), tuple(y))


def test_criterion_7_glm():
    rng = np.random.default_rng(1)

    # gradient vs central differences at random points and at the optimum
    mnl_true = np.array([[0.5, 0.8, -0.4], [-0.3, 0.2, 0.6]])
    d3 = build_design(_mnl_chain(300, 2, mnl_true), 1)
    worst = 0.0
    for _ in range(10):
        params = rng.normal(0, 0.5, 2 * d3.X.shape[1])
        _, g = multinomial_loglik_grad(params, d3.X, d3.y, 3)
        gf = _fd_gradient(lambda v: multinomial_loglik_grad(v, d3.X, d3.y, 3)[0], params)
        worst = max(worst, np.max(np.abs(g - gf)) / max(1.0, np.max(np.abs(gf))))
    fit3 = fit_multinomial(d3)
    _, g_opt = multinomial_loglik_grad(fit3.coefficients.ravel(), d3.X, d3.y, 3)
    gf_opt = _fd_gradient(lambda v: multinomial_loglik_grad(v, d3.X, d3.y, 3)[0], fit3.coefficients.ravel())
    worst = max(worst, np.max(np.abs(g_opt - gf_opt)))
    theta_true = np.array([-1.2, 0.1, 1.4])
    slope_true = np.array([0.8, 0.4, -0.5])
    d4 = build_design(_po_chain(300, 6, theta_true, slope_true), 1)
    X4 = d4.X[:, 1:]
    for _ in range(10):
        theta = np.sort(rng.normal(0, 1, 3)) + np.arange(3) * 0.05
        params = np.concatenate([theta, rng.normal(0, 0.5, X4.shape[1])])
        _, g = proportional_odds_loglik_grad(params, X4, d4.y, 4)
        gf = _fd_gradient(lambda v: proportional_odds_loglik_grad(v, X4, d4.y, 4)[0], params)
        worst = max(worst, np.max(np.abs(g - gf)) / max(1.0, np.max(np.abs(gf))))
    fit4 = fit_proportional_odds(d4)
    opt4 = np.concatenate([fit4.cutpoints, fit4.coefficients])
    y4 = np.array([fit4.categories.index(v) + 1 for v in d4.y])
    _, g_opt4 = proportional_odds_loglik_grad(opt4, X4, y4, len(fit4.categories))
    gf_opt4 = _fd_gradient(lambda v: proportional_odds_loglik_grad(v, X4, y4, len(fit4.categories))[0], opt4)
    worst = max(worst, np.max(np.abs(g_opt4 - gf_opt4)))
    grad_ok = worst <= 1e-4

    # coefficient recovery at n = 5000
    fit_mnl = fit_multinomial(build_design(_mnl_chain(5000, 23, mnl_true), 1))
    err_mnl = float(np.max(np.abs(fit_mnl.coefficients - mnl_true)))
    fit_po = fit_proportional_odds(build_design(_po_chain(5000, 47, theta_true, slope_true), 1))
    err_po = float(np.max(np.abs(fit_po.coefficients - slope_true)))
    recovery_ok = err_mnl < 0.15 and err_po < 0.15

    # AIC selection frequencies over 200 replicates (common-row mode keeps
    # the per-lag likelihoods formally comparable)
    def selection_freq(alpha, seed0, want):
        model = DarModel.from_pi(alpha, [0.25] * 4)
        wins = 0
        for r in range(200):
            table = aic_table(simulate(model, 300, seed=seed0 + r), "categorical", common_rows=True)
            wins += table.best_lag == want
        return wins / 200

    freq_iid = selection_freq(0.0, 70000, 0)
    freq_dep = selection_freq(0.8, 80000, 1)
    select_ok = freq_iid >= 0.90 and freq_dep >= 0.90

    report(
        "criterion 7: regression fitting",
        grad_ok and recovery_ok and select_ok,
        f"gradient dev {worst:.2e} (<=1e-4); recovery {err_mnl:.3f}/{err_po:.3f} (<0.15); "
        f"lag-0 pick {freq_iid:.3f} and lag-1 pick {freq_dep:.3f} (>=0.90)",
    )


def test_criterion_8_brute_force_oracles():
    rng = np.random.default_rng(99)
    runs_ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 51))
        obs = rng.integers(1, k + 1, n).tolist()
        rs = runs_summary(CatSeries(StateSpace.from_k(k), tuple(obs)))
        blocks = []
        i = 0
        while i < len(obs):
            j = i
            while j < len(obs) and obs[j] == obs[i]:
                j += 1
            blocks.append(j - i)
            i = j
        runs_ok &= rs.total == len(blocks) and rs.longest == max(blocks)
    worst_pow = 0.0
    for _ in range(10):
        k = int(rng.integers(2, 6))
        model = DarModel.from_pi(float(rng.uniform(0, 0.99)), rng.dirichlet(np.ones(k)))
        p = transition_matrix(model)
        for h in range(1, 21):
            dev = np.max(np.abs(transition_matrix_power(model, h) - np.linalg.matrix_power(p, h)))
            worst_pow = max(worst_pow, float(dev))
    report(
        "criterion 8: brute-force oracles",
        runs_ok and worst_pow < 1e-10,
        f"run scanner agrees on 1000 fuzzed series: {runs_ok}; "
        f"matrix-power dev {worst_pow:.2e} (<1e-10, h<=20)",
    )
