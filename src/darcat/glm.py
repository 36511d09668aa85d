"""Lagged-categorical regression by partial likelihood, with AIC comparison.

Two link families are provided for a response conditioned on its own
lagged values (coded as indicator covariates): a multinomial logit for
nominal series and a proportional-odds cumulative logit for ordinal
ones.  Both are fitted by Newton-Raphson with analytic gradient and
Hessian and a step-halving line search; the cumulative-logit fit keeps
its cutpoints ordered, which is the iterative weighted least squares
scheme in Newton form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MISSING, CatSeries, DarcatError

__all__ = [
    "NoUsableRows",
    "Separation",
    "SingularHessian",
    "NonmonotoneCutpoints",
    "Design",
    "GlmFit",
    "AicRow",
    "AicTable",
    "build_design",
    "fit_multinomial",
    "fit_proportional_odds",
    "multinomial_loglik_grad",
    "proportional_odds_loglik_grad",
    "aic_table",
]

MAX_COEF = 30.0
GRAD_TOL = 1e-8
MAX_ITER = 100


class NoUsableRows(DarcatError):
    """Masking for missing values left nothing to fit."""


class Separation(DarcatError):
    """Coefficients diverged; the data are separable at this lag."""


class SingularHessian(DarcatError):
    """Newton step undefined (collinear or degenerate design)."""


class NonmonotoneCutpoints(DarcatError):
    """Cutpoint ordering could not be maintained during fitting."""


@dataclass(frozen=True)
class Design:
    """Regression rows: response codes and lagged-indicator covariates.

    The covariate matrix carries an intercept column followed by k-1
    state indicators per lag (state k is the reference), giving
    1 + lag*(k-1) columns.  Rows touching a missing value are dropped.
    """

    X: np.ndarray
    y: np.ndarray
    lag: int
    k: int
    column_names: tuple[str, ...]
    t_index: np.ndarray

    def __post_init__(self) -> None:
        self.X.setflags(write=False)
        self.y.setflags(write=False)
        self.t_index.setflags(write=False)

    @property
    def n_used(self) -> int:
        return int(self.y.size)


@dataclass(frozen=True)
class GlmFit:
    """A fitted lagged regression with its partial likelihood and AIC.

    ``coefficients`` is (k_eff - 1, p) for the multinomial family and the
    slope vector for the ordinal family, whose ordered cutpoints sit in
    ``cutpoints``.  ``categories`` lists the original response codes kept
    after collapsing empty ones (flagged in ``notes``).
    """

    family: str  # "MultinomialLogit" or "ProportionalOdds"
    lag: int
    coefficients: np.ndarray
    log_pl: float
    n_params: int
    n_used: int
    categories: tuple[int, ...]
    column_names: tuple[str, ...]
    cutpoints: np.ndarray | None = None
    notes: tuple[str, ...] = ()

    @property
    def aic(self) -> float:
        return -2.0 * self.log_pl + 2.0 * self.n_params


def build_design(series: CatSeries, lag: int) -> Design:
    """One row per time t with the response and all lags 1..lag observed."""
    if lag not in (0, 1, 2):
        raise DarcatError(f"lag must be 0, 1 or 2, got {lag}")
    if len(series) <= lag:
        raise NoUsableRows(f"series of length {len(series)} cannot support lag {lag}")
    k = series.space.k
    obs = series.obs
    # window i covers times i..i+lag, so a fully observed window i gives row t = i + lag
    t_index = np.flatnonzero(np.lib.stride_tricks.sliding_window_view(obs != MISSING, lag + 1).all(axis=1)) + lag
    if t_index.size == 0:
        raise NoUsableRows("every candidate row touches a missing value")
    states = np.arange(1, k)
    blocks = [obs[t_index - d, None] == states for d in range(1, lag + 1)]
    names = ["intercept"] + [f"lag{d}_state{j}" for d in range(1, lag + 1) for j in range(1, k)]
    return Design(
        X=np.concatenate([np.ones((t_index.size, 1)), *blocks], axis=1),
        y=obs[t_index],
        lag=lag,
        k=k,
        column_names=tuple(names),
        t_index=t_index,
    )


def _collapse_categories(y: np.ndarray, k: int) -> tuple[np.ndarray, list[int], list[str]]:
    """Relabel responses to 1..k_eff over the categories actually present.

    The set is that of the responses at the design's rows, not of the
    series (:meth:`~darcat.core.CatSeries.restrict_to_observed`): a
    category seen only in the first ``lag`` positions, or only next to a
    missing value, never appears as a response and would otherwise leave
    an empty response class, whose coefficients diverge (``Separation``).
    """
    present, inverse = np.unique(y, return_inverse=True)
    notes = []
    if present.size < k:
        gone = np.setdiff1d(np.arange(1, k + 1), present).tolist()
        notes.append(f"empty response categories {gone} collapsed out")
    return inverse + 1, present.tolist(), notes


def _prune_columns(X: np.ndarray, names: tuple[str, ...]) -> tuple[np.ndarray, tuple[str, ...], list[str]]:
    """Keep a maximal linearly independent set of covariate columns.

    Earlier columns win, so the intercept stays and a redundant trailing
    indicator (a lagged level that never occurs, or a full set of
    indicators summing to the intercept) is recoded away, exactly as
    re-choosing the reference level would.
    """
    keep: list[int] = []
    basis = np.zeros((X.shape[0], 0))
    for i in range(X.shape[1]):
        col = X[:, i]
        resid = col - basis @ (basis.T @ col)
        norm = np.linalg.norm(resid)
        if norm > 1e-8 * max(1.0, np.linalg.norm(col)):
            keep.append(i)
            basis = np.column_stack([basis, resid / norm])
    notes = []
    if len(keep) < X.shape[1]:
        gone = [names[i] for i in range(X.shape[1]) if i not in keep]
        notes.append(f"redundant covariate columns dropped: {gone}")
    return X[:, keep], tuple(names[i] for i in keep), notes


def multinomial_loglik_grad(
    params: np.ndarray, X: np.ndarray, y: np.ndarray, k_eff: int
) -> tuple[float, np.ndarray]:
    """Partial log-likelihood and gradient of the multinomial logit.

    ``params`` is the (k_eff-1, p) coefficient matrix flattened row-wise;
    category k_eff is the reference.
    """
    m, p = X.shape
    b = params.reshape(k_eff - 1, p)
    eta = X @ b.T
    # log-sum-exp against the implicit zero of the reference category
    mx = np.maximum(eta.max(axis=1, initial=0.0), 0.0)
    lse = mx + np.log(np.exp(-mx) + np.exp(eta - mx[:, None]).sum(axis=1))
    own = np.where(y < k_eff, eta[np.arange(m), np.minimum(y, k_eff - 1) - 1], 0.0)
    ll = float((own - lse).sum())
    probs = np.exp(eta - lse[:, None])
    ind = np.zeros((m, k_eff - 1))
    sel = y < k_eff
    ind[np.flatnonzero(sel), y[sel] - 1] = 1.0
    grad = ((ind - probs).T @ X).ravel()
    return ll, grad


def _multinomial_hessian(params: np.ndarray, X: np.ndarray, k_eff: int) -> np.ndarray:
    m, p = X.shape
    b = params.reshape(k_eff - 1, p)
    eta = X @ b.T
    mx = np.maximum(eta.max(axis=1, initial=0.0), 0.0)
    lse = mx + np.log(np.exp(-mx) + np.exp(eta - mx[:, None]).sum(axis=1))
    probs = np.exp(eta - lse[:, None])
    q = k_eff - 1
    h = np.empty((q * p, q * p))
    for a in range(q):
        for c in range(a, q):
            w = probs[:, a] * ((1.0 if a == c else 0.0) - probs[:, c])
            block = -(X * w[:, None]).T @ X
            h[a * p : (a + 1) * p, c * p : (c + 1) * p] = block
            if c != a:
                h[c * p : (c + 1) * p, a * p : (a + 1) * p] = block.T
    return h


def _newton(loglik_grad, hessian, params, ordered_head: int = 0):
    """Maximise by Newton steps with step halving.

    ``ordered_head`` marks a leading block of parameters that must stay
    strictly increasing (the ordinal cutpoints); steps breaking the order
    are halved away.
    """

    def ordered(v: np.ndarray) -> bool:
        head = v[:ordered_head]
        return ordered_head < 2 or bool(np.all(np.diff(head) > 1e-10))

    ll, grad = loglik_grad(params)
    for _ in range(MAX_ITER):
        if np.max(np.abs(grad)) < GRAD_TOL:
            break
        try:
            step = np.linalg.solve(hessian(params), -grad)
        except np.linalg.LinAlgError as exc:
            raise SingularHessian(str(exc)) from None
        scale = 1.0
        accepted = any_ordered = False
        for _half in range(40):
            cand = params + scale * step
            if ordered(cand):
                any_ordered = True
                cand_ll, cand_grad = loglik_grad(cand)
                if cand_ll > ll - 1e-12:
                    accepted = True
                    break
            scale *= 0.5
        if not accepted:
            if not any_ordered:
                raise NonmonotoneCutpoints("no step length keeps the cutpoints ordered")
            break  # line search stalled; the caller's gradient check decides
        params, ll, grad = cand, cand_ll, cand_grad
        if np.max(np.abs(params)) > MAX_COEF:
            raise Separation(f"coefficient magnitude exceeded {MAX_COEF}")
    return params, ll, grad


def fit_multinomial(design: Design) -> GlmFit:
    """Fit the multinomial logit by maximising the partial likelihood.

    Category probabilities are exp(b_j'x) / (1 + sum_q exp(b_q'x)) with
    the highest retained category as reference.  Starts at zero, which is
    the closed-form optimum direction for the intercept-only model.
    """
    y, categories, notes = _collapse_categories(design.y, design.k)
    if len(categories) < 2:
        raise DarcatError("response takes fewer than 2 distinct values")
    X, names, more_notes = _prune_columns(design.X, design.column_names)
    notes += more_notes
    k_eff = len(categories)
    p = X.shape[1]
    params = np.zeros((k_eff - 1) * p)
    params, ll, grad = _newton(
        lambda v: multinomial_loglik_grad(v, X, y, k_eff),
        lambda v: _multinomial_hessian(v, X, k_eff),
        params,
    )
    if np.max(np.abs(grad)) > 1e-5:
        raise SingularHessian("Newton iteration stalled before reaching the optimum")
    return GlmFit(
        family="MultinomialLogit",
        lag=design.lag,
        coefficients=params.reshape(k_eff - 1, p),
        log_pl=ll,
        n_params=(k_eff - 1) * p,
        n_used=design.n_used,
        categories=tuple(categories),
        column_names=names,
        notes=tuple(notes),
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _po_pieces(params: np.ndarray, X: np.ndarray, y: np.ndarray, k_eff: int):
    """Per-observation cumulative-logit quantities at the two active cutpoints.

    The cutpoint above the response is absent when y = k_eff (cumulative
    probability 1), the one below when y = 1 (probability 0); the masks
    at_hi / at_lo mark where each exists.
    """
    q = k_eff - 1
    theta, b = params[:q], params[q:]
    w = X @ b
    at_hi = y <= q
    at_lo = y >= 2
    s_hi = _sigmoid(np.where(at_hi, theta[np.minimum(y, q) - 1] - w, 0.0))
    cum_hi = np.where(at_hi, s_hi, 1.0)
    f_hi = np.where(at_hi, s_hi * (1.0 - s_hi), 0.0)
    fp_hi = np.where(at_hi, f_hi * (1.0 - 2.0 * s_hi), 0.0)
    s_lo = _sigmoid(np.where(at_lo, theta[np.maximum(y - 1, 1) - 1] - w, 0.0))
    cum_lo = np.where(at_lo, s_lo, 0.0)
    f_lo = np.where(at_lo, s_lo * (1.0 - s_lo), 0.0)
    fp_lo = np.where(at_lo, f_lo * (1.0 - 2.0 * s_lo), 0.0)
    lik = cum_hi - cum_lo
    return f_hi, fp_hi, f_lo, fp_lo, lik, at_hi, at_lo


def proportional_odds_loglik_grad(
    params: np.ndarray, X: np.ndarray, y: np.ndarray, k_eff: int
) -> tuple[float, np.ndarray]:
    """Partial log-likelihood and gradient of the cumulative-logit model.

    ``params`` stacks the k_eff-1 cutpoints then the slopes; ``X`` holds
    the covariates without an intercept column.  P(Y <= j) is the logistic
    function of theta_j - x'b.
    """
    q = k_eff - 1
    f_hi, _, f_lo, _, lik, at_hi, at_lo = _po_pieces(params, X, y, k_eff)
    if np.any(lik <= 0):
        return -np.inf, np.zeros_like(params)
    inv = 1.0 / lik
    g_theta = np.zeros(q)
    np.add.at(g_theta, np.minimum(y, q)[at_hi] - 1, (f_hi * inv)[at_hi])
    np.add.at(g_theta, (y[at_lo] - 1) - 1, (-f_lo * inv)[at_lo])
    g_b = -X.T @ ((f_hi - f_lo) * inv)
    return float(np.log(lik).sum()), np.concatenate([g_theta, g_b])


def _po_hessian(params: np.ndarray, X: np.ndarray, y: np.ndarray, k_eff: int) -> np.ndarray:
    q = k_eff - 1
    p = X.shape[1]
    f_hi, fp_hi, f_lo, fp_lo, lik, at_hi, at_lo = _po_pieces(params, X, y, k_eff)
    inv = 1.0 / lik
    inv2 = inv * inv
    h = np.zeros((q + p, q + p))
    hi_idx = np.minimum(y, q) - 1
    lo_idx = y - 2  # valid where at_lo

    # theta-theta block
    d_hi = fp_hi * inv - f_hi**2 * inv2
    d_lo = -fp_lo * inv - f_lo**2 * inv2
    cross = f_hi * f_lo * inv2
    np.add.at(h, (hi_idx[at_hi], hi_idx[at_hi]), d_hi[at_hi])
    np.add.at(h, (lo_idx[at_lo], lo_idx[at_lo]), d_lo[at_lo])
    both = at_hi & at_lo
    np.add.at(h, (hi_idx[both], lo_idx[both]), cross[both])
    np.add.at(h, (lo_idx[both], hi_idx[both]), cross[both])

    # theta-b blocks
    dw = f_hi - f_lo
    c_hi = -fp_hi * inv + f_hi * dw * inv2
    c_lo = fp_lo * inv - f_lo * dw * inv2
    rows_hi = np.zeros((q, p))
    np.add.at(rows_hi, hi_idx[at_hi], (X[at_hi] * c_hi[at_hi, None]))
    np.add.at(rows_hi, lo_idx[at_lo], (X[at_lo] * c_lo[at_lo, None]))
    h[:q, q:] = rows_hi
    h[q:, :q] = rows_hi.T

    # b-b block
    d_ww = (fp_hi - fp_lo) * inv - dw**2 * inv2
    h[q:, q:] = (X * d_ww[:, None]).T @ X
    return h


def fit_proportional_odds(design: Design) -> GlmFit:
    """Fit the proportional-odds model by maximising the partial likelihood.

    Cumulative logits share one slope vector; the cutpoints start at the
    empirical cumulative logits and are kept strictly increasing
    throughout.  Empty response categories are collapsed out first and
    flagged in the notes.
    """
    y, categories, notes = _collapse_categories(design.y, design.k)
    if len(categories) < 2:
        raise DarcatError("response takes fewer than 2 distinct values")
    X_full, names, more_notes = _prune_columns(design.X, design.column_names)
    notes += more_notes
    X = X_full[:, 1:]  # cutpoints take the intercept's role
    slope_names = names[1:]
    k_eff = len(categories)
    q = k_eff - 1
    freqs = np.bincount(y - 1, minlength=k_eff) / y.size
    cum = np.cumsum(freqs)[:q]
    params = np.concatenate([np.log(cum / (1.0 - cum)), np.zeros(X.shape[1])])
    params, ll, grad = _newton(
        lambda v: proportional_odds_loglik_grad(v, X, y, k_eff),
        lambda v: _po_hessian(v, X, y, k_eff),
        params,
        ordered_head=q,
    )
    if np.max(np.abs(grad)) > 1e-5:
        raise SingularHessian("Newton iteration stalled before reaching the optimum")
    theta = params[:q]
    if np.any(np.diff(theta) <= 0):
        raise NonmonotoneCutpoints("fitted cutpoints are not strictly increasing")
    return GlmFit(
        family="ProportionalOdds",
        lag=design.lag,
        coefficients=params[q:],
        log_pl=ll,
        n_params=q + X.shape[1],
        n_used=design.n_used,
        categories=tuple(categories),
        column_names=slope_names,
        cutpoints=theta,
        notes=tuple(notes),
    )


_FITTERS = {
    "categorical": fit_multinomial,
    "ordinal": fit_proportional_odds,
}


@dataclass(frozen=True)
class AicRow:
    lag: int
    n_params: int | None
    aic: float | None
    log_pl: float | None
    n_used: int | None
    error: str | None = None


@dataclass(frozen=True)
class AicTable:
    family: str
    rows: tuple[AicRow, ...]
    best_lag: int | None

    def to_csv(self) -> str:
        lines = ["lag,n_params,log_pl,aic,n_used,best"]
        for r in self.rows:
            if r.error is not None:
                lines.append(f"{r.lag},NA,NA,NA,{r.n_used if r.n_used is not None else 'NA'},")
            else:
                best = "*" if r.lag == self.best_lag else ""
                lines.append(f"{r.lag},{r.n_params},{r.log_pl:.6f},{r.aic:.6f},{r.n_used},{best}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"family: {self.family}", f"{'lag':>4} {'params':>7} {'logPL':>12} {'AIC':>12} {'n':>6}"]
        for r in self.rows:
            if r.error is not None:
                n = r.n_used if r.n_used is not None else "-"
                lines.append(f"{r.lag:>4} {'NA':>7} {'NA':>12} {'NA':>12} {n:>6}   ({r.error})")
            else:
                mark = " <- min AIC" if r.lag == self.best_lag else ""
                lines.append(
                    f"{r.lag:>4} {r.n_params:>7} {r.log_pl:>12.4f} {r.aic:>12.4f} {r.n_used:>6}{mark}"
                )
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        lines = [
            f"**family: {self.family}**",
            "",
            "| lag | params | logPL | AIC | n |",
            "|---|---|---|---|---|",
        ]
        for r in self.rows:
            if r.error is not None:
                n = r.n_used if r.n_used is not None else "-"
                lines.append(f"| {r.lag} | NA | NA | NA | {n} |")
            else:
                aic = f"**{r.aic:.4f}**" if r.lag == self.best_lag else f"{r.aic:.4f}"
                lines.append(f"| {r.lag} | {r.n_params} | {r.log_pl:.4f} | {aic} | {r.n_used} |")
        return "\n".join(lines) + "\n"


def aic_table(
    series: CatSeries,
    family: str,
    lags: tuple[int, ...] = (0, 1, 2),
    common_rows: bool = False,
) -> AicTable:
    """Fit one model per lag order and rank them by AIC.

    Each lag keeps its own usable-row set by default, matching how mixed
    missingness shrinks the sample as the lag grows; ``common_rows``
    restricts every lag to the rows usable at the largest one, since AIC
    across different sample sizes is not formally comparable.  Failed fits
    become NA rows instead of aborting the table.
    """
    if family not in _FITTERS:
        raise DarcatError(f"family must be one of {sorted(_FITTERS)}, got {family!r}")
    fitter = _FITTERS[family]
    lags = tuple(sorted(set(lags)))
    common_t: np.ndarray | None = None
    if common_rows:
        try:
            common_t = build_design(series, max(lags)).t_index
        except NoUsableRows:
            common_t = np.empty(0, dtype=np.int64)
    rows: list[AicRow] = []
    for lag in lags:
        try:
            design = build_design(series, lag)
            if common_t is not None:
                keep = np.isin(design.t_index, common_t)
                if not keep.any():
                    raise NoUsableRows("no rows in the common usable set")
                design = Design(
                    X=design.X[keep],
                    y=design.y[keep],
                    lag=lag,
                    k=design.k,
                    column_names=design.column_names,
                    t_index=design.t_index[keep],
                )
            fit = fitter(design)
            rows.append(
                AicRow(
                    lag=lag,
                    n_params=fit.n_params,
                    aic=fit.aic,
                    log_pl=fit.log_pl,
                    n_used=fit.n_used,
                )
            )
        except DarcatError as exc:
            n_used = None
            try:
                n_used = build_design(series, lag).n_used
            except DarcatError:
                pass
            rows.append(AicRow(lag=lag, n_params=None, aic=None, log_pl=None, n_used=n_used, error=str(exc)))
    fitted = [r for r in rows if r.aic is not None]
    best = min(fitted, key=lambda r: r.aic).lag if fitted else None
    return AicTable(family=family, rows=tuple(rows), best_lag=best)
