"""Lagged-categorical regression by partial likelihood, with AIC comparison.

Two link families are provided for a response conditioned on its own
lagged values (coded as indicator covariates): a multinomial logit for
nominal series and a proportional-odds cumulative logit for ordinal
ones.  Both are fitted by Newton-Raphson with analytic gradient and
Hessian and a step-halving line search; the cumulative-logit fit keeps
its cutpoints ordered, which is the iterative weighted least squares
scheme in Newton form.

Each family's likelihood is written once, in design-matrix form, and its
gradient and Hessian come from the same per-row pieces:

* multinomial logit: with p_t the probabilities of the non-reference
  categories at row t, the gradient is sum_t (e_{y_t} - p_t) (x) x_t and
  the Hessian -sum_t W_t (x) x_t x_t', W_t = diag(p_t) - p_t p_t';
* proportional odds: P(Y = y_t | x_t) = F(D_hi v)_t - F(D_lo v)_t for the
  parameters v = (cutpoints, slopes) and F the logistic function, where
  row t of D_hi (D_lo) is the one-hot of the cutpoint above (below) y_t
  followed by -x_t.  With L_t that probability and G the per-row
  gradients, the Hessian is
  D_hi' diag(F''_hi / L) D_hi - D_lo' diag(F''_lo / L) D_lo - G'G.

:func:`aic_table` fits one family at each lag order and ranks the lags by
AIC; :meth:`AicTable.render` writes that table as csv, md or txt through
:func:`darcat.render.table`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from . import render
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
    iterations: int = 0  # Newton steps taken

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


def _multinomial_probs(params: np.ndarray, X: np.ndarray, k_eff: int):
    """Linear predictors, log-normalisers and probabilities of the k_eff-1 non-reference categories."""
    eta = X @ params.reshape(k_eff - 1, X.shape[1]).T
    # log-sum-exp against the implicit zero of the reference category
    mx = eta.max(axis=1, initial=0.0)
    lse = mx + np.log(np.exp(-mx) + np.exp(eta - mx[:, None]).sum(axis=1))
    return eta, lse, np.exp(eta - lse[:, None])


def multinomial_loglik_grad(
    params: np.ndarray, X: np.ndarray, y: np.ndarray, k_eff: int
) -> tuple[float, np.ndarray]:
    """Partial log-likelihood and gradient of the multinomial logit.

    ``params`` is the (k_eff-1, p) coefficient matrix flattened row-wise;
    category k_eff is the reference.
    """
    eta, lse, probs = _multinomial_probs(params, X, k_eff)
    ind = np.eye(k_eff, k_eff - 1)[y - 1]  # one-hot response; the reference row is zero
    return float(np.vdot(ind, eta) - lse.sum()), ((ind - probs).T @ X).ravel()


def _multinomial_hessian(params: np.ndarray, X: np.ndarray, k_eff: int) -> np.ndarray:
    """-sum_t W_t (x) x_t x_t' with W_t = diag(p_t) - p_t p_t', in the row-wise order of ``params``."""
    _, _, probs = _multinomial_probs(params, X, k_eff)
    (m, p), q = X.shape, k_eff - 1
    w = probs[:, :, None] * (np.eye(q) - probs[:, None, :])
    # one product sums over the rows: (q*q, m) @ (m, p*p) holds the (a, c, i, j) entries
    h = w.reshape(m, q * q).T @ (X[:, :, None] * X[:, None, :]).reshape(m, p * p)
    return -h.reshape(q, q, p, p).transpose(0, 2, 1, 3).reshape(q * p, q * p)


def _newton(loglik_grad, hessian, params, ordered_head: int = 0):
    """Maximise by Newton steps with step halving.

    ``ordered_head`` marks a leading block of parameters that must stay
    strictly increasing (the ordinal cutpoints); steps breaking the order
    are halved away.  Returns the optimum, its log-likelihood and the
    number of Newton steps taken.
    """

    def ordered(v: np.ndarray) -> bool:
        head = v[:ordered_head]
        return ordered_head < 2 or bool(np.all(np.diff(head) > 1e-10))

    ll, grad = loglik_grad(params)
    steps = 0
    while steps < MAX_ITER and np.max(np.abs(grad)) >= GRAD_TOL:
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
            break  # line search stalled; the gradient check below decides
        params, ll, grad = cand, cand_ll, cand_grad
        steps += 1
        if np.max(np.abs(params)) > MAX_COEF:
            raise Separation(f"coefficient magnitude exceeded {MAX_COEF}")
    if np.max(np.abs(grad)) > 1e-5:
        raise SingularHessian("Newton iteration stalled before reaching the optimum")
    return params, ll, steps


def _prepare(design: Design):
    """Collapse the response categories, refuse fewer than 2, and prune the covariate columns."""
    y, categories, notes = _collapse_categories(design.y, design.k)
    if len(categories) < 2:
        raise DarcatError("response takes fewer than 2 distinct values")
    X, names, more_notes = _prune_columns(design.X, design.column_names)
    return y, categories, X, names, notes + more_notes


def fit_multinomial(design: Design) -> GlmFit:
    """Fit the multinomial logit by maximising the partial likelihood.

    Category probabilities are exp(b_j'x) / (1 + sum_q exp(b_q'x)) with
    the highest retained category as reference.  Starts at zero, which is
    the closed-form optimum direction for the intercept-only model.
    """
    y, categories, X, names, notes = _prepare(design)
    k_eff = len(categories)
    p = X.shape[1]
    params, ll, steps = _newton(
        lambda v: multinomial_loglik_grad(v, X, y, k_eff),
        lambda v: _multinomial_hessian(v, X, k_eff),
        np.zeros((k_eff - 1) * p),
    )
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
        iterations=steps,
    )


def _po_pieces(params: np.ndarray, X: np.ndarray, y: np.ndarray, k_eff: int):
    """Per-row pieces of P(Y = y_t | x_t) = L_t = F(D_hi v)_t - F(D_lo v)_t, F the logistic function.

    Row t of D_hi (D_lo) is the one-hot of the cutpoint above (below) y_t
    followed by -x_t.  The cutpoint above y = k_eff and the one below y = 1
    do not exist: they sit at +inf and -inf, where F is 1 and 0 and its
    derivatives F' = F(1-F) and F'' = F'(1-2F) vanish, so those rows drop
    out of the gradient and Hessian with no mask.  Returns L, the per-row
    gradients G of log L and, per side, D with F''/L; None if some L_t <= 0.
    """
    q = k_eff - 1
    theta = np.concatenate([[-np.inf], params[:q], [np.inf]])
    w = X @ params[q:]
    f_hi = expit(theta[y] - w)
    f_lo = expit(theta[y - 1] - w)
    lik = f_hi - f_lo
    if np.any(lik <= 0):
        return None
    d_hi = np.hstack([np.eye(q + 1, q)[y - 1], -X])
    d_lo = np.hstack([np.eye(q + 1, q, -1)[y - 1], -X])
    fp_hi = f_hi * (1.0 - f_hi) / lik
    fp_lo = f_lo * (1.0 - f_lo) / lik
    g = d_hi * fp_hi[:, None] - d_lo * fp_lo[:, None]
    return lik, g, (d_hi, fp_hi * (1.0 - 2.0 * f_hi)), (d_lo, fp_lo * (1.0 - 2.0 * f_lo))


def proportional_odds_loglik_grad(
    params: np.ndarray, X: np.ndarray, y: np.ndarray, k_eff: int
) -> tuple[float, np.ndarray]:
    """Partial log-likelihood and gradient of the cumulative-logit model.

    ``params`` stacks the k_eff-1 cutpoints then the slopes; ``X`` holds
    the covariates without an intercept column.  P(Y <= j) is the logistic
    function of theta_j - x'b.
    """
    pieces = _po_pieces(params, X, y, k_eff)
    if pieces is None:
        return -np.inf, np.zeros_like(params)
    lik, g, _, _ = pieces
    return float(np.log(lik).sum()), g.sum(axis=0)


def _po_hessian(params: np.ndarray, X: np.ndarray, y: np.ndarray, k_eff: int) -> np.ndarray:
    """D_hi' diag(F''_hi / L) D_hi - D_lo' diag(F''_lo / L) D_lo - G'G."""
    _, g, (d_hi, c_hi), (d_lo, c_lo) = _po_pieces(params, X, y, k_eff)
    return (d_hi.T * c_hi) @ d_hi - (d_lo.T * c_lo) @ d_lo - g.T @ g


def fit_proportional_odds(design: Design) -> GlmFit:
    """Fit the proportional-odds model by maximising the partial likelihood.

    Cumulative logits share one slope vector; the cutpoints start at the
    empirical cumulative logits and are kept strictly increasing
    throughout.  Empty response categories are collapsed out first and
    flagged in the notes.
    """
    y, categories, X_full, names, notes = _prepare(design)
    X = X_full[:, 1:]  # cutpoints take the intercept's role
    k_eff = len(categories)
    q = k_eff - 1
    cum = np.cumsum(np.bincount(y - 1) / y.size)[:q]
    params, ll, steps = _newton(
        lambda v: proportional_odds_loglik_grad(v, X, y, k_eff),
        lambda v: _po_hessian(v, X, y, k_eff),
        np.concatenate([np.log(cum / (1.0 - cum)), np.zeros(X.shape[1])]),
        ordered_head=q,
    )
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
        column_names=names[1:],
        cutpoints=theta,
        notes=tuple(notes),
        iterations=steps,
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

    def render(self, fmt: str) -> str:
        """The table as csv, md or txt text under a family title.

        csv has six decimals, NA for an unknown n and a ``best`` column;
        md and txt have four decimals and ``-`` for an unknown n, md bolds
        the minimum AIC and txt marks it, or a failed fit's error, after
        the row.
        """
        digits = 6 if fmt == "csv" else 4
        missing = "NA" if fmt == "csv" else "-"
        rows = []
        for r in self.rows:
            best = r.lag == self.best_lag
            if r.error is not None:
                row = [r.lag, "NA", "NA", "NA", missing if r.n_used is None else r.n_used]
            else:
                aic = f"{r.aic:.{digits}f}"
                aic = f"**{aic}**" if best and fmt == "md" else aic
                row = [r.lag, r.n_params, f"{r.log_pl:.{digits}f}", aic, r.n_used]
            if fmt == "csv":
                row.append("*" if best else "")
            elif fmt == "txt" and r.error is not None:
                row.append(f"   ({r.error})")
            elif fmt == "txt" and best:
                row.append(" <- min AIC")
            rows.append(row)
        if fmt == "csv":
            title = f"# family: {self.family}\n"
            header = ("lag", "n_params", "log_pl", "aic", "n_used", "best")
        else:
            title = f"**family: {self.family}**\n\n" if fmt == "md" else f"family: {self.family}\n"
            header = ("lag", "params", "logPL", "AIC", "n")
        return title + render.table(fmt, header, rows, (4, 7, 12, 12, 6))


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
    become NA rows instead of aborting the table; their n is that of the
    rows the fit was attempted on.
    """
    if family not in _FITTERS:
        raise DarcatError(f"family must be one of {sorted(_FITTERS)}, got {family!r}")
    fitter = _FITTERS[family]
    lags = tuple(sorted(set(lags)))
    # largest lag first: under common_rows its usable rows are the common set
    common_t = np.empty(0, dtype=np.int64)
    rows: list[AicRow] = []
    for lag in reversed(lags):
        design = None
        try:
            design = build_design(series, lag)
            if common_rows:
                if lag == lags[-1]:
                    common_t = design.t_index
                keep = np.isin(design.t_index, common_t)
                design = replace(design, X=design.X[keep], y=design.y[keep], t_index=design.t_index[keep])
                if design.n_used == 0:
                    raise NoUsableRows("no rows in the common usable set")
            fit = fitter(design)
            rows.append(AicRow(lag=lag, n_params=fit.n_params, aic=fit.aic, log_pl=fit.log_pl, n_used=fit.n_used))
        except DarcatError as exc:
            n_used = None if design is None else design.n_used
            rows.append(AicRow(lag=lag, n_params=None, aic=None, log_pl=None, n_used=n_used, error=str(exc)))
    rows.reverse()
    fitted = [r for r in rows if r.aic is not None]
    best = min(fitted, key=lambda r: r.aic).lag if fitted else None
    return AicTable(family=family, rows=tuple(rows), best_lag=best)
