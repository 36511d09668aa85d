"""Lagged-categorical regression by partial likelihood, with AIC comparison.

Two link families are provided for a response conditioned on its own
lagged values (coded as indicator covariates): a multinomial logit for
nominal series and a proportional-odds cumulative logit for ordinal
ones.  Both are fitted by Newton-Raphson with analytic gradient and
Hessian and a step-halving line search; the cumulative-logit fit keeps
its cutpoints ordered, which is the iterative weighted least squares
scheme in Newton form.

Each fit runs on count-weighted cells, not on rows.  With indicator
covariates a row is fixed by its lagged states, so the usable rows fall
into few distinct (covariate row, response) cells c with counts n_c, and
every sum over rows is a sum over cells weighted by n_c.  Each family has
one evaluation function per fit, which returns the log partial
likelihood, the gradient and a Hessian thunk from the same pieces of one
point; the constants of the fit (the weighted response one-hots, the
x x' products, D_hi and D_lo) are built once, and a Hessian is built only
at the points Newton steps from:

* multinomial logit: with p_c the probabilities of the non-reference
  categories at cell c, the gradient is sum_c n_c (e_{y_c} - p_c) (x) x_c
  and the Hessian -sum_c n_c W_c (x) x_c x_c', W_c = diag(p_c) - p_c p_c';
* proportional odds: P(Y = y_c | x_c) = F(D_hi v)_c - F(D_lo v)_c for the
  parameters v = (cutpoints, slopes) and F the logistic function, where
  row c of D_hi (D_lo) is the one-hot of the cutpoint above (below) y_c
  followed by -x_c.  With L_c that probability, G the per-cell gradients
  of log L and N = diag(n_c), the Hessian is
  D_hi' N diag(F''_hi / L) D_hi - D_lo' N diag(F''_lo / L) D_lo - G'N G.

Newton steps are solved by LAPACK ``gesv`` directly: the systems have 2 to
a few dozen unknowns, where ``np.linalg.solve``'s wrapper costs more than
the factorisation.

One prepared design per lag serves every family.  :func:`aic_tables`
builds each lag's design once and fits every requested family on it; the
design groups, collapses and prunes itself once (``Design._preparation``),
however many fitters read it.  :func:`aic_table` is the one-family case.
:meth:`AicTable.render` writes a table as csv, md or txt through
:func:`darcat.render.table`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgesv
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
    "aic_tables",
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
    The fits group the rows by the states these blocks encode, so ``X``
    must keep this layout.
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

    @cached_property
    def _preparation(self) -> tuple | DarcatError:
        """:func:`_prepare`'s result, or the error it raised, computed once however many fits read it."""
        try:
            return _prepare(self)
        except DarcatError as exc:
            return exc


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


def _cells(design: Design) -> tuple[np.ndarray, np.ndarray]:
    """One representative row per distinct (covariate row, response) cell, and the cell counts.

    A row's covariates are fixed by its lagged states: block d of k-1
    indicators encodes the state ``block @ (1..k-1)``, 0 for the reference
    state k.  Rows are grouped by sorting on those integer states and the
    response, which is exact for every k.
    """
    m, k = design.n_used, design.k
    states = design.X[:, 1:].reshape(m * design.lag, k - 1) @ np.arange(1.0, k)
    keys = np.column_stack([states.reshape(m, design.lag), design.y])
    order = np.lexsort(keys.T)
    ordered = keys[order]
    new = np.ones(m, dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    return order[starts], np.diff(np.append(starts, m)).astype(float)


def _multinomial_probs(params: np.ndarray, X: np.ndarray, k_eff: int):
    """Linear predictors, log-normalisers and probabilities of the k_eff-1 non-reference categories."""
    eta = X @ params.reshape(k_eff - 1, X.shape[1]).T
    # log-sum-exp against the implicit zero of the reference category
    mx = eta.max(axis=1, initial=0.0)
    lse = mx + np.log(np.exp(-mx) + np.exp(eta - mx[:, None]).sum(axis=1))
    return eta, lse, np.exp(eta - lse[:, None])


def _multinomial_evaluation(X: np.ndarray, y: np.ndarray, k_eff: int, counts: np.ndarray):
    """The evaluation function of one multinomial fit on the cells ``X``, ``y`` with ``counts``.

    It maps ``params`` to the log partial likelihood, the gradient and a
    thunk that builds the Hessian from the same probabilities.
    """
    q = k_eff - 1
    ind = np.eye(k_eff, q)[y - 1] * counts[:, None]  # count-weighted one-hot response; the reference row is zero
    eye = np.eye(q)
    xx = None

    def hessian(probs: np.ndarray, weighted: np.ndarray) -> np.ndarray:
        nonlocal xx
        if xx is None:  # at the first Newton step, so a gradient alone never builds it
            xx = X[:, :, None] * X[:, None, :]
        return _multinomial_hessian(probs, weighted, xx, eye)

    def evaluate(params: np.ndarray):
        eta, lse, probs = _multinomial_probs(params, X, k_eff)
        weighted = probs * counts[:, None]
        grad = ((ind - weighted).T @ X).ravel()
        return float(np.vdot(ind, eta) - counts @ lse), grad, lambda: hessian(probs, weighted)

    return evaluate


def _multinomial_hessian(probs: np.ndarray, weighted: np.ndarray, xx: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """-sum_c n_c W_c (x) x_c x_c' with W_c = diag(p_c) - p_c p_c', in the row-wise order of ``params``.

    ``weighted`` is n_c p_c, ``xx`` holds the x_c x_c' and ``eye`` is the
    (q, q) identity, built once per fit.
    """
    (m, q), p = probs.shape, xx.shape[1]
    w = weighted[:, :, None] * (eye - probs[:, None, :])
    # one product sums over the cells: (q*q, m) @ (m, p*p) holds the (a, c, i, j) entries
    h = w.reshape(m, q * q).T @ xx.reshape(m, p * p)
    return -h.reshape(q, q, p, p).transpose(0, 2, 1, 3).reshape(q * p, q * p)


def multinomial_loglik_grad(
    params: np.ndarray, X: np.ndarray, y: np.ndarray, k_eff: int
) -> tuple[float, np.ndarray]:
    """Partial log-likelihood and gradient of the multinomial logit, one row per observation.

    ``params`` is the (k_eff-1, p) coefficient matrix flattened row-wise;
    category k_eff is the reference.
    """
    ll, grad, _ = _multinomial_evaluation(X, y, k_eff, np.ones(len(y)))(params)
    return ll, grad


def _newton(evaluate, params, ordered_head: int = 0):
    """Maximise by Newton steps with step halving.

    ``evaluate`` maps a point to its log-likelihood, gradient and Hessian
    thunk, so each point is evaluated once and its Hessian built only when
    a step starts there.  ``ordered_head`` marks a leading block of
    parameters that must stay strictly increasing (the ordinal cutpoints);
    steps breaking the order are halved away.  Returns the optimum, its
    log-likelihood and the number of Newton steps taken.
    """

    def ordered(v: np.ndarray) -> bool:
        head = v[:ordered_head]
        return ordered_head < 2 or bool(np.all(np.diff(head) > 1e-10))

    ll, grad, hessian = evaluate(params)
    steps = 0
    while steps < MAX_ITER and np.abs(grad).max() >= GRAD_TOL:
        *_, step, info = dgesv(hessian(), -grad)
        if info != 0:  # info > 0: an exactly zero pivot
            raise SingularHessian("Singular matrix")
        scale = 1.0
        accepted = any_ordered = False
        for _half in range(40):
            cand = params + scale * step
            if ordered(cand):
                any_ordered = True
                cand_ll, cand_grad, cand_hessian = evaluate(cand)
                if cand_ll > ll - 1e-12:
                    accepted = True
                    break
            scale *= 0.5
        if not accepted:
            if not any_ordered:
                raise NonmonotoneCutpoints("no step length keeps the cutpoints ordered")
            break  # line search stalled; the gradient check below decides
        params, ll, grad, hessian = cand, cand_ll, cand_grad, cand_hessian
        steps += 1
        if np.abs(params).max() > MAX_COEF:
            raise Separation(f"coefficient magnitude exceeded {MAX_COEF}")
    if np.abs(grad).max() > 1e-5:
        raise SingularHessian("Newton iteration stalled before reaching the optimum")
    return params, ll, steps


def _prepare(design: Design):
    """Group the rows into cells, collapse the responses, refuse fewer than 2, and prune the columns.

    Returns the cells' collapsed responses, the categories kept, the
    cells' pruned covariates, their names, the notes and the cell counts.
    """
    first, counts = _cells(design)
    y, categories, notes = _collapse_categories(design.y[first], design.k)
    if len(categories) < 2:
        raise DarcatError("response takes fewer than 2 distinct values")
    X, names, more_notes = _prune_columns(design.X, design.column_names)
    X = X[first]
    for a in (y, X, counts):  # shared by every fit of the design
        a.setflags(write=False)
    return y, categories, X, names, notes + more_notes, counts


def _prepared(design: Design):
    """The design's :func:`_prepare` result, prepared once per design; raises its error on every read."""
    prepared = design._preparation
    if isinstance(prepared, DarcatError):
        raise prepared.with_traceback(None)
    return prepared


def fit_multinomial(design: Design) -> GlmFit:
    """Fit the multinomial logit by maximising the partial likelihood.

    Category probabilities are exp(b_j'x) / (1 + sum_q exp(b_q'x)) with
    the highest retained category as reference.  Starts at zero, which is
    the closed-form optimum direction for the intercept-only model.
    """
    y, categories, X, names, notes, counts = _prepared(design)
    k_eff = len(categories)
    p = X.shape[1]
    params, ll, steps = _newton(_multinomial_evaluation(X, y, k_eff, counts), np.zeros((k_eff - 1) * p))
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


def _po_pieces(params: np.ndarray, X: np.ndarray, ends: np.ndarray, q: int):
    """The pieces of P(Y = y_c | x_c) = L_c = F(D_hi v)_c - F(D_lo v)_c, F the logistic function.

    ``ends`` holds, per cell, the index into (-inf, cutpoints, +inf) of the
    cutpoint above y_c (row 0) and below it (row 1).  The cutpoint above
    y = k_eff and the one below y = 1 do not exist: they sit at +inf and
    -inf, where F is 1 and 0 and its derivatives F' = F(1-F) and
    F'' = F'(1-2F) vanish, so those cells drop out of the gradient and
    Hessian with no mask.  Returns L and, for both sides stacked, F and
    F'/L; None if some L_c <= 0.
    """
    theta = np.concatenate([[-np.inf], params[:q], [np.inf]])
    f = expit(theta[ends] - X @ params[q:])
    lik = f[0] - f[1]
    if np.any(lik <= 0):
        return None
    return lik, f, f * (1.0 - f) / lik


def _po_evaluation(X: np.ndarray, y: np.ndarray, k_eff: int, counts: np.ndarray):
    """The evaluation function of one proportional-odds fit on the cells ``X``, ``y`` with ``counts``.

    It maps ``params`` to the log partial likelihood, the gradient and a
    thunk that builds the Hessian from the same pieces; a point with some
    L_c <= 0 has log-likelihood -inf, a zero gradient and no Hessian.
    """
    q = k_eff - 1
    ends = np.stack([y, y - 1])
    # D_hi over D_lo, and their signed count weights
    d = np.vstack([np.hstack([np.eye(q + 1, q)[y - 1], -X]), np.hstack([np.eye(q + 1, q, -1)[y - 1], -X])])
    signed = np.concatenate([counts, -counts])

    def evaluate(params: np.ndarray):
        pieces = _po_pieces(params, X, ends, q)
        if pieces is None:
            return -np.inf, np.zeros_like(params), None
        lik, f, fp = pieces
        grad = (fp.ravel() * signed) @ d
        return float(counts @ np.log(lik)), grad, lambda: _po_hessian(d, signed, f, fp)

    return evaluate


def _po_hessian(d: np.ndarray, signed: np.ndarray, f: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """D_hi' N diag(F''_hi / L) D_hi - D_lo' N diag(F''_lo / L) D_lo - G'N G.

    ``d`` stacks D_hi over D_lo, ``signed`` stacks the counts n_c over
    -n_c, and ``f`` and ``fp`` stack F and F'/L of both sides.
    """
    m = f.shape[1]
    g = d[:m] * fp[0][:, None] - d[m:] * fp[1][:, None]
    return (d.T * (signed * (fp * (1.0 - 2.0 * f)).ravel())) @ d - (g.T * signed[:m]) @ g


def proportional_odds_loglik_grad(
    params: np.ndarray, X: np.ndarray, y: np.ndarray, k_eff: int
) -> tuple[float, np.ndarray]:
    """Partial log-likelihood and gradient of the cumulative-logit model, one row per observation.

    ``params`` stacks the k_eff-1 cutpoints then the slopes; ``X`` holds
    the covariates without an intercept column.  P(Y <= j) is the logistic
    function of theta_j - x'b.
    """
    ll, grad, _ = _po_evaluation(X, y, k_eff, np.ones(len(y)))(params)
    return ll, grad


def fit_proportional_odds(design: Design) -> GlmFit:
    """Fit the proportional-odds model by maximising the partial likelihood.

    Cumulative logits share one slope vector; the cutpoints start at the
    empirical cumulative logits and are kept strictly increasing
    throughout.  Empty response categories are collapsed out first and
    flagged in the notes.
    """
    y, categories, X_full, names, notes, counts = _prepared(design)
    X = X_full[:, 1:]  # cutpoints take the intercept's role
    k_eff = len(categories)
    q = k_eff - 1
    cum = np.cumsum(np.bincount(y - 1, weights=counts) / design.n_used)[:q]
    params, ll, steps = _newton(
        _po_evaluation(X, y, k_eff, counts),
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
    iterations: int = 0  # Newton steps of the fit
    notes: tuple[str, ...] = ()  # the fit's notes: categories collapsed, columns dropped


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
    """Fit one model per lag order and rank them by AIC: :func:`aic_tables` for one family."""
    return aic_tables(series, (family,), lags=lags, common_rows=common_rows)[0]


def aic_tables(
    series: CatSeries,
    families: tuple[str, ...],
    lags: tuple[int, ...] = (0, 1, 2),
    common_rows: bool = False,
) -> tuple[AicTable, ...]:
    """One AIC table per family, every family fitted on the same design at each lag.

    Each lag keeps its own usable-row set by default, matching how mixed
    missingness shrinks the sample as the lag grows; ``common_rows``
    restricts every lag to the rows usable at the largest one, since AIC
    across different sample sizes is not formally comparable.  Failed fits
    become NA rows instead of aborting the table; their n is that of the
    rows the fit was attempted on.  A design that cannot be built is the
    same NA row in every family.
    """
    for family in families:
        if family not in _FITTERS:
            raise DarcatError(f"family must be one of {sorted(_FITTERS)}, got {family!r}")
    lags = tuple(sorted(set(lags)))
    # largest lag first: under common_rows its usable rows are the common set
    common_t = np.empty(0, dtype=np.int64)
    rows: list[list[AicRow]] = [[] for _ in families]
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
        except DarcatError as exc:
            failed = _na_row(lag, design, exc)
            for family_rows in rows:
                family_rows.append(failed)
            continue
        for family, family_rows in zip(families, rows):
            try:
                fit = _FITTERS[family](design)
            except DarcatError as exc:
                family_rows.append(_na_row(lag, design, exc))
                continue
            family_rows.append(
                AicRow(
                    lag=lag,
                    n_params=fit.n_params,
                    aic=fit.aic,
                    log_pl=fit.log_pl,
                    n_used=fit.n_used,
                    iterations=fit.iterations,
                    notes=fit.notes,
                )
            )
    tables = []
    for family, family_rows in zip(families, rows):
        family_rows.reverse()
        fitted = [r for r in family_rows if r.aic is not None]
        best = min(fitted, key=lambda r: r.aic).lag if fitted else None
        tables.append(AicTable(family=family, rows=tuple(family_rows), best_lag=best))
    return tuple(tables)


def _na_row(lag: int, design: Design | None, exc: DarcatError) -> AicRow:
    """The NA row of a lag whose design or fit failed, with the n it was tried on."""
    n_used = None if design is None else design.n_used
    return AicRow(lag=lag, n_params=None, aic=None, log_pl=None, n_used=n_used, error=str(exc))
