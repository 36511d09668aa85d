"""Lagged-categorical regression by partial likelihood, with AIC comparison.

Two link families are provided for a response conditioned on its own
lagged values (coded as indicator covariates): a multinomial logit for
nominal series and a proportional-odds cumulative logit for ordinal
ones.  Both are fitted by one Newton-Raphson routine with analytic
gradient and Hessian and a step-halving line search, the iterative
weighted least squares scheme in Newton form.  The ordinal likelihood
keeps the cutpoints in order: every kept category j has a cell, whose
probability F(theta_j - x'b) - F(theta_{j-1} - x'b) is positive only if
theta_{j-1} < theta_j, so a step that breaks the order has
log-likelihood -inf and is halved away like any step that fails.

Each fit runs on counts, not on rows.  With indicator covariates a row
is fixed by its lagged states, its pattern, so the usable rows are a
count matrix N with a row per seen pattern r and a column per seen
response, and every sum over rows is a sum over N.  Each family has one
evaluation function per fit, which returns the log partial likelihood,
the gradient and a thunk that returns the Newton step from the same
pieces of one point; the constants of the fit (the x x' products, D_hi
and D_lo) are built once, and a step is found only at the points Newton
steps from:

* multinomial logit: with p_r the probabilities of the non-reference
  categories at pattern r, n_r its row sum and N_r its non-reference
  counts, the gradient is sum_r (N_r - n_r p_r) (x) x_r and the Hessian
  -sum_r n_r W_r (x) x_r x_r', W_r = diag(p_r) - p_r p_r';
* proportional odds, on the cells c of the non-zero entries of N with
  counts n_c: P(Y = y_c | x_c) = F(D_hi v)_c - F(D_lo v)_c for the
  parameters v = (cutpoints, slopes) and F the logistic function, where
  row c of D_hi (D_lo) is the one-hot of the cutpoint above (below) y_c
  followed by -x_c.  With L_c that probability, G the per-cell gradients
  of log L and N_c = diag(n_c), the Hessian is
  D_hi' N_c diag(F''_hi / L) D_hi - D_lo' N_c diag(F''_lo / L) D_lo - G'N_c G.

N is the series' table of fully observed windows (x_{t-lag}, ..., x_t),
:meth:`~darcat.core.CatSeries.windows`, made by one bincount and read
as (pattern, response), so no fit builds a row; under ``common_rows`` a
lower lag's counts are the largest lag's table summed over its oldest
values.  ``Design.X``, ``.y`` and ``.t_index`` still give the rows one
by one, on request.  A multinomial design is square when it has as many
kept columns as seen patterns, as every lag-0 and lag-1 design has, and
saturated when it is square with no zero count.  A saturated design
starts at its closed-form optimum, so Newton only checks the coefficient
bound and the gradient there; every other fit starts where it always
has, at zero or at the empirical cumulative logits.  A Newton step on a
square multinomial design is a formula, X^-1 times the step in the
linear predictors (:func:`_newton` derives it), so those fits, mostly
lag-1 fits with a zero count walking toward separation, build no Hessian
and solve nothing.

Every other Newton step is solved by ``np.linalg.solve`` and the logistic
function is the numpy expression of :func:`_logistic`, so the package
needs numpy alone.  scipy's LAPACK ``gesv`` and ``expit`` take some 3 to
10 us less a call, but importing scipy for them costs a short command
more start-up than all of its fits.

One prepared design per lag serves every family.  :func:`aic_tables`
builds each lag's design once and fits every requested family on it; the
design reads its count matrix, drops its empty responses and prunes once
(``Design._prepared``), however many fitters read it.  :func:`aic_table`
is the one-family case.  The module returns tables as data;
:func:`darcat.render.aic_table` writes them as csv, md or txt.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import MISSING, CatSeries, DarcatError, _read_only

__all__ = [
    "NoUsableRows",
    "Separation",
    "SingularHessian",
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


@dataclass(frozen=True)
class Design:
    """The regression of a series on its lags 1..``lag``, on the times whose window of ``span`` lags is observed.

    The fits read the design's counts, ``table``: the series' fully
    observed windows of ``span`` + 1 values (``span`` >= ``lag``, the
    largest lag of a common-rows table) summed over their ``span - lag``
    oldest values, so the cell ``[a_lag - 1, ..., a_1 - 1, y - 1]``
    counts the rows whose state at lag d is a_d and whose response is y.

    ``X``, ``y`` and ``t_index`` are the same rows one by one, built on
    first read: a row per usable time t, in order, with an intercept
    column followed by k-1 state indicators per lag (state k is the
    reference), giving 1 + lag*(k-1) columns named by ``column_names``.
    """

    series: CatSeries
    lag: int
    span: int

    def __post_init__(self) -> None:
        if not 0 <= self.lag <= self.span:
            raise DarcatError(f"a design needs 0 <= lag <= span, got lag {self.lag} and span {self.span}")

    @property
    def k(self) -> int:
        return self.series.space.k

    @property
    def column_names(self) -> tuple[str, ...]:
        return ("intercept",) + tuple(f"lag{d}_state{j}" for d in range(1, self.lag + 1) for j in range(1, self.k))

    @cached_property
    def table(self) -> np.ndarray:
        return self.series.windows(self.span).sum(axis=tuple(range(self.span - self.lag)))

    @cached_property
    def n_used(self) -> int:
        return int(self.table.sum())

    @property
    def t_index(self) -> np.ndarray:
        return self._rows[0]

    @property
    def y(self) -> np.ndarray:
        return self._rows[1]

    @property
    def X(self) -> np.ndarray:
        return self._rows[2]

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(t_index, y, X)``, read-only; no fit reads them."""
        obs = self.series.obs
        t = np.arange(self.span, len(obs))
        t = t[np.all([obs[t - d] != MISSING for d in range(self.span + 1)], axis=0)]
        blocks = [obs[t - d, None] == np.arange(1, self.k) for d in range(1, self.lag + 1)]
        return _read_only(t, obs[t], np.concatenate([np.ones((t.size, 1)), *blocks], axis=1))

    @cached_property
    def _prepared(self) -> tuple:
        """:func:`_prepare`'s result, computed once however many fits read it; a failing design fails each."""
        return _prepare(self)


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
    design = Design(series, lag, lag)
    if design.n_used == 0:
        raise NoUsableRows("every candidate row touches a missing value")
    return design


def _prune_columns(X: np.ndarray, names: tuple[str, ...]) -> tuple[np.ndarray, tuple[str, ...], list[str]]:
    """Keep a maximal linearly independent set of covariate columns.

    Earlier columns win, so the intercept stays and a redundant trailing
    indicator (a lagged level that never occurs, or a full set of
    indicators summing to the intercept) is recoded away, exactly as
    re-choosing the reference level would.  Column i is kept when its
    distance from the span of the columns before it exceeds 1e-8 of
    max(1, its norm).  Those distances are the diagonal of the Cholesky
    factor of X'X when X has full rank, the usual case, so a factor whose
    diagonal clears 1e-4 of the same scale keeps every column at once;
    the factor's rounding is the square root of X'X's, hence the wider
    margin.  Any other X is reduced column by column.
    """
    gram = X.T @ X
    try:
        full_rank = np.all(np.diagonal(np.linalg.cholesky(gram)) > 1e-4 * np.sqrt(np.maximum(1.0, np.diagonal(gram))))
    except np.linalg.LinAlgError:  # X'X is singular: some column depends on those before it
        full_rank = False
    if full_rank:
        return X, names, []
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


def _multinomial_probs(params: np.ndarray, X: np.ndarray, coef: np.ndarray):
    """Linear predictors, log-normalisers and probabilities of every category, the reference last.

    ``coef`` is the fit's (p, q + 1) buffer for the coefficients, whose last
    column, the reference's, stays 0.
    """
    coef[:, :-1] = params.reshape(-1, X.shape[1]).T
    eta = X @ coef
    # log-sum-exp: the reference's zero is in every row
    mx = eta.max(axis=1)
    e = np.exp(eta - mx[:, None])
    s = e.sum(axis=1)
    e /= s[:, None]
    return eta, mx + np.log(s), e


def _multinomial_evaluation(X: np.ndarray, counts: np.ndarray):
    """The evaluation function of one multinomial fit on the patterns ``X`` with their response ``counts``.

    ``counts`` has a row per pattern and a column per response, the last
    the reference.  It maps ``params`` to the log partial likelihood, the
    gradient and a thunk that returns the Newton step from the same
    probabilities.  On a square ``X`` that step is a formula (:func:`_newton`
    shows why); on any other it solves the Hessian.
    """
    seen = counts[:, :-1]
    n = counts.sum(axis=1)
    coef = np.zeros((X.shape[1], counts.shape[1]))
    if X.shape[0] == X.shape[1]:
        shares = counts / n[:, None]
        inverse = None

        def step(probs: np.ndarray, weighted: np.ndarray, grad: np.ndarray) -> np.ndarray:
            nonlocal inverse
            if inverse is None:  # at the first Newton step, so a fit that takes none never inverts X
                inverse = np.linalg.inv(X)
            odds = shares / probs
            odds -= odds[:, -1:]
            return (inverse @ odds[:, :-1]).T.ravel()

    else:
        others = 1.0 - np.eye(seen.shape[1] + 1, seen.shape[1])
        xx = None

        def step(probs: np.ndarray, weighted: np.ndarray, grad: np.ndarray) -> np.ndarray:
            nonlocal xx
            if xx is None:  # at the first Newton step, so a gradient alone never builds it
                xx = X[:, :, None] * X[:, None, :]
            return np.linalg.solve(_multinomial_hessian(probs, weighted, xx, others), -grad)

    def evaluate(params: np.ndarray):
        eta, lse, probs = _multinomial_probs(params, X, coef)
        weighted = probs[:, :-1] * n[:, None]
        grad = ((seen - weighted).T @ X).ravel()
        return float(np.vdot(counts, eta) - n @ lse), grad, lambda: step(probs, weighted, grad)

    return evaluate


def _multinomial_hessian(probs: np.ndarray, weighted: np.ndarray, xx: np.ndarray, others: np.ndarray) -> np.ndarray:
    """-sum_r n_r W_r (x) x_r x_r' with W_r = diag(p_r) - p_r p_r', in the row-wise order of ``params``.

    ``probs`` holds the p_r of every category, the reference last,
    ``weighted`` is n_r p_r of the non-reference ones and ``xx`` holds the
    x_r x_r'.  W_r's diagonal p_a (1 - p_a) is p_a times the sum of every
    other category's p, ``probs @ others``: 1 - p_a would cancel as p_a
    nears 1.  ``others``, built once per fit, is the (q + 1, q) 0/1 matrix
    with a 0 in row a of column a only.
    """
    (m, q), p = weighted.shape, xx.shape[1]
    w = weighted[:, :, None] * -probs[:, None, :q]
    w.reshape(m, q * q)[:, :: q + 1] = weighted * (probs @ others)
    # one product sums over the patterns: (q*q, m) @ (m, p*p) holds the (a, c, i, j) entries
    h = w.reshape(m, q * q).T @ xx.reshape(m, p * p)
    return -h.reshape(q, q, p, p).transpose(0, 2, 1, 3).reshape(q * p, q * p)


def multinomial_loglik_grad(
    params: np.ndarray, X: np.ndarray, y: np.ndarray, k_eff: int
) -> tuple[float, np.ndarray]:
    """Partial log-likelihood and gradient of the multinomial logit, one row per observation.

    ``params`` is the (k_eff-1, p) coefficient matrix flattened row-wise;
    category k_eff is the reference.
    """
    ll, grad, _ = _multinomial_evaluation(X, np.eye(k_eff)[y - 1])(params)
    return ll, grad


def _newton(evaluate, params):
    """Maximise by Newton steps with step halving.

    ``evaluate`` maps a point to its log-likelihood, gradient and a thunk
    that returns the Newton step from there, so each point is evaluated
    once and its step found only when a step starts there.  A thunk that
    raises ``np.linalg.LinAlgError`` (LAPACK met an exactly zero pivot) is
    a ``SingularHessian``.  A step whose log-likelihood falls is halved, up
    to 40 times; a fall of at most 1e-12 * max(1, |log-likelihood|) is
    taken for the rounding of the sum over cells (about 1e-9 at n = 10^6),
    not a fall.  An ordinal step that breaks the cutpoint order has
    log-likelihood -inf (:func:`_po_evaluation`), so the likelihood alone
    keeps the cutpoints ordered.  Returns the optimum, its log-likelihood
    and the number of Newton steps taken.  Every point it holds, the start
    included, is ``Separation`` once some coefficient exceeds ``MAX_COEF``
    in magnitude.  When the line search or ``MAX_ITER`` stops it short of
    ``GRAD_TOL``, a max |gradient| above 1e-5 is a ``SingularHessian``
    naming which stopped it.

    A multinomial step on a square design (as many kept columns as seen
    patterns: every lag-0 and lag-1 design) is a formula, with no Hessian
    and no solve.  X is then invertible, so each pattern r has its own
    free linear predictors eta_r = B x_r, and Newton steps are invariant
    under the invertible map B' -> X B' = eta: the step in B' is X^-1 times
    the Newton step in eta, and X^-1 is computed once per fit.  In eta the
    log partial likelihood is a sum over patterns, and pattern r's
    Hessian is -n_r W_r with W_r = diag(p_r) - p_r p_r', whose inverse is
    diag(1/p_r) + 1 1' / p_r,ref.  With y_r pattern r's response shares,
    the step in eta is W_r^-1 (y_r - p_r), that is
    y_rj / p_rj - y_r,ref / p_r,ref: the step ``np.linalg.solve`` returns,
    up to rounding.  Near ``MAX_COEF`` the Hessian's condition number
    passes 1e8, and the formula is the more accurate of the two.  While
    every |coef| <= ``MAX_COEF``, |eta_rj| is at most 30 times the ones in
    x_r, at most 3, so every p_rj exceeds e^-180 / k and y / p never
    divides by zero.
    """
    if np.abs(params).max() > MAX_COEF:  # a closed-form start beyond the bound (:func:`fit_multinomial`)
        raise Separation(f"coefficient magnitude exceeded {MAX_COEF}")
    ll, grad, newton_step = evaluate(params)
    largest = np.abs(grad).max()
    steps = 0
    while largest >= GRAD_TOL:
        if steps == MAX_ITER:
            stop = f"no convergence in {MAX_ITER} Newton steps"
            break
        try:
            step = newton_step()
        except np.linalg.LinAlgError:  # LAPACK met an exactly zero pivot
            raise SingularHessian("Singular matrix") from None
        scale = 1.0
        for _half in range(40):
            cand = params + scale * step
            cand_ll, cand_grad, cand_step = evaluate(cand)
            if cand_ll > ll - 1e-12 * max(1.0, abs(ll)):
                break
            scale *= 0.5
        else:
            stop = f"the line search of step {steps + 1} found no rise in 40 halvings"
            break
        params, ll, grad, newton_step = cand, cand_ll, cand_grad, cand_step
        largest = np.abs(grad).max()
        steps += 1
        if np.abs(params).max() > MAX_COEF:
            raise Separation(f"coefficient magnitude exceeded {MAX_COEF}")
    if largest > 1e-5:  # a stop short of GRAD_TOL may still be close enough
        raise SingularHessian(f"Newton stalled: {stop}; max |gradient| {largest:.3g}")
    return params, ll, steps


def _prepare(design: Design):
    """Read the design's count matrix, drop its empty responses, refuse fewer than 2, and prune the columns.

    Row r of the matrix counts the responses after the r-th seen pattern of
    lagged states, in base-k order with the state at lag 1 as the last
    digit; its columns are the responses seen, whose original codes are
    the categories kept.  Those are the responses at the design's rows,
    not the series' categories: a category seen only in the first ``lag``
    positions, or only next to a missing value, is never a response and
    would otherwise leave an empty response class, whose coefficients
    diverge (``Separation``).  Returns the patterns' pruned covariates,
    the count matrix, the categories, the column names and the notes.
    """
    k = design.k
    table = design.table.reshape(-1, k)
    responses = table.sum(axis=0)
    patterns = np.flatnonzero(table.sum(axis=1))
    present = np.flatnonzero(responses)
    if len(present) < 2:
        raise DarcatError("response takes fewer than 2 distinct values")
    notes = []
    if len(present) < k:
        notes.append(f"empty response categories {(np.flatnonzero(responses == 0) + 1).tolist()} collapsed out")
    counts = table[np.ix_(patterns, present)].astype(float)
    # the state at lag d is base-k digit d - 1 of the pattern, state j as j - 1; state k is the reference
    blocks = [(patterns // k ** (d - 1) % k)[:, None] == np.arange(k - 1) for d in range(1, design.lag + 1)]
    X = np.concatenate([np.ones((patterns.size, 1)), *blocks], axis=1)
    # linear dependence between columns shows on the distinct patterns alone
    X, names, more_notes = _prune_columns(X, design.column_names)
    for a in (X, counts):  # shared by every fit of the design
        a.setflags(write=False)
    return X, counts, (present + 1).tolist(), names, notes + more_notes


def fit_multinomial(design: Design) -> GlmFit:
    """Fit the multinomial logit by maximising the partial likelihood.

    Category probabilities are exp(b_j'x) / (1 + sum_q exp(b_q'x)) with
    the highest retained category as reference.  A design is saturated
    when it has as many patterns as columns and no zero count: each
    pattern then has free probabilities, fitted by its response shares,
    so the coefficients B solve the square system X B' = log(N_pj / N_p,ref)
    and Newton starts there, only to check the coefficient bound and the
    gradient.  Every other design starts at zero.
    """
    X, counts, categories, names, notes = design._prepared
    k_eff = len(categories)
    p = X.shape[1]
    if counts.shape[0] == p and np.all(counts):
        start = np.linalg.solve(X, np.log(counts[:, :-1] / counts[:, -1:])).T.ravel()
    else:
        start = np.zeros((k_eff - 1) * p)
    params, ll, steps = _newton(_multinomial_evaluation(X, counts), start)
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


def _logistic(x: np.ndarray) -> np.ndarray:
    """F(x) = 1 / (1 + exp(-x)), as where(x >= 0, 1, e) / (1 + e) with e = exp(-|x|).

    e lies in [0, 1], so nothing overflows: F(-inf) = 0 and F(+inf) = 1
    exactly, with no floating-point warning.
    """
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _po_pieces(params: np.ndarray, X: np.ndarray, ends: np.ndarray, theta: np.ndarray):
    """The pieces of P(Y = y_c | x_c) = L_c = F(D_hi v)_c - F(D_lo v)_c, F the logistic function.

    ``theta`` is the fit's buffer (-inf, cutpoints, +inf), whose cutpoints
    are written from ``params``, and ``ends`` holds, per cell, the index
    into it of the cutpoint above y_c (row 0) and below it (row 1).  The
    cutpoint above y = k_eff and the one below y = 1 do not exist: they sit
    at +inf and -inf, where F is 1 and 0 and its derivatives F' = F(1-F)
    and F'' = F'(1-2F) vanish, so those cells drop out of the gradient and
    Hessian with no mask.  Returns L and, for both sides stacked, F and
    F'/L; None if some L_c <= 0.
    """
    q = theta.size - 2
    theta[1:-1] = params[:q]
    f = _logistic(theta[ends] - X @ params[q:])
    lik = f[0] - f[1]
    if lik.min() <= 0:
        return None
    return lik, f, f * (1.0 - f) / lik


def _po_evaluation(X: np.ndarray, y: np.ndarray, k_eff: int, counts: np.ndarray):
    """The evaluation function of one proportional-odds fit on the cells ``X``, ``y`` with ``counts``.

    It maps ``params`` to the log partial likelihood, the gradient and a
    thunk that solves the Hessian built from the same pieces for the Newton
    step; a point with some L_c <= 0 has log-likelihood -inf, a zero
    gradient and no step.
    """
    q = k_eff - 1
    ends = np.array([y, y - 1])
    theta = np.full(q + 2, np.inf)
    theta[0] = -np.inf
    # D_hi over D_lo: row c holds the one-hot of the cutpoint ends[:, c] of (-inf, cutpoints, +inf), then -x_c
    d = np.empty((2, y.size, q + X.shape[1]))
    d[:, :, :q] = np.eye(q + 2, q, -1)[ends]
    d[:, :, q:] = -X
    d = d.reshape(2 * y.size, -1)
    # and their signed count weights
    signed = np.concatenate([counts, -counts])

    def evaluate(params: np.ndarray):
        pieces = _po_pieces(params, X, ends, theta)
        if pieces is None:
            return -np.inf, np.zeros_like(params), None
        lik, f, fp = pieces
        grad = (fp.ravel() * signed) @ d
        return float(counts @ np.log(lik)), grad, lambda: np.linalg.solve(_po_hessian(d, signed, f, fp), -grad)

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
    empirical cumulative logits, strictly increasing, and the likelihood
    keeps them so.  Empty response categories are collapsed out first and
    flagged in the notes.
    """
    X_patterns, counts, categories, names, notes = design._prepared
    k_eff = len(categories)
    q = k_eff - 1
    cum = np.cumsum(counts.sum(axis=0) / design.n_used)[:q]
    # the cells are the non-zero (response, pattern) counts: L at an empty cell may underflow to 0
    response, pattern = np.nonzero(counts.T)
    X = X_patterns[pattern, 1:]  # cutpoints take the intercept's role
    start = np.concatenate([np.log(cum / (1.0 - cum)), np.zeros(X.shape[1])])
    params, ll, steps = _newton(_po_evaluation(X, response + 1, k_eff, counts.T[response, pattern]), start)
    return GlmFit(
        family="ProportionalOdds",
        lag=design.lag,
        coefficients=params[q:],
        log_pl=ll,
        n_params=q + X.shape[1],
        n_used=design.n_used,
        categories=tuple(categories),
        column_names=names[1:],
        cutpoints=params[:q],
        notes=tuple(notes),
        iterations=steps,
    )


_FITTERS = {
    "categorical": fit_multinomial,
    "ordinal": fit_proportional_odds,
}


@dataclass(frozen=True)
class AicRow:
    """One lag of an AIC table: the fit :func:`aic_tables` made, or the error that stopped that lag.

    ``n_used`` counts the rows fitted or tried on, None if no design could be built.
    """

    lag: int
    n_used: int | None
    fit: GlmFit | None = None
    error: str | None = None


@dataclass(frozen=True)
class AicTable:
    """One family's AIC rows, a row per lag, and the lag of least AIC (None if no lag was fitted)."""

    family: str
    rows: tuple[AicRow, ...]
    best_lag: int | None


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
    across different sample sizes is not formally comparable.  Each row
    holds the fit its AIC comes from, on the rows it counts.  Failed fits
    become NA rows instead of aborting the table; their n is that of the
    rows the fit was attempted on.  A design that cannot be built is the
    same NA row in every family.  An unknown family, no lag or a lag
    outside 0, 1, 2 is refused before any fit.
    """
    for family in families:
        if family not in _FITTERS:
            raise DarcatError(f"family must be one of {sorted(_FITTERS)}, got {family!r}")
    if not lags or not set(lags) <= {0, 1, 2}:
        raise DarcatError(f"lags must be one or more of 0, 1 and 2, got {tuple(lags)}")
    lags = tuple(sorted(set(lags)))
    rows: list[list[AicRow]] = [[] for _ in families]
    for lag in lags:
        design = None
        try:
            design = build_design(series, lag)
            if common_rows and lag < lags[-1]:
                # the rows usable at the largest lag: its windows, summed over their oldest values
                design = Design(series, lag, lags[-1])
                if design.n_used == 0:
                    raise NoUsableRows("no rows in the common usable set")
        except DarcatError as exc:
            failed = AicRow(lag=lag, n_used=None if design is None else design.n_used, error=str(exc))
            for family_rows in rows:
                family_rows.append(failed)
            continue
        for family, family_rows in zip(families, rows):
            try:
                row = AicRow(lag=lag, n_used=design.n_used, fit=_FITTERS[family](design))
            except DarcatError as exc:
                row = AicRow(lag=lag, n_used=design.n_used, error=str(exc))
            family_rows.append(row)
    tables = []
    for family, family_rows in zip(families, rows):
        fitted = [r for r in family_rows if r.fit is not None]
        best = min(fitted, key=lambda r: r.fit.aic).lag if fitted else None
        tables.append(AicTable(family=family, rows=tuple(family_rows), best_lag=best))
    return tuple(tables)
