"""Every report's text: the one place that knows csv, md and txt.

The library modules return data and the writers here turn it into text,
each number through :func:`cell` and each vector of state frequencies
through :func:`pi_vector`; :func:`table` lays the cells out.  In txt each
cell is right-aligned to its column width and the cells are joined by
one space; cells past the header's length are a trailing note, appended
without alignment (csv and md rows carry none).
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["FORMATS", "aic_table", "cell", "fit_dar", "pi_vector", "study_table", "table", "test_lines"]

FORMATS = ("csv", "md", "txt")


def table(fmt: str, header: Sequence[str], rows: Sequence[Sequence[object]], widths: Sequence[int] = ()) -> str:
    """Header and rows as one csv, md or txt table; ``widths`` are the txt column widths."""
    cells = [[str(cell) for cell in row] for row in (header, *rows)]
    if fmt == "csv":
        lines = [",".join(row) for row in cells]
    elif fmt == "md":
        lines = ["| " + " | ".join(row) + " |" for row in cells]
        lines.insert(1, "|---" * len(header) + "|")
    elif fmt == "txt":
        lines = [
            " ".join(f"{cell:>{w}}" for cell, w in zip(row, widths)) + "".join(row[len(header) :]) for row in cells
        ]
    else:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    return "\n".join(lines) + "\n"


def cell(value, decimals: int = 6) -> str:
    """A number's cell: NA for None, 0/1 for a flag, an int as is and a float to ``decimals`` places."""
    if value is None:
        return "NA"
    return f"{value:.{decimals}f}" if isinstance(value, float) else str(int(value))


def pi_vector(values) -> str:
    """State frequencies as ``(0.250;0.500;0.250)``: three decimals, joined by semicolons."""
    return "(" + ";".join(f"{v:.3f}" for v in values) + ")"


def aic_table(aic, fmt: str) -> str:
    """An :class:`~darcat.glm.AicTable` as csv, md or txt text under a family title.

    csv has six decimals, NA for an unknown n and a ``best`` column; md and
    txt have four decimals and ``-`` for an unknown n, md bolds the minimum
    AIC and txt marks it, or a failed fit's error, after the row.
    """
    digits = 6 if fmt == "csv" else 4
    rows = []
    for r in aic.rows:
        best = r.lag == aic.best_lag
        n_used = "-" if r.n_used is None and fmt != "csv" else cell(r.n_used)
        if r.error is not None:
            row = [r.lag, "NA", "NA", "NA", n_used]
        else:
            score = cell(r.fit.aic, digits)
            score = f"**{score}**" if best and fmt == "md" else score
            row = [r.lag, r.fit.n_params, cell(r.fit.log_pl, digits), score, n_used]
        if fmt == "csv":
            row.append("*" if best else "")
        elif fmt == "txt" and r.error is not None:
            row.append(f"   ({r.error})")
        elif fmt == "txt" and best:
            row.append(" <- min AIC")
        rows.append(row)
    if fmt == "csv":
        title = f"# family: {aic.family}\n"
        header = ("lag", "n_params", "log_pl", "aic", "n_used", "best")
    else:
        title = f"**family: {aic.family}**\n\n" if fmt == "md" else f"family: {aic.family}\n"
        header = ("lag", "params", "logPL", "AIC", "n")
    return title + table(fmt, header, rows, (4, 7, 12, 12, 6))


def study_table(cells, fmt: str) -> str:
    """One marginal's study table as csv, md or txt text: a row per cell, NA where no replicate was admissible."""
    header = ("alpha", "n", "pi_hat", "alpha1", "m1", "alpha2", "m2")
    rows = [
        (c.alpha, c.n, pi_vector(c.mean_pi_hat), cell(c.mean_alpha1, 3), c.m1, cell(c.mean_alpha2, 3), c.m2)
        for c in cells
    ]
    return table(fmt, header, rows, (6, 5, 24, 7, 4, 7, 4))


def test_lines(tests, heading: str) -> list[str]:
    """The heading, then a line per test and its notes; ``tests`` maps a name to (report, None) or (None, why NA)."""
    lines = [heading]
    for name, (rep, reason) in tests.items():
        if rep is None:
            lines.append(f"  {name}: NA ({reason})")
            continue
        parts = [f"stat={rep.statistic:.4f}"]
        if rep.p_value is not None:
            parts.append(f"p={rep.p_value:.4f}")
        if "band_lower" in rep.extras:
            parts.append(f"band=[{rep.extras['band_lower']:.3f}, {rep.extras['band_upper']:.3f}]")
        parts.append("reject" if rep.reject else "accept")
        if rep.power is not None:
            parts.append(f"power={rep.power:.3f}")
        lines.append(f"  {name}: {' '.join(parts)}")
        lines.extend(f"    note: {note}" for note in rep.notes)
    return lines


def fit_dar(paths, series, pi_est, a1, a2, beta: float, tests, notes, level: float, fmt: str) -> str:
    """The ``fit-dar`` report of ``series``, read from ``paths``: a csv row, or txt prose.

    csv has floats to six decimals, flags as 0/1 and NA where absent.  txt
    names the series and its test-series ``notes``, then the estimates and
    :func:`test_lines` at ``level``.  ``a2``, as each of ``tests``, is
    (estimate, None) or (None, why NA).
    """
    a2, a2_err = a2
    if fmt == "csv":

        def fields(obj, *attrs) -> list:
            return [None if obj is None else getattr(obj, attr) for attr in attrs]

        header = (
            "pi_hat,alpha1,alpha1_converged,alpha2,alpha2_converged,beta_missing,observed_fraction,"
            "chi2_stat,chi2_p,chi2_reject,runs_stat,runs_p,runs_reject,"
            "longest_stat,longest_reject,longest_power"
        ).split(",")
        values = [
            *fields(a1, "alpha_hat", "converged"),
            *fields(a2, "alpha_hat", "converged"),
            beta,
            1.0 - beta,
            *fields(tests["chi_square"][0], "statistic", "p_value", "reject"),
            *fields(tests["runs_count"][0], "statistic", "p_value", "reject"),
            *fields(tests["longest_run"][0], "statistic", "reject", "power"),
        ]
        return table("csv", header, [[pi_vector(pi_est.pi_hat), *map(cell, values)]])
    a1_label = "alpha1 (MLE, gap-aware)" if series.has_missing else "alpha1 (MLE)"
    if a2 is None:
        a2_line = f"alpha2 (least squares): NA ({a2_err})"
    else:
        a2_line = f"alpha2 (least squares, on policy series): {a2.alpha_hat:.4f}"
        a2_line += "" if a2.converged else "  [outside [0,1)]"
    lines = [
        f"series: {', '.join(paths)}",
        f"  {len(series)} positions, k={series.space.k} categories, {series.n_missing} missing",
        *(f"  {note}" for note in notes),
        "estimates (full series):",
        f"  pi_hat: {pi_vector(pi_est.pi_hat)}  [n_obs={pi_est.n_obs}]",
        f"  {a1_label}: {a1.alpha_hat:.4f}" + ("" if a1.converged else "  [not admissible]"),
        f"  {a2_line}",
        f"  beta_hat (missing probability): {beta:.4f}   observed fraction: {1 - beta:.4f}",
        *test_lines(tests, f"independence tests at level {level} (on policy series):"),
    ]
    return "\n".join(lines) + "\n"
