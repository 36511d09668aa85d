"""Command-line front end: simulate, fit, test, compare and reproduce tables.

Subcommands
-----------
simulate          draw a DAR(1) series (optionally with missing values) to CSV
fit-dar           estimate (pi, alpha, beta) and run the three independence tests
test              run the independence tests only
fit-glm           fit lagged regressions per family and rank lags by AIC
reproduce-tables  run the full simulation study grid and emit its four tables

Data goes to files or standard output; diagnostics go to standard error.
Every command is deterministic given its flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import montecarlo, render
from .core import CatSeries, DarcatError, StateSpace, parse_series, serialize_series
from .dar import DarModel, MissingDarModel, simulate, simulate_with_missing
from .estimate import (
    estimate_alpha_ls,
    estimate_alpha_mle,
    estimate_alpha_mle_gapped,
    estimate_beta,
    estimate_pi,
)
from .glm import aic_tables
from .independence import TestReport, chi_square_test, longest_run_test, runs_count_test

__all__ = ["main"]


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read_text(path: str) -> str:
    """A text input file; a UTF-8 byte-order mark is skipped."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DarcatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_states(path: str) -> StateSpace:
    """States file: one label per line, file order = ordinal order."""
    labels = [ln.strip() for ln in _read_text(path).splitlines() if ln.strip()]
    return StateSpace(tuple(labels), ordinal=True)


def _load_series(paths: list[str], space: StateSpace) -> CatSeries:
    """Parse one or more CSV files; several files are concatenated in order."""
    parts = [parse_series(_read_text(p), space) for p in paths]
    if len(parts) == 1:
        return parts[0]
    return CatSeries(space, np.concatenate([s.obs for s in parts]), np.concatenate([s.stamps() for s in parts]))


def _parse_pi(text: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise DarcatError(f"--pi must be a comma list of numbers, got {text!r}") from None
    if not np.isfinite(values).all():
        raise DarcatError(f"--pi components must be finite, got {text!r}")
    if values.size < 2 or np.any(values <= 0):
        raise DarcatError("--pi needs at least two positive components")
    if abs(values.sum() - 1.0) > 1e-3:
        raise DarcatError(f"--pi must sum to 1, got {values.sum()}")
    return values / values.sum()


def _parse_lags(text: str) -> tuple[int, ...]:
    try:
        lags = {int(v) for v in text.split(",")}
    except ValueError:
        lags = None
    if lags is None or not lags <= {0, 1, 2}:
        raise DarcatError(f"--lags must be a comma list from {{0,1,2}}, got {text!r}")
    return tuple(sorted(lags))


def _apply_policy(series: CatSeries, policy: str) -> tuple[CatSeries, str]:
    if not series.has_missing:
        return series, "series complete, no missing-value policy needed"
    if policy == "drop":
        return series.drop_missing(), "policy drop: missing values removed, gaps closed"
    kept = series.longest_complete_segment()
    return kept, f"policy longest-segment: testing the longest complete run ({len(kept)} positions)"


def _unobserved_note(gone: tuple[str, ...]) -> str:
    """Tests need strictly positive state probabilities, so unobserved categories are projected out."""
    return f"unobserved categories {list(gone)} projected out for testing"


def _fmt_report(rep: TestReport | None, reason: str | None = None) -> str:
    if rep is None:
        return f"NA ({reason})"
    parts = [f"stat={rep.statistic:.4f}"]
    if rep.p_value is not None:
        parts.append(f"p={rep.p_value:.4f}")
    if "band_lower" in rep.extras:
        parts.append(f"band=[{rep.extras['band_lower']:.3f}, {rep.extras['band_upper']:.3f}]")
    parts.append("reject" if rep.reject else "accept")
    if rep.power is not None:
        parts.append(f"power={rep.power:.3f}")
    return " ".join(parts)


def _run_tests(series: CatSeries, level: float, alpha1: float | None):
    """The three tests with per-test degradation to NA."""
    out: dict[str, tuple[TestReport | None, str | None]] = {}
    for name, runner in (
        ("chi_square", lambda: chi_square_test(series, level=level)),
        ("runs_count", lambda: runs_count_test(series, level=level)),
        (
            "longest_run",
            lambda: longest_run_test(
                series,
                level=level,
                alpha1=alpha1 if alpha1 is not None and 0.0 <= alpha1 < 1.0 else None,
            ),
        ),
    ):
        try:
            out[name] = (runner(), None)
        except DarcatError as exc:
            out[name] = (None, str(exc))
    return out


def _test_lines(tests, heading: str) -> list[str]:
    """The heading, then one line per test, each followed by its notes."""
    lines = [heading]
    for name, (rep, reason) in tests.items():
        lines.append(f"  {name}: {_fmt_report(rep, reason)}")
        if rep is not None:
            lines.extend(f"    note: {note}" for note in rep.notes)
    return lines


def cmd_simulate(args: argparse.Namespace) -> int:
    pi = _parse_pi(args.pi)
    space = _read_states(args.states) if args.states else StateSpace.from_k(pi.size)
    model = DarModel(alpha=args.alpha, pi=pi, space=space)
    if args.beta is not None:
        series = simulate_with_missing(MissingDarModel(model, args.beta), args.n, args.seed)
    else:
        series = simulate(model, args.n, args.seed)
    text = serialize_series(series)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    beta_txt = f" beta={args.beta}" if args.beta is not None else ""
    _err(
        f"simulated {len(series)} observations (n={args.n}) from alpha={args.alpha} "
        f"pi=({','.join(f'{v:g}' for v in pi)}){beta_txt} seed={args.seed}; "
        f"{series.n_missing} missing"
    )
    return 0


def _fit_dar_csv(pi_hat, a1, a2, beta, tests) -> str:
    """The one-row csv table of ``fit-dar``: floats to six decimals, flags as 0/1, NA where absent."""

    def num(val) -> str:
        if val is None:
            return "NA"
        return f"{val:.6f}" if isinstance(val, float) else str(int(val))

    def test(name, *attrs) -> list[str]:
        rep = tests[name][0]
        return [num(None if rep is None else getattr(rep, attr)) for attr in attrs]

    header = (
        "pi_hat,alpha1,alpha1_converged,alpha2,alpha2_converged,beta_missing,observed_fraction,"
        "chi2_stat,chi2_p,chi2_reject,runs_stat,runs_p,runs_reject,"
        "longest_stat,longest_reject,longest_power"
    ).split(",")
    row = [
        "(" + ";".join(f"{v:.3f}" for v in pi_hat) + ")",
        num(a1.alpha_hat),
        num(a1.converged),
        num(None if a2 is None else a2.alpha_hat),
        num(None if a2 is None else a2.converged),
        num(beta),
        num(1.0 - beta),
        *test("chi_square", "statistic", "p_value", "reject"),
        *test("runs_count", "statistic", "p_value", "reject"),
        *test("longest_run", "statistic", "reject", "power"),
    ]
    return render.table("csv", header, [row])


def cmd_fit_dar(args: argparse.Namespace) -> int:
    space = _read_states(args.states)
    series = _load_series(args.input, space)
    pi_est = estimate_pi(series)
    beta = estimate_beta(series)
    if series.has_missing:
        a1 = estimate_alpha_mle_gapped(series)
        a1_label = "alpha1 (MLE, gap-aware)"
    else:
        a1 = estimate_alpha_mle(series, pi_est.pi_hat)
        a1_label = "alpha1 (MLE)"
    try:
        policy_series, policy_note = _apply_policy(series, args.missing_policy)
        test_series, gone = policy_series.restrict_to_observed()
    except DarcatError as exc:
        test_series, gone = None, ()
        policy_note = f"policy {args.missing_policy}: unusable ({exc})"
    if test_series is not None:
        try:
            a2 = estimate_alpha_ls(test_series, estimate_pi(test_series).pi_hat)
        except DarcatError as exc:
            a2, a2_err = None, str(exc)
        else:
            a2_err = None
        tests = _run_tests(test_series, args.level, a1.alpha_hat)
    else:
        a2, a2_err = None, "no usable test series"
        tests = {name: (None, "no usable test series") for name in ("chi_square", "runs_count", "longest_run")}

    csv = _fit_dar_csv(pi_est.pi_hat, a1, a2, beta, tests)
    if args.format == "csv":
        sys.stdout.write(csv)
    else:
        lines = [
            f"series: {', '.join(args.input)}",
            f"  {len(series)} positions, k={space.k} categories, {series.n_missing} missing",
            f"  {policy_note}",
        ]
        if gone:
            lines.append(f"  {_unobserved_note(gone)}")
        lines += [
            "estimates (full series):",
            "  pi_hat: (" + ";".join(f"{v:.3f}" for v in pi_est.pi_hat) + f")  [n_obs={pi_est.n_obs}]",
            f"  {a1_label}: {a1.alpha_hat:.4f}" + ("" if a1.converged else "  [not admissible]"),
        ]
        if a2 is not None:
            lines.append(
                f"  alpha2 (least squares, on policy series): {a2.alpha_hat:.4f}"
                + ("" if a2.converged else "  [outside [0,1)]")
            )
        else:
            lines.append(f"  alpha2 (least squares): NA ({a2_err})")
        lines.append(f"  beta_hat (missing probability): {beta:.4f}   observed fraction: {1 - beta:.4f}")
        lines += _test_lines(tests, f"independence tests at level {args.level} (on policy series):")
        sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        Path(args.out).write_text(csv, encoding="utf-8")
    return 0


def cmd_test(args: argparse.Namespace) -> int:
    space = _read_states(args.states)
    series = _load_series(args.input, space)
    policy_series, policy_note = _apply_policy(series, args.missing_policy)
    test_series, gone = policy_series.restrict_to_observed()
    _err(policy_note)
    if gone:
        _err(_unobserved_note(gone))
    tests = _run_tests(test_series, args.level, None)
    lines = _test_lines(tests, f"independence tests at level {args.level}:")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_fit_glm(args: argparse.Namespace) -> int:
    space = _read_states(args.states)
    series = _load_series(args.input, space)
    lags = _parse_lags(args.lags)
    families = ("categorical", "ordinal") if args.family == "both" else (args.family,)
    tables = aic_tables(series, families, lags=lags, common_rows=args.common_rows)
    out_text = "\n".join(table.render(args.format) for table in tables)
    sys.stdout.write(out_text)
    if args.out:
        Path(args.out).write_text(out_text, encoding="utf-8")
    return 0


def cmd_reproduce_tables(args: argparse.Namespace) -> int:
    grid = montecarlo.study_grid(m=args.m, seed=args.seed)
    results = montecarlo.run_grid(grid)
    grouped = montecarlo.results_by_pi(results)
    outdir = Path(args.out) if args.out else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    for i, (pi, cells) in enumerate(grouped.items(), start=1):
        title = "pi=(" + ";".join(f"{v:g}" for v in pi) + f"), m={grid.m}"
        body = montecarlo.format_cells(cells, args.format)
        if outdir:
            path = outdir / f"table{i}.{args.format}"
            path.write_text(body, encoding="utf-8")
            _err(f"wrote {path} ({title})")
        else:
            sys.stdout.write(f"# {title}\n{body}\n")
    return 0


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: an argument it does not take is reported with its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="darcat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    def option(*args, **kwargs) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*args, **kwargs)
        return parent

    # each subcommand takes only the options it reads
    states = option("--states", help="states file: one label per line, file order = ordinal order")
    level = option("--level", type=float, default=0.05, help="test level (default 0.05)")
    seed = option("--seed", type=int, default=montecarlo.DEFAULT_SEED, help="random seed (default %(default)s)")
    out = option("--out", help="output file (or directory for reproduce-tables)")
    policy = option(
        "--missing-policy",
        choices=("drop", "longest-segment"),
        default="longest-segment",
        help="how tests handle missing values (default longest-segment)",
    )
    csv_txt = option("--format", choices=("csv", "txt"), default="txt")
    tables = option("--format", choices=render.FORMATS, default="txt")

    p = sub.add_parser("simulate", parents=[states, seed, out], help="simulate a DAR(1) series to CSV")
    p.add_argument("--alpha", type=float, required=True, help="persistence in [0,1)")
    p.add_argument("--pi", required=True, help="comma list of state probabilities")
    p.add_argument("--n", type=int, required=True, help="number of steps (writes n+1 rows)")
    p.add_argument("--beta", type=float, default=None, help="missing-value probability")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "fit-dar", parents=[states, level, out, policy, csv_txt], help="fit the DAR(1) model and run the tests"
    )
    p.add_argument("input", nargs="+", help="series CSV file(s); several files are concatenated")
    p.set_defaults(func=cmd_fit_dar)

    p = sub.add_parser("test", parents=[states, level, policy], help="run the three independence tests")
    p.add_argument("input", nargs="+")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("fit-glm", parents=[states, out, tables], help="lagged regression with AIC comparison")
    p.add_argument("input", nargs="+")
    p.add_argument("--family", choices=("categorical", "ordinal", "both"), default="both")
    p.add_argument("--lags", default="0,1,2", help="comma list from {0,1,2} (default 0,1,2)")
    p.add_argument(
        "--common-rows",
        action="store_true",
        help="restrict every lag to the rows usable at the largest lag",
    )
    p.set_defaults(func=cmd_fit_glm)

    p = sub.add_parser("reproduce-tables", parents=[seed, out, tables], help="run the simulation study grid")
    p.add_argument("--m", type=int, default=100, help="replicates per cell (default 100)")
    p.set_defaults(func=cmd_reproduce_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "command", None) in ("fit-dar", "test", "fit-glm") and not args.states:
        _err("error: --states is required for this command")
        return 2
    if getattr(args, "command", None) in ("fit-dar", "test") and not 0.0 < args.level < 1.0:
        _err(f"error: --level must lie in (0, 1), got {args.level}")
        return 2
    try:
        return args.func(args)
    except (DarcatError, OSError) as exc:
        _err(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
