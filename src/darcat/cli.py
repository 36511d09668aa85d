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
import codecs
import functools
import sys
from pathlib import Path

import numpy as np

from . import montecarlo, render
from .core import CatSeries, DarcatError, NotUtf8, StateSpace, _series_bytes, parse_series, utf8_text
from .dar import DarModel, MissingDarModel, simulate, simulate_with_missing
from .estimate import (
    estimate_alpha_ls,
    estimate_alpha_mle,
    estimate_alpha_mle_gapped,
    estimate_beta,
    estimate_pi,
)
from .glm import aic_tables
from .independence import chi_square_test, longest_run_test, runs_count_test

__all__ = ["main"]


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read(path: str, parse):
    """``parse`` of a file's bytes, a UTF-8 byte-order mark skipped; a :class:`NotUtf8` error is given the path."""
    data = Path(path).read_bytes()
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8) :]
    try:
        return parse(data)
    except NotUtf8 as exc:
        raise NotUtf8(f"{path}: {exc}") from None


def _read_states(path: str) -> StateSpace:
    """States file: one label per line, file order = ordinal order."""
    labels = [ln.strip() for ln in _read(path, utf8_text).splitlines() if ln.strip()]
    return StateSpace(tuple(labels))


def _load_series(paths: list[str], states: str) -> CatSeries:
    """The series in the CSV files at ``paths``, over the ``states`` file's labels.

    Several files are joined in order as codes alone: the joined series
    has the implicit stamps 0..n, as no command reads a series' stamps.
    """
    space = _read_states(states)
    parts = [_read(p, lambda data: parse_series(data, space)) for p in paths]
    if len(parts) == 1:
        return parts[0]
    return CatSeries(space, np.concatenate([s.obs for s in parts]), _owned=True)


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


def nonnegative_int(text: str) -> int:  # no underscore: argparse names the type in "invalid nonnegative_int value"
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def _parse_lags(text: str) -> tuple[int, ...]:
    try:
        lags = {int(v) for v in text.split(",")}
    except ValueError:
        lags = None
    if lags is None or not lags <= {0, 1, 2}:
        raise DarcatError(f"--lags must be a comma list from {{0,1,2}}, got {text!r}")
    return tuple(sorted(lags))


def _test_series(series: CatSeries, policy: str) -> tuple[CatSeries, list[str]]:
    """The series the tests run on and its notes: ``policy`` applied, then unobserved categories projected out.

    The tests need strictly positive state probabilities, hence the projection.
    """
    if not series.has_missing:
        notes = ["series complete, no missing-value policy needed"]
    elif policy == "drop":
        series, notes = series.drop_missing(), ["policy drop: missing values removed, gaps closed"]
    else:
        series = series.longest_complete_segment()
        notes = [f"policy longest-segment: testing the longest complete run ({len(series)} positions)"]
    series, gone = series.restrict_to_observed()
    if gone:
        notes.append(f"unobserved categories {list(gone)} projected out for testing")
    return series, notes


def _or_na(step, series: CatSeries | None):
    """``(step(series), None)``, or ``(None, reason)`` when there is no series or the step raises: NA and its cause."""
    if series is None:
        return None, "no usable test series"
    try:
        return step(series), None
    except DarcatError as exc:
        return None, str(exc)


def _run_tests(series: CatSeries | None, level: float, alpha1: float | None):
    """The three tests, each NA with its cause where it cannot run."""
    alpha1 = alpha1 if alpha1 is not None and 0.0 <= alpha1 < 1.0 else None
    return {
        "chi_square": _or_na(lambda s: chi_square_test(s, level=level), series),
        "runs_count": _or_na(lambda s: runs_count_test(s, level=level), series),
        "longest_run": _or_na(lambda s: longest_run_test(s, level=level, alpha1=alpha1), series),
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    """Draw a series and write its text: to ``--out`` as the writer's UTF-8 bytes, else to stdout as str."""
    pi = _parse_pi(args.pi)
    space = _read_states(args.states) if args.states else StateSpace.from_k(pi.size)
    model = DarModel(alpha=args.alpha, pi=pi, space=space)
    if args.beta is not None:
        series = simulate_with_missing(MissingDarModel(model, args.beta), args.n, args.seed)
    else:
        series = simulate(model, args.n, args.seed)
    data = _series_bytes(series)
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.write(data.decode())
    beta_txt = f" beta={args.beta}" if args.beta is not None else ""
    _err(
        f"simulated {len(series)} observations (n={args.n}) from alpha={args.alpha} "
        f"pi=({','.join(f'{v:g}' for v in pi)}){beta_txt} seed={args.seed}; "
        f"{series.n_missing} missing"
    )
    return 0


def cmd_fit_dar(args: argparse.Namespace) -> int:
    series = _load_series(args.input, args.states)
    pi_est = estimate_pi(series)
    beta = estimate_beta(series)
    a1 = estimate_alpha_mle_gapped(series) if series.has_missing else estimate_alpha_mle(series, pi_est.pi_hat)
    made, failure = _or_na(lambda s: _test_series(s, args.missing_policy), series)
    test_series, notes = made or (None, [f"policy {args.missing_policy}: unusable ({failure})"])
    a2 = _or_na(lambda s: estimate_alpha_ls(s, estimate_pi(s).pi_hat), test_series)
    tests = _run_tests(test_series, args.level, a1.alpha_hat)
    report = functools.partial(render.fit_dar, args.input, series, pi_est, a1, a2, beta, tests, notes, args.level)
    if args.out:  # before stdout, so an unwritable --out prints no report
        Path(args.out).write_text(report("csv"), encoding="utf-8")
    sys.stdout.write(report(args.format))
    return 0


def cmd_test(args: argparse.Namespace) -> int:
    series = _load_series(args.input, args.states)
    test_series, notes = _test_series(series, args.missing_policy)
    for note in notes:
        _err(note)
    tests = _run_tests(test_series, args.level, None)
    lines = render.test_lines(tests, f"independence tests at level {args.level}:")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_fit_glm(args: argparse.Namespace) -> int:
    series = _load_series(args.input, args.states)
    lags = _parse_lags(args.lags)
    families = ("categorical", "ordinal") if args.family == "both" else (args.family,)
    tables = aic_tables(series, families, lags=lags, common_rows=args.common_rows)
    out_text = "\n".join(render.aic_table(table, args.format) for table in tables)
    if args.out:  # before stdout, as in fit-dar
        Path(args.out).write_text(out_text, encoding="utf-8")
    sys.stdout.write(out_text)
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
        body = render.study_table(cells, args.format)
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
    states_help = "states file: one label per line, file order = ordinal order"
    states = option("--states", required=True, help=states_help)
    optional_states = option("--states", help=states_help)  # simulate's: labels 1..k without it
    level = option("--level", type=float, default=0.05, help="test level (default 0.05)")
    seed = option("--seed", type=nonnegative_int, default=montecarlo.DEFAULT_SEED, help="random seed (default %(default)s)")
    out = option("--out", help="output file (or directory for reproduce-tables)")
    policy = option(
        "--missing-policy",
        choices=("drop", "longest-segment"),
        default="longest-segment",
        help="how tests handle missing values (default longest-segment)",
    )
    csv_txt = option("--format", choices=("csv", "txt"), default="txt")
    tables = option("--format", choices=render.FORMATS, default="txt")

    p = sub.add_parser("simulate", parents=[optional_states, seed, out], help="simulate a DAR(1) series to CSV")
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
    if getattr(args, "command", None) in ("fit-dar", "test") and not 0.0 < args.level < 1.0:
        _err(f"error: --level must lie in (0, 1), got {args.level}")
        return 2
    try:
        return args.func(args)
    except (DarcatError, OSError) as exc:
        _err(f"error: {exc}")
        return 2
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        _err(f"error: out of memory: {exc}" if str(exc) else "error: out of memory")
        return 2


if __name__ == "__main__":
    sys.exit(main())
