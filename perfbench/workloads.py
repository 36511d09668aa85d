"""The benchmark workloads: their operations through ``darcat.cli.main`` and their output checks.

Every operation is a ``darcat`` command run in-process.  ``cli.main`` is
looked up on the module at each call, so a tracer that rebinds it sees
every call.  An operation fails when it raises, exits non-zero or fails
its output check; :meth:`Workload.check` returns the reason, or None.

Checks on any seed compare the outputs with facts the benchmark knows
independently of the program (its own inputs, counts it makes itself,
published values, internal consistency).  On :data:`REFERENCE_SEED` they
also compare with outputs captured at commit 23b4cfc, within the
tolerances stated below.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np
from darcat import cli

import inputs

REFERENCE_SEED = 2
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
LEVEL = 0.05

# Study tables are printed with 3 decimals: a mean may move by one unit in
# the last place (summation order) and still count as equal.
STUDY_TOL = 0.001 + 1e-9
# n = 500 alpha means on any seed, against the published table.  The
# release gate holds the published seed to 0.02; across 12 other master
# seeds the worst deviation measured at commit 23b4cfc was 0.018, because
# the published means carry Monte Carlo error of their own.  0.03 keeps a
# correct program passing on every seed.
PUBLISHED_TOL = 0.03
# fit-dar and fit-glm print 6 decimals; estimates, statistics and AIC
# values must match the reference within this absolute (or relative) tolerance.
REF_ABS_TOL = 1e-4
REF_REL_TOL = 1e-6
# Long records: n = 10^6, so both alpha estimates sit within a few 1e-3 of the truth.
LONG_ALPHA_TOL = 0.01

FIT_DAR_FIELDS = (
    "pi_hat,alpha1,alpha1_converged,alpha2,alpha2_converged,beta_missing,observed_fraction,"
    "chi2_stat,chi2_p,chi2_reject,runs_stat,runs_p,runs_reject,longest_stat,longest_reject,longest_power"
).split(",")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one darcat command in-process; returns its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def _num(cell: str) -> float | None:
    return None if cell == "NA" else float(cell)


def _close(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= max(REF_ABS_TOL, REF_REL_TOL * abs(b))


def _pi_text(counts: np.ndarray) -> str:
    """pi_hat exactly as fit-dar prints it, from the benchmark's own counts."""
    return "(" + ";".join(f"{v:.3f}" for v in counts / counts.sum()) + ")"


def parse_fit_dar(text: str) -> dict[str, str]:
    lines = text.strip().splitlines()
    if len(lines) != 2 or lines[0].split(",") != FIT_DAR_FIELDS:
        raise ValueError(f"fit-dar csv: unexpected layout {lines[:1]}")
    cells = lines[1].split(",")
    if len(cells) != len(FIT_DAR_FIELDS):
        raise ValueError("fit-dar csv: wrong number of cells")
    return dict(zip(FIT_DAR_FIELDS, cells))


def check_fit_dar_ranges(row: dict[str, str]) -> str | None:
    """Range and consistency checks that hold on any input."""
    a1 = float(row["alpha1"])
    if not 0.0 <= a1 <= 1.0 or row["alpha1_converged"] not in ("0", "1"):
        return f"alpha1 {row['alpha1']} converged={row['alpha1_converged']}"
    a2 = _num(row["alpha2"])
    if a2 is not None:
        # a value printed as 0 or 1 may lie just outside [0, 1): either flag is then consistent
        at_edge = min(abs(a2), abs(a2 - 1.0)) < 1e-6
        flag = row["alpha2_converged"]
        if not math.isfinite(a2) or flag not in ("0", "1") or (not at_edge and flag != str(int(0.0 <= a2 < 1.0))):
            return f"alpha2 {row['alpha2']} converged={flag}"
    for test, p_key in (("chi2", "chi2_p"), ("runs", "runs_p")):
        p = _num(row[p_key])
        reject = row[f"{test}_reject"]
        if p is None:
            if reject != "NA":
                return f"{test}: decision without p-value"
            continue
        if not 0.0 <= p <= 1.0:
            return f"{test}: p-value {p} outside [0, 1]"
        if abs(p - LEVEL) > 1e-6 and reject != str(int(p < LEVEL)):
            return f"{test}: reject={reject} disagrees with p={p}"
    power = _num(row["longest_power"])
    if power is not None and not 0.0 <= power <= 1.0:
        return f"longest-run power {power} outside [0, 1]"
    if row["longest_reject"] not in ("0", "1", "NA"):
        return f"longest_reject {row['longest_reject']}"
    return None


def compare_fit_dar(row: dict[str, str], ref: dict[str, str]) -> str | None:
    for key in FIT_DAR_FIELDS:
        got, want = row[key], ref[key]
        if key == "pi_hat" or key.endswith("_converged") or key.endswith("_reject"):
            if got != want:
                return f"{key} {got} != reference {want}"
        elif not _close(_num(got), _num(want)):
            return f"{key} {got} != reference {want}"
    return None


class Workload:
    """Fixed work for one pass, split into operations, with a check per operation."""

    name = ""
    unit = ""  # what units_per_s counts

    def __init__(self, seed: int, workdir: Path, use_reference: bool = True) -> None:
        self.seed = seed
        self.workdir = workdir
        self.reference = None
        if use_reference and seed == REFERENCE_SEED:
            path = REFERENCE_DIR / f"{self.name}.json"
            self.reference = json.loads(path.read_text(encoding="utf-8"))

    @property
    def units_per_pass(self) -> int:
        raise NotImplementedError

    def ops(self) -> list[tuple[str, Callable[[], object]]]:
        raise NotImplementedError

    def snapshot(self, label: str, output) -> object:
        """The comparable part of one operation's output (what the reference stores)."""
        raise NotImplementedError

    def check(self, label: str, output) -> str | None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError


# -- study -------------------------------------------------------------------

STUDY_M = 100
STUDY_TABLES = 4
STUDY_ROWS = [(a, n) for a in (0.1, 0.2, 0.5, 0.8, 0.9) for n in (50, 100, 500)]


def parse_study_table(text: str) -> list[list]:
    """Rows ``[alpha, n, pi_hat list, alpha1, m1, alpha2, m2]`` of one table csv."""
    lines = text.strip().splitlines()
    if lines[0] != "alpha,n,pi_hat,alpha1,m1,alpha2,m2":
        raise ValueError(f"study table: unexpected header {lines[0]!r}")
    rows = []
    for ln in lines[1:]:
        alpha, n, pi, a1, m1, a2, m2 = ln.split(",")
        pis = [float(v) for v in pi.strip("()").split(";")]
        rows.append([float(alpha), int(n), pis, _num(a1), int(m1), _num(a2), int(m2)])
    return rows


class Study(Workload):
    """``darcat reproduce-tables --m 100`` with the workload seed as master seed."""

    name = "study"
    unit = "replicates"

    def __init__(self, seed: int, workdir: Path, use_reference: bool = True) -> None:
        super().__init__(seed, workdir, use_reference)
        self.outdir = workdir / "tables"
        self.published = json.loads((REFERENCE_DIR / "published_n500.json").read_text(encoding="utf-8"))

    @property
    def units_per_pass(self) -> int:
        return STUDY_TABLES * len(STUDY_ROWS) * STUDY_M

    def _argv(self, m: int) -> list[str]:
        out = ["--out", str(self.outdir), "--format", "csv"]
        return ["reproduce-tables", "--m", str(m), *out, "--seed", str(self.seed)]

    def _op(self, m: int) -> int:
        shutil.rmtree(self.outdir, ignore_errors=True)  # no stale tables from an earlier pass
        return run_cli(self._argv(m))[0]

    def ops(self):
        return [("reproduce-tables", lambda: self._op(STUDY_M))]

    def warm_up(self) -> None:
        self._op(1)

    def snapshot(self, label, output):
        return [
            parse_study_table((self.outdir / f"table{i}.csv").read_text(encoding="utf-8"))
            for i in range(1, STUDY_TABLES + 1)
        ]

    def check(self, label, output):
        if output != 0:
            return f"exit code {output}"
        tables = self.snapshot(label, output)
        for t, rows in enumerate(tables):
            if [(r[0], r[1]) for r in rows] != STUDY_ROWS:
                return f"table {t + 1}: rows are not the (alpha, n) grid"
            for alpha, n, pis, a1, m1, a2, m2 in rows:
                where = f"table {t + 1} alpha={alpha} n={n}"
                if not (0 <= m1 <= STUDY_M and 0 <= m2 <= STUDY_M):
                    return f"{where}: m1={m1} m2={m2} outside 0..{STUDY_M}"
                for mean, count in ((a1, m1), (a2, m2)):
                    if (mean is None) != (count == 0) or (mean is not None and not 0.0 <= mean < 1.0):
                        return f"{where}: mean {mean} with {count} admissible replicates"
                if abs(sum(pis) - 1.0) > 0.0015 * len(pis):
                    return f"{where}: pi_hat {pis} does not sum to 1"
                if n == 500:
                    want1, want2 = self.published[t][str(alpha)]
                    if abs(a1 - want1) > PUBLISHED_TOL or abs(a2 - want2) > PUBLISHED_TOL:
                        return f"{where}: means ({a1}, {a2}) vs published ({want1}, {want2})"
        if self.reference is not None:
            for t, (rows, ref_rows) in enumerate(zip(tables, self.reference["tables"])):
                for row, ref in zip(rows, ref_rows):
                    where = f"table {t + 1} alpha={row[0]} n={row[1]}"
                    if row[4] != ref[4] or row[6] != ref[6]:
                        return f"{where}: m1/m2 {row[4]}/{row[6]} != reference {ref[4]}/{ref[6]}"
                    pairs = list(zip(row[2], ref[2])) + [(row[3], ref[3]), (row[5], ref[5])]
                    if any((a is None) != (b is None) or (a is not None and abs(a - b) > STUDY_TOL) for a, b in pairs):
                        return f"{where}: means {row} != reference {ref}"
        return None


# -- field -------------------------------------------------------------------


def parse_fit_glm(text: str) -> dict[str, list[list]]:
    """Per family, rows ``[lag, n_params, log_pl, aic, n_used, best]`` (None for NA)."""
    out: dict[str, list[list]] = {}
    rows = None
    for ln in text.splitlines():
        if ln.startswith("# family: "):
            rows = out.setdefault(ln[len("# family: ") :], [])
        elif ln and not ln.startswith("lag,") and rows is not None:
            lag, p, ll, aic, n_used, best = ln.split(",")
            rows.append([int(lag), _num(p), _num(ll), _num(aic), _num(n_used), best == "*"])
    return out


class Field(Workload):
    """Per-site survey series, each through ``fit-dar`` and then ``fit-glm --family both``."""

    name = "field"
    unit = "series"

    def __init__(self, seed: int, workdir: Path, use_reference: bool = True) -> None:
        super().__init__(seed, workdir, use_reference)
        self.series = inputs.field_series(seed)
        self.states = {}
        for k, labels in inputs.FIELD_LABELS.items():
            path = workdir / f"states_k{k}.txt"
            path.write_text("\n".join(labels) + "\n", encoding="utf-8")
            self.states[k] = str(path)
        self.paths = {}
        for s in self.series:
            path = workdir / f"{s.name}.csv"
            path.write_text(s.csv(), encoding="utf-8")
            self.paths[s.name] = str(path)
        self.by_name = {s.name: s for s in self.series}

    @property
    def units_per_pass(self) -> int:
        return len(self.series)

    def _op(self, s: inputs.FieldSeries):
        states = self.states[s.k]
        path = self.paths[s.name]
        return (
            run_cli(["fit-dar", path, "--states", states, "--format", "csv", "--level", str(LEVEL)]),
            run_cli(["fit-glm", path, "--states", states, "--format", "csv", "--family", "both"]),
        )

    def ops(self):
        return [(s.name, lambda s=s: self._op(s)) for s in self.series]

    def warm_up(self) -> None:
        self._op(self.series[0])

    def snapshot(self, label, output):
        (_, dar_text), (_, glm_text) = output
        return {"fit_dar": parse_fit_dar(dar_text), "fit_glm": parse_fit_glm(glm_text)}

    def check(self, label, output):
        (rc_dar, _), (rc_glm, _) = output
        if rc_dar != 0 or rc_glm != 0:
            return f"exit codes fit-dar={rc_dar} fit-glm={rc_glm}"
        snap = self.snapshot(label, output)
        s = self.by_name[label]
        codes = np.asarray(s.codes)
        row = snap["fit_dar"]
        observed = codes[codes > 0]
        if row["pi_hat"] != _pi_text(np.bincount(observed - 1, minlength=s.k)):
            return f"pi_hat {row['pi_hat']} does not match the input's frequencies"
        beta = (codes.size - observed.size) / codes.size
        if row["beta_missing"] != f"{beta:.6f}" or row["observed_fraction"] != f"{1.0 - beta:.6f}":
            return f"beta {row['beta_missing']} != input's missing share {beta:.6f}"
        problem = check_fit_dar_ranges(row)
        if problem:
            return problem
        glm = snap["fit_glm"]
        if sorted(glm) != ["categorical", "ordinal"]:
            return f"fit-glm families {sorted(glm)}"
        ok = codes >= 0
        for family, rows in glm.items():
            if [r[0] for r in rows] != [0, 1, 2]:
                return f"{family}: lags {[r[0] for r in rows]}"
            for lag, n_params, ll, aic, n_used, _ in rows:
                usable = int(np.all([ok[lag - d : codes.size - d] for d in range(lag + 1)], axis=0).sum())
                if n_used is not None and n_used != usable:
                    return f"{family} lag {lag}: n_used {n_used} != {usable} usable rows"
                if aic is not None and abs(aic - (-2.0 * ll + 2.0 * n_params)) > 1e-5:
                    return f"{family} lag {lag}: AIC {aic} inconsistent with logPL {ll}"
            # the intercept-only model always fits once two categories occur
            if np.unique(observed).size >= 2 and rows[0][3] is None:
                return f"{family}: lag 0 not fitted"
            fitted = [r[3] for r in rows if r[3] is not None]
            marked = [r[3] for r in rows if r[5]]
            # printed AICs are rounded, so a tie within 1e-5 may go either way
            if len(marked) != bool(fitted) or (fitted and marked[0] > min(fitted) + 1e-5):
                return f"{family}: the marked best lag is not the AIC minimum"
        if self.reference is not None:
            ref = self.reference["series"][label]
            problem = compare_fit_dar(row, ref["fit_dar"])
            if problem:
                return problem
            for family, rows in glm.items():
                for got, want in zip(rows, ref["fit_glm"][family]):
                    if got[5] != want[5] or not all(_close(a, b) for a, b in zip(got[1:5], want[1:5])):
                        return f"{family} lag {got[0]}: {got} != reference {want}"
        return None


# -- long --------------------------------------------------------------------


class Long(Workload):
    """Two long complete records, each written by ``simulate --out`` and read by ``fit-dar``."""

    name = "long"
    unit = "observations"

    def __init__(self, seed: int, workdir: Path, use_reference: bool = True, n: int = inputs.LONG_N) -> None:
        super().__init__(seed, workdir, use_reference)
        self.n = n
        self.sim_seeds = inputs.long_seeds(seed)
        self.states = {}
        for k, _, _ in inputs.LONG_RECORDS:
            path = workdir / f"states_k{k}.txt"
            path.write_text("".join(f"{j}\n" for j in range(1, k + 1)), encoding="utf-8")
            self.states[k] = str(path)

    @property
    def units_per_pass(self) -> int:
        return len(inputs.LONG_RECORDS) * (self.n + 1)

    def _path(self, k: int) -> str:
        return str(self.workdir / f"long_k{k}.csv")

    def _op(self, i: int, n: int):
        k, alpha, pi = inputs.LONG_RECORDS[i]
        sim = ["simulate", "--alpha", str(alpha), "--pi", inputs.pi_arg(pi), "--n", str(n)]
        rc_sim, _ = run_cli(sim + ["--seed", str(self.sim_seeds[i]), "--out", self._path(k)])
        if rc_sim != 0:
            return rc_sim, None
        return run_cli(["fit-dar", self._path(k), "--states", self.states[k], "--format", "csv", "--level", str(LEVEL)])

    def ops(self):
        return [(f"k{k}", lambda i=i: self._op(i, self.n)) for i, (k, _, _) in enumerate(inputs.LONG_RECORDS)]

    def warm_up(self) -> None:
        for i in range(len(inputs.LONG_RECORDS)):
            self._op(i, 1000)

    def snapshot(self, label, output):
        return {"fit_dar": parse_fit_dar(output[1])}

    def check(self, label, output):
        rc, text = output
        if rc != 0:
            return f"exit code {rc}"
        i = [f"k{k}" for k, _, _ in inputs.LONG_RECORDS].index(label)
        k, alpha, _ = inputs.LONG_RECORDS[i]
        row = self.snapshot(label, output)["fit_dar"]
        lines = Path(self._path(k)).read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != "t,value" or len(lines) != self.n + 2:
            return f"simulate wrote {len(lines) - 1} rows, expected {self.n + 1}"
        tally = Counter(ln.rpartition(",")[2] for ln in lines[1:])
        if set(tally) - {str(j) for j in range(1, k + 1)}:
            return f"simulate wrote labels outside 1..{k}"
        counts = np.array([tally.get(str(j), 0) for j in range(1, k + 1)])
        if row["pi_hat"] != _pi_text(counts):
            return f"pi_hat {row['pi_hat']} does not match the written file"
        if row["beta_missing"] != "0.000000":
            return f"beta {row['beta_missing']} on a complete record"
        problem = check_fit_dar_ranges(row)
        if problem:
            return problem
        for key in ("alpha1", "alpha2"):
            value = _num(row[key])
            if value is None or abs(value - alpha) > LONG_ALPHA_TOL or row[f"{key}_converged"] != "1":
                return f"{key} {row[key]} not within {LONG_ALPHA_TOL} of {alpha}"
        if (row["chi2_reject"], row["runs_reject"], row["longest_reject"]) != ("1", "1", "1"):
            return "a test failed to reject independence at alpha >= 0.5, n = 10^6"
        if self.reference is not None:
            return compare_fit_dar(row, self.reference["records"][label]["fit_dar"])
        return None


WORKLOADS: dict[str, type[Workload]] = {"study": Study, "field": Field, "long": Long}
