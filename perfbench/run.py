"""Benchmark launcher: run one darcat workload in fresh processes and print its metrics.

    python3 perfbench/run.py --workload study --seed 2 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs alone in one fresh,
single-threaded process (``worker.py``); BLAS and OpenMP are pinned to one
thread.  With ``--trace 0`` set-up is also taken in extra set-up-only
processes and reported as the median.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The full result, with the environment, is
also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study", "field", "long")
SETUP_RUNS = 3  # set-up is taken this many times per run, the measured process included
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("units_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker(args: list[str], deadline: float) -> dict:
    """Start ``worker.py`` in a fresh process and return its JSON result line."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t-spawn", repr(time.monotonic())]
    try:
        timeout = max(deadline - time.monotonic(), 1.0)
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {TIME_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        setups = [worker(base + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    result = worker(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(result["setup_s"])
    result["setup_runs_s"] = setups
    if not trace:
        result["metrics"].update(setup_s=statistics.median(setups), peak_rss_mb=result["peak_rss_mb"])
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace, commit=commit())
    result["env"]["threads_pinned"] = {v: "1" for v in THREAD_VARS}
    return result


def metric_units(trace: int) -> list[tuple[str, str]]:
    if not trace:
        return list(END_TO_END)
    import tracer  # only for traced runs: the untraced run never imports it

    return tracer.metric_names()


def contract_line(result: dict) -> dict:
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in metric_units(result["trace"])}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def describe(result: dict) -> list[str]:
    """Human-readable lines: environment, every metric with its unit, failures."""
    env = result["env"]
    lines = [
        f"workload={result['workload']} seed={result['seed']} seconds={result['seconds']} trace={result['trace']}",
        f"commit={result['commit']} nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']}",
        f"passes={result['passes']} attempted={result['attempted']} failed={result['failed']} "
        f"failed_frac={result['failed'] / result['attempted']:.6f}",
        f"unscaled: pass {result['wall_raw_s']:.6f} s, set-up {result['setup_raw_s']:.6f} s",
        "operation latency (unscaled): p50 {p50_ms:.3f} ms, p90 {p90_ms:.3f} ms over {samples} samples".format(
            **result["latency"]
        ),
    ]
    calls = result["calibration_samples"]
    lines.append(f"machine slowdown {result['slowdown']:.4f} x reference ({calls} kernel calls)")
    for name, unit in metric_units(result["trace"]):
        lines.append(f"  {name:<48} {result['metrics'][name]:>16.6f} {unit}")
    if result.get("absent"):
        lines.append(f"absent layers: {', '.join(result['absent'])}")
    lines += [f"FAILED {e}" for e in result["errors"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print("\n".join(describe(result)))
    print(json.dumps(contract_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
