"""Run one workload in this process and print its raw result as one JSON line.

Started by ``run.py``, one fresh process per workload, with BLAS and
OpenMP pinned to one thread.  ``--setup-only`` stops once the process is
ready, so the launcher can take set-up time several times.  With
``--trace 1`` untraced and traced passes alternate; the tracer is
imported only then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MAX_ERRORS = 5


def _import_darcat():
    """Import darcat from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import darcat

    if src.resolve() not in Path(darcat.__file__).resolve().parents:
        raise ImportError(f"darcat imported from {darcat.__file__}, not from {src}")
    return darcat


def run_passes(
    wl, seconds: float, tracer=None, op_pass: dict | None = None, first_pass: int = 0, sampler=None
) -> list[dict]:
    """Repeat whole passes until ``seconds`` have gone by (at least one pass).

    Each operation is timed on its own; its output is checked outside the
    timed region.  A pass's wall time is the sum of its operations' times.
    With a running ``calibrate.Sampler``, operations are timed on its
    clock, which leaves its kernel calls out, and a pass's ``scaled_s`` is
    its wall time divided by the slowdown the sampler measured during the
    pass (checks included).
    """
    passes = []
    clock = sampler.clock if sampler else time.perf_counter
    deadline = time.perf_counter() + seconds
    while True:
        index = first_pass + len(passes)
        first_sample = len(sampler.samples) if sampler else 0
        latencies, errors = [], []
        for label, fn in wl.ops():
            if tracer is not None:
                tracer.op += 1
                op_pass[tracer.op] = index
            start = clock()
            try:
                output = fn()
                problem = None
            except Exception as exc:  # any crash of the program is a failed operation
                output, problem = None, f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - start)
            if problem is None:
                try:
                    problem = wl.check(label, output)
                except Exception as exc:  # an output the check cannot read is a wrong output
                    problem = f"unreadable output ({type(exc).__name__}: {exc})"
            if problem:
                errors.append(f"{label}: {problem}")
        wall = sum(latencies)
        slowdown = scaled = None
        if sampler:
            if len(sampler.samples) == first_sample:
                sampler.sample()  # the timer did not fire during this short pass
            slowdown = sampler.slowdown_since(first_sample)
            scaled = wall / slowdown
        passes.append(
            {
                "index": index,
                "wall_s": wall,
                "slowdown": slowdown,
                "scaled_s": scaled,
                "latencies": latencies,
                "errors": errors,
            }
        )
        if time.perf_counter() >= deadline:
            return passes


def end_to_end(wl, passes: list[dict]) -> dict[str, float]:
    """Scaled pass time (median over the passes) and the work per second it gives."""
    wall = statistics.median(p["scaled_s"] for p in passes)
    return {"wall_s": wall, "units_per_s": wl.units_per_pass / wall}


def latency(passes: list[dict]) -> dict[str, float]:
    """Unscaled per-operation latency over the run, with its sample count (reported, not bounded)."""
    lat = [x for p in passes for x in p["latencies"]]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) >= 2 else lat[0]
    return {"p50_ms": 1e3 * statistics.median(lat), "p90_ms": 1e3 * p90, "samples": len(lat)}


def environment() -> dict:
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t-spawn", type=float, help="time.monotonic() when the launcher started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    t_spawn = args.t_spawn if args.t_spawn is not None else time.monotonic()

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        # set-up runs beside a sampler of its own, so that it is scaled like the passes
        with calibrate.Sampler(calibrate.SETUP_INTERVAL_S) as setup_sampler:
            _import_darcat()
            import workloads

            wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
            wl.warm_up()
            setup_raw_s = time.monotonic() - t_spawn - setup_sampler.busy_s
        if not setup_sampler.samples:
            setup_sampler.sample()
        setup = {"setup_s": setup_raw_s / setup_sampler.slowdown_since(0), "setup_raw_s": setup_raw_s}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        result: dict = {**setup, "env": environment(), "unit": wl.unit}
        if not args.trace:
            with calibrate.Sampler() as sampler:
                passes = run_passes(wl, args.seconds, sampler=sampler)
            result["metrics"] = end_to_end(wl, passes)
        else:
            # Untraced and traced passes alternate, so that drift in the
            # machine's speed hits both alike.  Spans are timed on the
            # sampler's clock, so kernel calls stay out of the layers' self time.
            import tracer as tracing

            plain, traced, op_pass = [], [], {}
            with calibrate.Sampler() as sampler:
                tr = tracing.Tracer(clock=sampler.clock)
                deadline = time.perf_counter() + args.seconds
                while True:
                    plain += run_passes(wl, 0.0, first_pass=len(plain) + len(traced), sampler=sampler)
                    tr.install()
                    try:
                        n = len(plain) + len(traced)
                        traced += run_passes(wl, 0.0, tr, op_pass, first_pass=n, sampler=sampler)
                    finally:
                        tr.restore()
                    if time.perf_counter() >= deadline:
                        break
            metrics = tr.metrics(op_pass, [p["index"] for p in traced])
            metrics["trace.overhead_s"] = end_to_end(wl, traced)["wall_s"] - end_to_end(wl, plain)["wall_s"]
            trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tr.dump(trace_file, op_pass)
            result.update(metrics=metrics, absent=tr.absent, trace_file=str(trace_file.relative_to(ROOT)))
            passes = plain + traced
        errors = [e for p in passes for e in p["errors"]]
        result.update(
            slowdown=statistics.median(p["slowdown"] for p in passes),
            calibration_samples=len(sampler.samples),
            passes=len(passes),
            wall_raw_s=statistics.median(p["wall_s"] for p in passes),
            latency=latency(passes),
            attempted=sum(len(p["latencies"]) for p in passes),
            failed=len(errors),
            errors=errors[:MAX_ERRORS],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
