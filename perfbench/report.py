"""Run every workload, untraced and traced, and print every metric with its unit.

    python3 perfbench/report.py [--seed 2] [--seconds 30] [--baseline perfbench/baseline.json]

Each workload runs through ``run.py``'s launcher, so each gets fresh
processes.  ``failed_frac`` (failed over attempted operations) is printed
beside the metrics.  With ``--baseline`` the results, plus a timing table
of single layers at fixed sizes (:func:`layer_table`), are written as JSON.
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

import run

LAYER_REPEATS = 5


def _time(fn, repeats: int = LAYER_REPEATS) -> dict[str, float]:
    """Median and quartiles of ``repeats`` timed calls, in milliseconds."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(1e3 * (time.perf_counter() - start))
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_ms": statistics.median(samples), "q1_ms": q1, "q3_ms": q3, "repeats": repeats}


def layer_table() -> dict[str, dict[str, float]]:
    """Single-layer timings at the sizes of the ROADMAP baseline table (this process, one thread)."""
    import numpy as np

    import inputs
    import worker

    worker._import_darcat()
    import darcat

    def series(n: int, alpha: float, pi, beta: float = 0.0, seed: int = 0):
        rng = np.random.default_rng(seed)
        pi = np.asarray(pi, dtype=float)
        codes = inputs.dar_path(rng, alpha, pi, n)
        if beta:
            codes = np.where(rng.random(n + 1) < beta, -1, codes)
        return darcat.CatSeries(darcat.StateSpace.from_k(pi.size), tuple(int(c) for c in codes))

    pi3 = (0.25, 0.5, 0.25)
    model = darcat.DarModel.from_pi(0.5, np.array(pi3))
    s500, s1m = series(500, 0.5, pi3), series(1_000_000, 0.5, pi3)
    g500, g10k = series(500, 0.5, pi3, 0.2), series(10_000, 0.5, pi3, 0.2)
    pi_hat = darcat.estimate_pi(s500).pi_hat
    return {
        "run_grid(study_grid(m=100))": _time(lambda: darcat.run_grid(darcat.study_grid(m=100)), 3),
        "estimate_alpha_mle_gapped n=500 beta=0.2": _time(lambda: darcat.estimate_alpha_mle_gapped(g500)),
        "estimate_alpha_mle_gapped n=10^4 beta=0.2": _time(lambda: darcat.estimate_alpha_mle_gapped(g10k), 3),
        "aic_table n=500 categorical": _time(lambda: darcat.aic_table(s500, "categorical")),
        "aic_table n=500 ordinal": _time(lambda: darcat.aic_table(s500, "ordinal")),
        "simulate n=500": _time(lambda: darcat.simulate(model, 500, 1), 50),
        "simulate n=10^6": _time(lambda: darcat.simulate(model, 1_000_000, 1)),
        "runs_summary n=10^6": _time(lambda: darcat.runs_summary(s1m)),
        "estimate_alpha_mle complete n=500": _time(lambda: darcat.estimate_alpha_mle(s500, pi_hat), 50),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workloads", nargs="+", choices=run.WORKLOADS, default=list(run.WORKLOADS))
    parser.add_argument("--baseline", help="write all results and the layer table to this JSON file")
    args = parser.parse_args(argv)

    doc: dict = {"seed": args.seed, "seconds": args.seconds, "commit": run.commit(), "workloads": {}}
    ok = True
    for name in args.workloads:
        entry = doc["workloads"].setdefault(name, {})
        for trace in (0, 1):
            try:
                result = run.measure(name, args.seed, args.seconds, trace)
            except run.BenchError as exc:
                print(f"error: {name} trace={trace}: {exc}", file=sys.stderr)
                return 1
            print("\n".join(run.describe(result)), flush=True)
            ok &= result["failed"] == 0
            units = dict(run.metric_units(trace))
            entry["per_layer" if trace else "end_to_end"] = {
                k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items() if k in units
            }
            entry[f"attempted_trace{trace}"] = result["attempted"]
            entry[f"failed_frac_trace{trace}"] = result["failed"] / result["attempted"]
            entry["env"] = result["env"]
            if trace:
                entry["absent"] = result.get("absent", [])
    if args.baseline:
        # the layer table runs in its own process, pinned like the workloads
        env = dict(os.environ, **{v: "1" for v in run.THREAD_VARS})
        code = "import json, report; print(json.dumps(report.layer_table()))"
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=run.HERE, env=env, capture_output=True, text=True, check=True
        )
        doc["layer_table"] = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, t in doc["layer_table"].items():
            iqr = f"IQR {t['q1_ms']:.3f}-{t['q3_ms']:.3f}, {t['repeats']} runs"
            print(f"  {name:<45} {t['median_ms']:>12.3f} ms  ({iqr})")
        Path(args.baseline).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
