"""Capture the reference outputs that the checks compare against on the reference seed.

    python3 perfbench/capture_reference.py [study field long]

Runs one pass of each named workload at ``workloads.REFERENCE_SEED`` and
writes ``perfbench/reference/<workload>.json``.  The committed files were
captured at the commit that introduced the benchmark; recapture only when
a change to the program's output is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import worker

KEYS = {"study": "tables", "field": "series", "long": "records"}


def main(argv: list[str]) -> int:
    worker._import_darcat()
    import workloads

    worker.OUT_DIR.mkdir(exist_ok=True)
    for name in argv or list(workloads.WORKLOADS):
        workdir = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=worker.OUT_DIR))
        try:
            wl = workloads.WORKLOADS[name](workloads.REFERENCE_SEED, workdir, use_reference=False)
            snaps = {}
            for label, fn in wl.ops():
                output = fn()
                problem = wl.check(label, output)
                if problem:
                    raise SystemExit(f"{name} {label}: {problem}")
                snaps[label] = wl.snapshot(label, output)
            doc = snaps["reproduce-tables"] if name == "study" else snaps
            path = workloads.REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps({"seed": workloads.REFERENCE_SEED, KEYS[name]: doc}) + "\n", encoding="utf-8")
            print(f"wrote {path}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
