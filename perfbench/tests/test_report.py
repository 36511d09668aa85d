import json
import re
import subprocess
import sys

import run
import tracer

HERE = run.HERE


def test_untraced_run_never_imports_the_tracer():
    code = (
        "import sys, worker; worker.main(['--workload', 'field', '--seed', '4', '--seconds', '0', '--trace', '{t}']); "
        "assert ('tracer' in sys.modules) == {t}, sorted(sys.modules)"
    )
    for trace in (0, 1):
        subprocess.run([sys.executable, "-c", code.format(t=trace)], cwd=HERE, check=True, capture_output=True)


def test_one_command_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, "report.py", "--workloads", "field", "--seconds", "1"],
        cwd=HERE,
        capture_output=True,
        text=True,
        check=True,
    )
    for name, unit in list(run.END_TO_END) + tracer.metric_names():
        assert re.search(rf"^\s+{re.escape(name)}\s+-?[0-9.]+ {re.escape(unit)}$", proc.stdout, re.M), name
    assert re.search(r"failed_frac=0\.000000", proc.stdout)


def test_benchmark_json_lists_exactly_the_printed_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == tracer.metric_names()
