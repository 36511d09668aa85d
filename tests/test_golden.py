"""Golden outputs: every subcommand and format must stay byte-identical.

Each case runs ``darcat.cli.main`` in a scratch directory holding a copy
of ``tests/golden/inputs`` and compares its standard output, standard
error and every ``--out`` file with ``tests/golden/<case>/``.  After an
intended change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

import pytest

from darcat.cli import main

GOLDEN = Path(__file__).parent / "golden"

FIT_DAR = ["fit-dar", "--states", "inputs/states3.txt"]
FIT_GLM = ["fit-glm", "inputs/gapped.csv", "--states", "inputs/states4.txt"]
SIMULATE = ["simulate", "--alpha", "0.6", "--pi", "0.3,0.3,0.4", "--n", "40", "--seed", "5"]
# inputs/long_gapped.csv is the stdout of this command
SIMULATE_LONG_GAPPED = ["simulate", "--alpha", "0.7", "--pi", "0.2,0.3,0.5", "--n", "2000", "--seed", "3", "--beta", "0.2"]
LONG_GAPPED = ["inputs/long_gapped.csv", "--states", "inputs/states123.txt"]
# inputs/mixed_width.csv is the stdout of this command: value cells ",1" to ",10" and ",NA", stamps of 1 to 5 digits
SIMULATE_MIXED_WIDTH = [
    "simulate", "--alpha", "0.6", "--pi", ",".join(["0.1"] * 10), "--n", "12000", "--seed", "4", "--beta", "0.15",
]
# inputs/separation_walk.csv is the stdout of this command: state 1 is never followed by 3, nor 3 by 1, so the
# categorical lag-1 fit has no MLE and Newton walks off until a coefficient passes the bound
SIMULATE_SEPARATION_WALK = ["simulate", "--alpha", "0.7", "--pi", "0.2,0.3,0.5", "--n", "30", "--seed", "2"]

CASES = {
    "simulate": SIMULATE,
    "simulate_beta": SIMULATE + ["--beta", "0.3", "--states", "inputs/states3.txt", "--out", "sim.csv"],
    "fit_dar_complete_txt": FIT_DAR + ["inputs/complete.csv"],
    "fit_dar_complete_csv": FIT_DAR + ["inputs/complete.csv", "--format", "csv", "--out", "fit.csv"],
    "fit_dar_gapped_txt": FIT_DAR + ["inputs/gapped.csv", "--out", "fit.csv"],
    "fit_dar_gapped_csv": FIT_DAR + ["inputs/gapped.csv", "--format", "csv"],
    "fit_dar_two_files_unobserved": [
        "fit-dar", "inputs/gapped.csv", "inputs/part2.csv", "--states", "inputs/states4.txt", "--missing-policy", "drop",
    ],
    "fit_dar_long_gapped_csv": ["fit-dar", *LONG_GAPPED, "--format", "csv"],
    "fit_dar_long_gapped_drop_csv": ["fit-dar", *LONG_GAPPED, "--missing-policy", "drop", "--format", "csv"],
    "test_long_gapped_drop": ["test", *LONG_GAPPED, "--missing-policy", "drop"],
    "fit_dar_mixed_width_csv": ["fit-dar", "inputs/mixed_width.csv", "--states", "inputs/states10.txt", "--format", "csv"],
    "test_drop": ["test", "inputs/gapped.csv", "--states", "inputs/states4.txt", "--missing-policy", "drop"],
    "test_default": ["test", "inputs/gapped.csv", "--states", "inputs/states4.txt"],
    "fit_glm_csv": FIT_GLM + ["--format", "csv", "--out", "glm.csv"],
    # lags 0 and 1 of the categorical fit are saturated, so they start at their closed-form optimum
    "fit_glm_complete_csv": ["fit-glm", "inputs/complete.csv", "--states", "inputs/states3.txt", "--format", "csv"],
    "fit_glm_md": FIT_GLM + ["--format", "md"],
    "fit_glm_txt": FIT_GLM,
    "fit_glm_common_csv": FIT_GLM + ["--common-rows", "--format", "csv"],
    "fit_glm_common_md": FIT_GLM + ["--common-rows", "--format", "md"],
    "fit_glm_common_txt": FIT_GLM + ["--common-rows", "--out", "glm.txt"],
    "fit_glm_lags02_common_csv": FIT_GLM + ["--lags", "0,2", "--common-rows", "--format", "csv"],
    "fit_glm_separation_walk_txt": ["fit-glm", "inputs/separation_walk.csv", "--states", "inputs/states123.txt"],
    "reproduce_tables_csv": ["reproduce-tables", "--m", "5", "--format", "csv", "--out", "tables"],
    "reproduce_tables_md": ["reproduce-tables", "--m", "5", "--format", "md"],
    "reproduce_tables_txt": ["reproduce-tables", "--m", "5", "--format", "txt"],
}


def run_case(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Run one command in ``workdir``; return its stdout, stderr and new files by name."""
    shutil.copytree(GOLDEN / "inputs", workdir / "inputs")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    if code != 0:
        raise AssertionError(f"exit code {code}: {err.getvalue()}")
    files = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode()}
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir)
        if path.is_file() and rel.parts[0] != "inputs":
            files["out." + "__".join(rel.parts)] = path.read_bytes()
    return files


def test_the_long_gapped_input_is_what_simulate_writes(tmp_path):
    produced = run_case(SIMULATE_LONG_GAPPED, tmp_path)
    assert produced["stdout"] == (GOLDEN / "inputs" / "long_gapped.csv").read_bytes()


def test_the_mixed_width_input_is_what_simulate_writes(tmp_path):
    produced = run_case(SIMULATE_MIXED_WIDTH, tmp_path)
    assert produced["stdout"] == (GOLDEN / "inputs" / "mixed_width.csv").read_bytes()


def test_the_separation_walk_input_is_what_simulate_writes(tmp_path):
    produced = run_case(SIMULATE_SEPARATION_WALK, tmp_path)
    assert produced["stdout"] == (GOLDEN / "inputs" / "separation_walk.csv").read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_byte_identical(case, tmp_path):
    produced = run_case(CASES[case], tmp_path)
    expected_dir = GOLDEN / case
    expected = {p.name: p.read_bytes() for p in expected_dir.iterdir()}
    assert sorted(produced) == sorted(expected)
    for name, data in produced.items():
        assert data == expected[name], f"{case}/{name} differs"


if __name__ == "__main__":
    import tempfile

    for case, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            produced = run_case(argv, Path(tmp))
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        for name, data in produced.items():
            (target / name).write_bytes(data)
        print(f"{case}: {', '.join(sorted(produced))}", file=sys.stderr)
