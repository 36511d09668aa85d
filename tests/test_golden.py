"""Golden outputs: every subcommand and format must stay byte-identical.

Each case of ``golden_cases.CASES`` runs ``darcat.cli.main`` in a scratch
directory holding a copy of ``tests/golden/inputs`` and compares its
standard output, standard error and every ``--out`` file with
``tests/golden/<case>/``.  After an intended change of output, regenerate
the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

import pytest
from golden_cases import (
    CASES,
    GOLDEN,
    SIMULATE_LONG_GAPPED,
    SIMULATE_MIXED_WIDTH,
    SIMULATE_PREFIX_LABELS,
    SIMULATE_RENAMED_HEADER,
    SIMULATE_SEPARATION_WALK,
    outputs,
)

from darcat.cli import main


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
    return outputs(workdir, out.getvalue().encode(), err.getvalue().encode())


def test_the_long_gapped_input_is_what_simulate_writes(tmp_path):
    produced = run_case(SIMULATE_LONG_GAPPED, tmp_path)
    assert produced["stdout"] == (GOLDEN / "inputs" / "long_gapped.csv").read_bytes()


def test_the_mixed_width_input_is_what_simulate_writes(tmp_path):
    produced = run_case(SIMULATE_MIXED_WIDTH, tmp_path)
    assert produced["stdout"] == (GOLDEN / "inputs" / "mixed_width.csv").read_bytes()


def test_the_separation_walk_input_is_what_simulate_writes(tmp_path):
    produced = run_case(SIMULATE_SEPARATION_WALK, tmp_path)
    assert produced["stdout"] == (GOLDEN / "inputs" / "separation_walk.csv").read_bytes()


def test_the_prefix_labels_input_is_what_simulate_writes(tmp_path):
    produced = run_case(SIMULATE_PREFIX_LABELS, tmp_path)
    assert produced["stdout"] == (GOLDEN / "inputs" / "prefix_labels.csv").read_bytes()


def test_the_renamed_header_input_is_what_simulate_writes_under_another_header(tmp_path):
    produced = run_case(SIMULATE_RENAMED_HEADER, tmp_path)
    renamed = (GOLDEN / "inputs" / "renamed_header.csv").read_bytes()
    assert produced["stdout"] == b"t,value\n" + renamed.removeprefix(b"week,class\n")
    assert renamed.startswith(b"week,class\n")


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
