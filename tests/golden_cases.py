"""The golden cases: each command line whose outputs are kept under ``tests/golden/<case>/``.

``tests/test_golden.py`` runs them in-process.  Run as a script, this
module runs each through a ``darcat`` command in a fresh process, with
the standard library alone, and compares its standard output, standard
error and ``--out`` files with the golden ones:

    python tests/golden_cases.py darcat                               # the installed console script
    PYTHONPATH=$PWD/src python tests/golden_cases.py python -m darcat.cli

It also checks that each generated input is the standard output of its
``simulate`` command, and exits 1 naming every output that differs.
"""

import difflib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

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
# inputs/prefix_labels.csv is the stdout of this command: the labels a, ab, é, éa and NAb are 1 to 3 bytes long,
# and each but a starts with the bytes of a shorter label or of NA, so each value cell is told apart by its later bytes
SIMULATE_PREFIX_LABELS = [
    "simulate", "--alpha", "0.5", "--pi", "0.15,0.2,0.25,0.2,0.2", "--n", "400", "--seed", "9", "--beta", "0.2",
    "--states", "inputs/states_prefix.txt",
]
# inputs/renamed_header.csv is the stdout of this command with its header "t,value" made "week,class": a hand
# edit that keeps every data row as simulate writes it, so it is read by the row reader
SIMULATE_RENAMED_HEADER = [
    "simulate", "--alpha", "0.6", "--pi", "0.3,0.3,0.4", "--n", "300", "--seed", "7", "--beta", "0.1",
    "--states", "inputs/states3.txt",
]

CASES = {
    "simulate": SIMULATE,
    "simulate_beta": SIMULATE + ["--beta", "0.3", "--states", "inputs/states3.txt", "--out", "sim.csv"],
    "simulate_prefix_labels_beta": SIMULATE_PREFIX_LABELS + ["--out", "sim.csv"],
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
    # inputs/handmade.csv is kept by hand: a byte-order mark, year stamps, CRLF line ends, spaces around cells,
    # a blank line, an NA and no final line break, so it is read by the row reader
    "fit_dar_handmade_txt": FIT_DAR + ["inputs/handmade.csv"],
    "fit_dar_prefix_labels_csv": [
        "fit-dar", "inputs/prefix_labels.csv", "--states", "inputs/states_prefix.txt", "--format", "csv",
    ],
    "fit_dar_renamed_header_csv": FIT_DAR + ["inputs/renamed_header.csv", "--format", "csv"],
    "fit_dar_mixed_width_csv": ["fit-dar", "inputs/mixed_width.csv", "--states", "inputs/states10.txt", "--format", "csv"],
    "test_drop": ["test", "inputs/gapped.csv", "--states", "inputs/states4.txt", "--missing-policy", "drop"],
    "test_default": ["test", "inputs/gapped.csv", "--states", "inputs/states4.txt"],
    "fit_glm_csv": FIT_GLM + ["--format", "csv", "--out", "glm.csv"],
    # lags 0 and 1 of the categorical fit are saturated, so they start at their closed-form optimum
    "fit_glm_complete_csv": ["fit-glm", "inputs/complete.csv", "--states", "inputs/states3.txt", "--format", "csv"],
    "fit_glm_handmade_csv": ["fit-glm", "inputs/handmade.csv", "--states", "inputs/states3.txt", "--format", "csv"],
    "fit_glm_renamed_header_csv": [
        "fit-glm", "inputs/renamed_header.csv", "--states", "inputs/states3.txt", "--format", "csv",
    ],
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

# each generated file under golden/inputs, and the simulate command whose standard output it is
GENERATED = {
    "long_gapped.csv": SIMULATE_LONG_GAPPED,
    "mixed_width.csv": SIMULATE_MIXED_WIDTH,
    "separation_walk.csv": SIMULATE_SEPARATION_WALK,
    "prefix_labels.csv": SIMULATE_PREFIX_LABELS,
}


def outputs(workdir: Path, stdout: bytes, stderr: bytes) -> dict[str, bytes]:
    """A case's outputs by name: its stdout and stderr, and each file it wrote in ``workdir`` outside ``inputs``."""
    files = {"stdout": stdout, "stderr": stderr}
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir)
        if path.is_file() and rel.parts[0] != "inputs":
            files["out." + "__".join(rel.parts)] = path.read_bytes()
    return files


def differences(name: str, produced: dict[str, bytes], expected: dict[str, bytes]) -> list[str]:
    """A line for each output that is missing, extra or different, a different one followed by its diff."""
    lines = [f"{name}: {key} {'missing' if key in expected else 'not expected'}" for key in produced.keys() ^ expected]
    for key in sorted(produced.keys() & expected):
        if produced[key] != expected[key]:
            lines.append(f"{name}/{key} differs")
            a, b = (data.decode(errors="replace").splitlines(keepends=True) for data in (expected[key], produced[key]))
            lines.extend(difflib.unified_diff(a, b, "expected", "produced", n=1))
    return lines


def main(command: list[str]) -> int:
    """Run every case and generating command through ``command``; 0 when each output is the golden one."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(case, argv, None) for case, argv in CASES.items()]
        runs += [(f"inputs/{name}", argv, name) for name, argv in GENERATED.items()]
        for i, (name, argv, generated) in enumerate(runs):
            workdir = Path(tmp) / str(i)
            shutil.copytree(GOLDEN / "inputs", workdir / "inputs")
            proc = subprocess.run([*command, *argv], cwd=workdir, capture_output=True)
            if proc.returncode != 0:
                failures.append(f"{name}: exit code {proc.returncode}: {proc.stderr.decode(errors='replace')}")
            elif generated:
                failures += differences(name, {"stdout": proc.stdout}, {"stdout": (GOLDEN / name).read_bytes()})
            else:
                expected = {path.name: path.read_bytes() for path in (GOLDEN / name).iterdir()}
                failures += differences(name, outputs(workdir, proc.stdout, proc.stderr), expected)
    print("".join(line if line.endswith("\n") else line + "\n" for line in failures), end="")
    print(f"{len(runs)} commands, {'outputs differ' if failures else 'every output is the golden one'}")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} DARCAT_COMMAND...")
    sys.exit(main(sys.argv[1:]))
