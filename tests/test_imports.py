"""The package runs on numpy alone, and its library modules write no text.

scipy costs more to import than numpy and the whole package together,
and for the short series darcat is made for, start-up is most of a
command's time; so darcat computes its two tail probabilities, its
logistic function and its Newton steps without it, and installs it only
as a test oracle.  The check runs in a fresh interpreter, since the test
session itself has loaded scipy.  A finder placed first on
``sys.meta_path`` there refuses every scipy module, so a command that
reaches for one fails instead of quietly loading it.  Reports are
written by ``darcat.render`` alone, so the fitting and study modules load
without it.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import darcat

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
SRC = Path(darcat.__file__).resolve().parents[1]

COMMANDS = [
    ["fit-dar", "inputs/gapped.csv", "--states", "inputs/states3.txt"],
    ["test", "inputs/gapped.csv", "--states", "inputs/states4.txt"],
    ["fit-glm", "inputs/gapped.csv", "--states", "inputs/states4.txt"],
    ["simulate", "--alpha", "0.6", "--pi", "0.3,0.3,0.4", "--n", "40", "--seed", "5"],
    ["reproduce-tables", "--m", "2"],
]

SCRIPT = """
import contextlib, io, json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import darcat
from darcat.cli import main
seen = {"import darcat": loaded()}
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
    seen[argv[0]] = loaded()
print(json.dumps([codes, seen]))
"""


def test_commands_run_with_scipy_blocked_and_load_none_of_it(tmp_path):
    shutil.copytree(GOLDEN_INPUTS, tmp_path / "inputs")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(COMMANDS)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    codes, seen = json.loads(proc.stdout)
    assert codes == [0] * len(COMMANDS)
    assert seen == dict.fromkeys(["import darcat"] + [argv[0] for argv in COMMANDS], [])


def test_the_fits_and_the_study_load_without_the_report_writer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    script = "import sys, darcat.glm, darcat.montecarlo; print('darcat.render' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"
