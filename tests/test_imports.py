"""The package imports only what it calls.

``scipy.stats`` and ``scipy.optimize`` cost more to import than the
rest of the package together, and for the short series darcat is
made for, start-up is most of a command's time.  The check runs in a
fresh interpreter, since the test session itself may have loaded either.
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
]

SCRIPT = """
import contextlib, io, json, sys
UNWANTED = ("scipy.stats", "scipy.optimize")
def loaded():
    return [m for m in UNWANTED if m in sys.modules]
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


def test_commands_load_neither_scipy_stats_nor_optimize(tmp_path):
    shutil.copytree(GOLDEN_INPUTS, tmp_path / "inputs")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(COMMANDS)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    codes, seen = json.loads(proc.stdout)
    assert codes == [0, 0, 0]
    assert seen == {"import darcat": [], "fit-dar": [], "test": [], "fit-glm": []}
