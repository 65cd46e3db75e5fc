"""Every demo runs to completion and prints its pinned output."""

import os
import pathlib
import subprocess
import sys

import pytest

import hypermult

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted(ROOT.glob("demos/*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"
SRC = str(pathlib.Path(hypermult.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo):
    # and prints, byte for byte, the output pinned in tests/golden/demos
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{demo.stem}.out").read_bytes()
