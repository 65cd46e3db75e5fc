"""Every demo runs to completion against the current library."""

import os
import pathlib
import subprocess
import sys

import pytest

import hypermult

DEMOS = sorted(pathlib.Path(__file__).resolve().parents[1].glob("demos/*.py"))
SRC = str(pathlib.Path(hypermult.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo):
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
