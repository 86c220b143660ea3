"""Smoke runs of the timing tool, so that an API change cannot break it unseen."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("args, expected", [
    (["--cases", "startup", "--repeats", "1"], "first orbitals.rotation"),
    (["--cases", "macro", "--systems", "H2", "--repeats", "1"], "rotate_integrals calls"),
], ids=["startup", "macro"])
def test_time_layers_runs(args, expected):
    run = subprocess.run([sys.executable, os.path.join("tools", "time_layers.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert expected in run.stdout
