"""Smoke runs of the timing tool, so that an API change cannot break it unseen,
and the fixture generator's SCF stop rule."""

import importlib.util
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


def test_rhf_raises_when_it_does_not_converge():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", os.path.join(ROOT, "tools", "make_fixtures.py"))
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    h2 = [("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 1.4))]
    with pytest.raises(RuntimeError, match="RHF did not converge in 1 cycles"):
        make_fixtures.rhf(h2, max_cycles=1)
    assert make_fixtures.rhf(h2, max_cycles=2)["e_total"] == pytest.approx(-1.11671, abs=1e-5)
