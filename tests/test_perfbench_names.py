"""The devqe names the benchmark reaches from outside the package.

perfbench/spans.py traces the layers in its LAYERS by name, and
perfbench/probe.py, which times the gated set-up, calls devqe functions by
name.  A name that leaves the package breaks a traced run or the probe, so
every one of them is resolved here; the dense oracles that left the package
for tests/dense_oracle.py must stay out of it.
"""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys

import devqe
from devqe.savqe import Sector
from tests.conftest import fixture_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = os.path.join(ROOT, "perfbench", "probe.py")

# what left the package for tests/dense_oracle.py, besides Sector.scatter
MOVED = ("basis_state", "apply_pauli", "apply_pauli_rotation", "apply_excitation",
         "ExpectationError", "generator_words", "string_to_masks", "strings_commute")


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def probe_names():
    """Every `devqe.<name>` the probe reads."""
    tree = ast.parse(open(PROBE).read())
    return sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "devqe"})


def test_every_traced_layer_resolves():
    spans = load_spans()
    for layer in spans.LAYERS:
        owner, attr = spans._resolve(layer)
        assert callable(getattr(owner, attr)), layer
    with spans.Tracer():  # patches every layer's call sites, then restores them
        pass


def test_every_probe_name_resolves():
    names = probe_names()
    assert "build_initial_states" in names and "jordan_wigner" in names
    for name in names:
        assert callable(getattr(devqe, name)), name


def test_probe_runs_on_a_molecule():
    run = subprocess.run([sys.executable, PROBE, fixture_path("h2_sto3g.fcidump")], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {"qubits": 4, "pauli_terms": 15, "ansatz_params": 2}


def test_moved_oracles_are_gone_from_the_package():
    modules = [devqe] + [importlib.import_module(f"devqe.{info.name}")
                         for info in pkgutil.iter_modules(devqe.__path__)]
    for module in modules:
        for name in MOVED:
            assert name not in vars(module), f"{module.__name__}.{name}"
    assert not hasattr(Sector, "scatter")
