"""Golden checks for benchmark runs.

A run record is a dict:

    {"key": "bfgs" | "de_rand1_bin@3" | ...,
     "counts": {"evaluations": int, ...},
     "energies": {"e_sa": float, ...},
     "bounded": float,        # the value that may not fall below the floor
     "error": str | None}

Runs whose result does not depend on the DE seed (BFGS, gradient descent) are
keyed by method alone, so every workload seed is compared with the same
golden.  Seeded runs carry their DE seed in the key and have a golden only for
the default workload seed.  Every run, golden or not, must stay finite and at
or above the workload's exact floor.
"""

from __future__ import annotations

import json
import math
import os

ENERGY_TOL = 1e-9  # Ha; the pin for energies, counts must match exactly
DEFAULT_SEED = 0
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


def load_goldens(path=GOLDEN_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def golden_entry(record) -> dict:
    """The part of a record that a golden pins."""
    return {"counts": dict(record["counts"]), "energies": dict(record["energies"])}


def check_run(record, goldens, floor) -> str | None:
    """Why this run counts as failed, or None when it passes."""
    if record["error"]:
        return record["error"]
    if not all(math.isfinite(v) for v in record["energies"].values()):
        return f"non-finite energy in {record['energies']}"
    if record["bounded"] < floor - ENERGY_TOL:
        return f"{record['bounded']!r} lies below the exact floor {floor!r}"
    golden = goldens.get(record["key"])
    if golden is None:
        return None
    for name, want in golden["counts"].items():
        got = record["counts"].get(name)
        if got != want:
            return f"{name} {got} differs from golden {want}"
    for name, want in golden["energies"].items():
        got = record["energies"].get(name)
        if got is None or abs(got - want) > ENERGY_TOL:
            return f"{name} {got!r} differs from golden {want!r} by more than {ENERGY_TOL}"
    return None


def check_pass(records, goldens, floor) -> list:
    """(key, reason) for every failed run of one pass."""
    failures = []
    for record in records:
        reason = check_run(record, goldens, floor)
        if reason is not None:
            failures.append((record["key"], reason))
    return failures
