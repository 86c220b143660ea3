"""Full macro-iteration and a bond-stretch scan with and without orbital relaxation.

The macro loop alternates the quantum-style ensemble VQE stage with the
classical orbital-rotation stage; the scan shows fixed-orbital energies are
never below the orbital-optimized ones.
"""

from devqe import (
    OptimizerChoice,
    default_ansatz,
    load_fcidump,
    run_sa_oo_vqe,
)
from devqe.bench import cmd_scan
from devqe.trace import SCOPE_STEP

integrals = load_fcidump("fixtures/h2_sto3g.fcidump")
ansatz = default_ansatz(integrals.n_orb, integrals.n_elec)

result = run_sa_oo_vqe(integrals, ansatz, inner_optimizer=OptimizerChoice("bfgs"))
print(f"macro loop: {result.macro_iterations} iterations, converged={result.converged}")
print("iter   E_SA(after VQE)    E_SA(after OO)    cum evals")
for rec in result.macro_trace:
    print(
        f"{rec.macro_index:3d}   {rec.e_sa_vqe: .10f}   {rec.e_sa_oo: .10f}"
        f"   {rec.cum_evals:6d}"
    )

steps = result.trace.filter(SCOPE_STEP)
restarts = [
    ev for prev, ev in zip(steps, steps[1:]) if ev.macro_index != prev.macro_index
]
if restarts:
    print("\npost-rotation restart energies (the transient spike in perspective 3):")
    for ev in restarts:
        print(f"  macro {ev.macro_index}: first step E_SA = {ev.e_sa:.6f} "
              f"at {ev.cum_evals} evaluations")

print("\n=== 3-point bond stretch, fixed vs. relaxed orbitals ===")
import csv
import tempfile

with tempfile.TemporaryDirectory() as tmp:
    config = {"molecule": "fixtures/h2_scan", "optimizer": "bfgs"}
    fixed_rows = list(csv.DictReader(open(cmd_scan(config, tmp, "savqe"))))
    relaxed_rows = list(csv.DictReader(open(cmd_scan(config, tmp, "saoo"))))

print(f"{'point':12s} {'E_SA fixed':>14s} {'E_SA relaxed':>14s} {'difference':>12s}")
for fixed, relaxed in zip(fixed_rows, relaxed_rows):
    diff = float(relaxed["e_sa"]) - float(fixed["e_sa"])
    print(
        f"{fixed['coordinate_label']:12s} {float(fixed['e_sa']):14.8f} "
        f"{float(relaxed['e_sa']):14.8f} {diff:12.2e}"
    )
