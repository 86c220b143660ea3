"""State-averaged VQE on H2: one shared circuit, two orthogonal references.

Minimizes the equal-weight average of the ground- and excited-state energies
with BFGS and with a DE variant, then compares both against the exact ensemble
bound from dense diagonalization.
"""

import numpy as np

from devqe import (
    DEConfig,
    OptimizerChoice,
    Sector,
    TerminationCriteria,
    default_ansatz,
    load_fcidump,
    run_sa_vqe,
)
from devqe import fock

integrals = load_fcidump("fixtures/h2_sto3g.fcidump")
ansatz = default_ansatz(integrals.n_orb, integrals.n_elec)
sector = Sector.build(integrals, ansatz)  # shared by every run below
floor = fock.ensemble_floor(integrals)

print(f"ansatz: {ansatz.parameter_count} parameters on {ansatz.n_qubits} qubits")
print(f"exact ensemble bound (lowest two singlets averaged): {floor:.8f} Ha\n")

for label, optimizer in (
    ("BFGS", OptimizerChoice("bfgs")),
    (
        "DE/rand/1/bin",
        OptimizerChoice(
            "de",
            de_config=DEConfig(
                seed=0, termination=TerminationCriteria(max_evals=2000, abs_tol=(1e-8, 10))
            ),
        ),
    ),
):
    result = run_sa_vqe(sector, optimizer=optimizer)
    gap = result.e_sa - floor
    overlap = abs(result.final_rows[0] @ result.final_rows[1])
    print(f"{label}:")
    print(f"  E_SA = {result.e_sa:.8f} Ha   (gap to exact bound {gap:.2e})")
    print(f"  E_0  = {result.state_energies[0]:.8f} Ha")
    print(f"  E_1  = {result.state_energies[1]:.8f} Ha")
    print(f"  evaluations = {result.evaluations}, final state overlap = {overlap:.1e}")
    first, last = result.trace.events[0], result.trace.events[-1]
    print(f"  trace: {len(result.trace.events)} steps, "
          f"E_SA {first.e_sa:.6f} -> {last.e_sa:.6f}\n")

print("per-state 1-RDM traces (electron counts):")
result = run_sa_vqe(sector, optimizer=OptimizerChoice("bfgs"))
for k, rdms in enumerate(result.rdms):
    print(f"  state {k}: tr(D) = {np.trace(rdms.one_rdm):.10f}")
