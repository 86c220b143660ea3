"""Frozen-core reduction on LiH: fold the Li 1s pair into effective integrals.

Shrinks the problem from 12 to 10 qubits without touching the determinant
energy, then runs the ensemble VQE in the reduced space.
"""

from devqe import (
    OptimizerChoice,
    Sector,
    default_ansatz,
    freeze_core,
    hf_determinant_energy,
    jordan_wigner,
    load_fcidump,
    run_sa_vqe,
)
from devqe import fock

full = load_fcidump("fixtures/lih_sto3g.fcidump")
frozen = freeze_core(full, 1)

print("LiH/STO-3G frozen-core reduction")
print(f"  orbitals:   {full.n_orb} -> {frozen.n_orb}")
print(f"  electrons:  {full.n_elec} -> {frozen.n_elec}")
print(f"  qubits:     {2 * full.n_orb} -> {2 * frozen.n_orb}")
print(f"  core shift: {full.core_energy:.6f} -> {frozen.core_energy:.6f} Ha")
print(f"  HF energy preserved: {hf_determinant_energy(full):.10f} vs "
      f"{hf_determinant_energy(frozen):.10f} Ha")

hamiltonian = jordan_wigner(frozen)
ansatz = default_ansatz(frozen.n_orb, frozen.n_elec)
print(f"\nqubit Hamiltonian: {len(hamiltonian)} Pauli terms, "
      f"{ansatz.parameter_count}-parameter ansatz")

result = run_sa_vqe(Sector.build(frozen, ansatz), optimizer=OptimizerChoice("bfgs"))
floor = fock.ensemble_floor(frozen)
print(f"\nensemble VQE (BFGS, {result.evaluations} evaluations):")
print(f"  E_0  = {result.state_energies[0]:.8f} Ha "
      f"(correlation vs HF: {result.state_energies[0] - hf_determinant_energy(full):+.6f})")
print(f"  E_1  = {result.state_energies[1]:.8f} Ha")
print(f"  E_SA = {result.e_sa:.8f} Ha, exact ensemble bound {floor:.8f} Ha "
      f"(ansatz gap {result.e_sa - floor:.2e})")
