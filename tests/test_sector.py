"""The SA-VQE sector path against the dense oracles: the occupation-basis
sector of fock.py, the Pauli-word excitation chain and the letter-string
expectation."""

import gc
import hashlib
import weakref

import numpy as np
import pytest

from devqe import fock
from devqe.ansatz import AnsatzSpec, apply_ansatz, default_ansatz
from devqe.de import DEConfig, TerminationCriteria
from devqe.integrals import freeze_core
from devqe.jw import jordan_wigner
from devqe.local import LocalOptConfig
from devqe.orbitals import KappaMatrix, rotate_integrals
from devqe.pauli import PauliTerm, QubitHamiltonian
from devqe.savqe import OptimizerChoice, Sector, build_initial_states, run_sa_vqe, sa_energy
from devqe.statevector import (
    SECTOR_CUTOFF,
    CompiledHamiltonian,
    ExpectationError,
    StateVector,
    apply_excitation,
    basis_state,
    compile_hamiltonian,
    expectation,
)

SYSTEMS = ("h2", "h4", "lih_frozen_core", "lih")


@pytest.fixture
def system(request):
    """(integrals, compiled Hamiltonian, ansatz, references, sector)."""
    name = request.param
    if name == "lih_frozen_core":
        integrals = freeze_core(request.getfixturevalue("lih_integrals"), 1)
    else:
        integrals = request.getfixturevalue(f"{name}_integrals")
    ham = compile_hamiltonian(jordan_wigner(integrals))
    ansatz = default_ansatz(integrals.n_orb, integrals.n_elec)
    states = build_initial_states(integrals.n_orb, integrals.n_elec)
    return integrals, ham, ansatz, states, Sector.build(ham, ansatz, states)


def excitation_chain(reference, ansatz, theta):
    out = reference
    for excitation, angle in zip(ansatz.excitations, theta):
        out = apply_excitation(out, excitation, float(angle))
    return out


@pytest.mark.parametrize("system", SYSTEMS, indirect=True)
def test_basis_is_the_particle_and_spin_sector(system):
    integrals, _, _, _, sector = system
    expected = fock.sector_basis(2 * integrals.n_orb, integrals.n_elec, 0)
    assert sector.basis.tolist() == expected


def test_ladder_action_matches_occupation_basis_rule():
    # random ladder strings of 1-4 operators on 5 modes, repeated modes and
    # strings that vanish included, on every bitstring
    from devqe.ansatz import _ladder_action

    rng = np.random.default_rng(44)
    bits = np.arange(32)
    for _ in range(300):
        specs = [(int(m), bool(d)) for m, d in zip(rng.integers(0, 5, rng.integers(1, 5)),
                                                   rng.integers(0, 2, 4))]
        action = _ladder_action(specs)
        for b in bits.tolist():
            sign, out = fock._apply_ops(b, specs)
            if action is None or (b & action[0]) != action[1]:
                assert out is None, (specs, b)
                continue
            mask, value, flip, lower, parity = action
            assert out == b ^ flip, (specs, b)
            assert sign == (-1) ** (parity + (b & lower).bit_count()), (specs, b)


def test_one_qubit_basis_closes_over_both_states():
    # the toy Hamiltonian of test_weighting_arithmetic: two references in two
    # sectors, (N, S_z) = (0, 0) and (1, 1/2)
    ham = QubitHamiltonian(1, [PauliTerm("I", -1.5), PauliTerm("Z", 0.5)])
    states = (basis_state(1, []), basis_state(1, [0]))
    assert Sector.build(ham, AnsatzSpec(n_qubits=1), states).basis.tolist() == [0, 1]


def test_hamiltonian_leaving_the_references_sectors_rejected(h2_integrals, monkeypatch):
    # one reference: the X entry of the Hamiltonian leads from |0> to |1>
    ham = QubitHamiltonian(1, [PauliTerm("Z", 0.5), PauliTerm("X", 0.25)])
    with pytest.raises(ValueError, match=r"entry H\[1, 0\] = 2.500e-01"):
        Sector.build(ham, AnsatzSpec(n_qubits=1), (basis_state(1, []),))
    # a particle-number-changing term on H2 stops the run before its first evaluation
    import devqe.savqe as savqe_mod

    def no_evaluation(*args):
        raise AssertionError("an evaluation ran")

    monkeypatch.setattr(savqe_mod, "sa_energy", no_evaluation)
    leaky = jordan_wigner(h2_integrals)
    leaky = QubitHamiltonian(4, [*leaky.terms, PauliTerm("XIII", 0.1)])
    with pytest.raises(ValueError, match="leads out of the sector basis"):
        run_sa_vqe(leaky, default_ansatz(2, 2), n_orb=2, n_elec=2)


@pytest.mark.parametrize("system", ["h4", "lih"], indirect=True)
def test_columns_read_once_per_basis_determinant(system, monkeypatch):
    _, ham, ansatz, states, sector = system
    columns = CompiledHamiltonian.columns
    asked = []

    def counted(self, bits):
        asked.extend(np.asarray(bits).tolist())
        return columns(self, bits)

    monkeypatch.setattr(CompiledHamiltonian, "columns", counted)
    rebuilt = Sector.build(ham, ansatz, states)
    assert sorted(asked) == sector.basis.tolist() == rebuilt.basis.tolist()


def test_rotated_lih_keeps_the_cutoff_headroom(lih_integrals):
    # random orbital rotations smear the integrals over every index, so the
    # compiled rows carry their largest residues between sectors; the build
    # must still see none of them above SECTOR_CUTOFF
    rng = np.random.default_rng(45)
    for _ in range(2):
        kappa = KappaMatrix.from_values(6, rng.normal(0.0, 0.3, 15))
        rotated = rotate_integrals(lih_integrals, kappa)
        ham = compile_hamiltonian(jordan_wigner(rotated))
        sector = Sector.build(ham, default_ansatz(6, 4), build_initial_states(6, 4))
        assert sector.basis.tolist() == fock.sector_basis(12, 4, 0)
        targets, entries = ham.columns(sector.basis)
        leaving = np.abs(entries[~np.isin(targets, sector.basis)])
        assert leaving.max() < SECTOR_CUTOFF / 10
        reference = fock.hamiltonian_matrix(rotated, sector.basis.tolist())
        assert np.max(np.abs(sector.hamiltonian.matrix - reference)) < 1e-12


# sha256 of the basis and Hamiltonian block bytes of each fixture's sector,
# as the (G, 2^n) X-mask rows of the compiled Hamiltonian gave them: the
# per-term table must read the same block off the Pauli masks, bitwise
SECTOR_PINS = {
    "h2": ("fe2e3876105e2686557dd746753ebaa67513eac43211b6338c98aafd39291f89",
           "62032861ea0491702bc34ae2bc5041f73fab1d0bf6f21052ead6e15fdcb43f6e"),
    "h4": ("5655235b2460f736e122e4267182a0e3d334e7c58541ee2fe7917dee829907a1",
           "429a84f9e2019a25188a02625acbca91dc52eaee64515913c7453b32d2a3cff0"),
    "lih_frozen_core": ("5e3b6bb4b2f9a5a8849c08b097f62d6736cfc848e9a9cb09c5a202501053c66c",
                        "c035b3c2151ad06f4982b9e175b3b8c44c1f8fc59371d48ccdb8b68df50632e6"),
    "lih": ("d2504e6a33fdcd7f2336362fd665a2bf0188f8b623013414360d911756b6c254",
            "4e5a4036b7633c82cbb78f8d3541a34d993ba2c247298c03e9e88aa9aace97af"),
}


@pytest.mark.parametrize("system", SYSTEMS, indirect=True)
def test_sector_bytes_match_pins(system, request):
    *_, sector = system
    basis_pin, matrix_pin = SECTOR_PINS[request.node.callspec.params["system"]]
    assert sector.basis.dtype == np.int64 and sector.hamiltonian.matrix.dtype == np.float64
    assert hashlib.sha256(sector.basis.tobytes()).hexdigest() == basis_pin
    assert hashlib.sha256(sector.hamiltonian.matrix.tobytes()).hexdigest() == matrix_pin


@pytest.mark.parametrize("system", SYSTEMS, indirect=True)
def test_sector_hamiltonian_matches_occupation_basis_matrix(system):
    integrals, _, _, _, sector = system
    reference = fock.hamiltonian_matrix(integrals, sector.basis.tolist())
    assert np.max(np.abs(sector.hamiltonian.matrix - reference)) < 1e-12


@pytest.mark.parametrize("system", SYSTEMS, indirect=True)
def test_scattered_states_match_excitation_chain(system):
    _, ham, ansatz, states, sector = system
    rng = np.random.default_rng(41)
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, ansatz.parameter_count)
        _, energies, evolved = sa_energy(theta, sector, (0.5, 0.5))
        for reference, state, energy in zip(states, evolved, energies):
            chain = excitation_chain(reference, ansatz, theta)
            assert np.max(np.abs(state.amplitudes - chain.amplitudes)) < 1e-12
            assert abs(energy - expectation(chain, ham)) < 1e-12


@pytest.mark.parametrize("system", ["h4", "lih"], indirect=True)
@pytest.mark.parametrize("n_rows", [1, 2, 3, 67])
def test_block_rows_bitwise_equal_to_one_row(system, n_rows):
    # rows alternate between the references; each row of a block must be
    # what the same row gives alone, in the evolved state and its energy
    _, _, ansatz, _, sector = system
    rng = np.random.default_rng(42 + n_rows)
    thetas = rng.uniform(-np.pi, np.pi, (n_rows, ansatz.parameter_count))
    refs = sector.references[np.arange(n_rows) % len(sector.references)]
    block = apply_ansatz(refs, sector.ansatz, thetas)
    energies = expectation(block, sector.hamiltonian)
    for row in range(n_rows):
        alone = apply_ansatz(refs[row : row + 1], sector.ansatz, thetas[row : row + 1])
        assert np.array_equal(block[row], alone[0]), row
        assert energies[row] == expectation(alone, sector.hamiltonian)[0], row


@pytest.mark.parametrize("system", ["h4"], indirect=True)
@pytest.mark.parametrize("n_points", [1, 2, 3, 40])
def test_sa_energy_points_bitwise_equal_to_one_point(system, n_points):
    _, _, ansatz, _, sector = system
    thetas = np.random.default_rng(43).uniform(-1.0, 1.0, (n_points, ansatz.parameter_count))
    e_sa, energies, _ = sa_energy(thetas, sector, (0.25, 0.75))
    for i, theta in enumerate(thetas):
        one_e_sa, one_energies, _ = sa_energy(theta, sector, (0.25, 0.75))
        assert e_sa[i] == one_e_sa
        assert tuple(energies[i].tolist()) == one_energies


def test_non_hermitian_hamiltonian_rejected_when_the_sector_is_built():
    # iX is anti-Hermitian: its block [[0, i], [i, 0]] is not Hermitian
    ham = QubitHamiltonian(1, [PauliTerm("X", 1j)])
    states = (basis_state(1, []), basis_state(1, [0]))
    with pytest.raises(ExpectationError, match="not Hermitian"):
        Sector.build(ham, AnsatzSpec(n_qubits=1), states)


def test_complex_references_rejected(h2_integrals):
    ham = jordan_wigner(h2_integrals)
    hf, excited = build_initial_states(2, 2)
    phased = StateVector(4, 1j * excited.amplitudes)
    with pytest.raises(ValueError, match="real amplitudes"):
        Sector.build(ham, default_ansatz(2, 2), (hf, phased))


@pytest.mark.parametrize(
    "optimizer",
    [
        OptimizerChoice("bfgs"),
        OptimizerChoice("de", de_config=DEConfig(
            seed=1, termination=TerminationCriteria(max_generations=3))),
    ],
    ids=["bfgs", "de"],
)
def test_sector_freed_with_its_run_without_garbage_collection(h2_integrals, optimizer,
                                                              monkeypatch):
    # the run owns its sector: a reference cycle or a cache would keep it
    # (for LiH, 0.4 MB of Hamiltonian block) alive after the run returns
    built = []
    build = Sector.build.__func__

    def watched(cls, *args):
        sector = build(cls, *args)
        built.append(weakref.ref(sector))
        return sector

    monkeypatch.setattr(Sector, "build", classmethod(watched))
    gc.disable()
    try:
        result = run_sa_vqe(jordan_wigner(h2_integrals), default_ansatz(2, 2),
                            optimizer=optimizer, n_orb=2, n_elec=2, incumbent=[0.1, 0.0])
        assert len(built) == 1
        assert built[0]() is None
        assert result.evaluations > 2
    finally:
        gc.enable()


def test_incumbent_adopted_only_when_lower(h2_integrals):
    ham = jordan_wigner(h2_integrals)
    short = OptimizerChoice("gd", local_config=LocalOptConfig(max_iters=1))
    plain = run_sa_vqe(ham, default_ansatz(2, 2), optimizer=short, n_orb=2, n_elec=2)
    best = run_sa_vqe(ham, default_ansatz(2, 2), n_orb=2, n_elec=2)
    adopted = run_sa_vqe(ham, default_ansatz(2, 2), optimizer=short, n_orb=2, n_elec=2,
                         incumbent=best.theta)
    assert adopted.evaluations == plain.evaluations + 1
    assert np.array_equal(adopted.theta, best.theta) and adopted.e_sa == best.e_sa
    kept = run_sa_vqe(ham, default_ansatz(2, 2), n_orb=2, n_elec=2, incumbent=plain.theta)
    assert np.array_equal(kept.theta, best.theta) and kept.e_sa == best.e_sa
