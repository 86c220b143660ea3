"""The dense oracles of tests/dense_oracle.py against dense matrices, and the
2^n Givens kernel against the Pauli-word chain."""

import numpy as np
import pytest
from scipy.linalg import expm

from devqe import fock
from devqe.ansatz import (
    AnsatzSpec,
    Excitation,
    default_ansatz,
    double_excitation,
    paired_double,
    paired_single,
    single_excitation,
)
from devqe.jw import jordan_wigner
from devqe.pauli import PauliTerm, QubitHamiltonian, hamiltonian_matrix, pauli_matrix
from devqe.savqe import build_initial_states
from devqe.statevector import (
    RDMPair,
    ReplacementLists,
    SectorHamiltonian,
    ShapeError,
    StateVector,
    _annihilate,
    _index_array,
    _parity,
    measure_rdms,
    rdm_energy,
)
from tests.dense_oracle import (
    ExpectationError,
    apply_excitation,
    apply_pauli,
    apply_pauli_rotation,
    basis_state,
    dense_apply_ansatz,
    dense_expectation,
    generator_words,
)

MOLECULES = ("h2_integrals", "h4_integrals", "lih_integrals")


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


class TestBasisState:
    def test_vacuum(self):
        state = basis_state(4, [])
        assert state.amplitudes[0] == 1.0
        assert state.norm() == 1.0

    def test_occupied_modes_set_bits(self):
        state = basis_state(4, [0, 1])
        assert state.amplitudes[0b0011] == 1.0

    def test_duplicate_mode_rejected(self):
        with pytest.raises(IndexError):
            basis_state(4, [1, 1])

    def test_out_of_range_mode_rejected(self):
        with pytest.raises(IndexError):
            basis_state(4, [4])


class TestPauliApplication:
    def test_matches_dense_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            string = "".join(rng.choice(list("IXYZ"), 4))
            state = random_state(4, int(rng.integers(1000)))
            out = apply_pauli(state, string)
            ref = pauli_matrix(string) @ state.amplitudes
            assert np.allclose(out.amplitudes, ref, atol=1e-13)

    def test_rotation_identity_at_zero(self):
        state = random_state(3, 1)
        out = apply_pauli_rotation(state, "XYZ", 0.0)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_x_rotation_pi_flips(self):
        state = basis_state(1, [])
        out = apply_pauli_rotation(state, "X", np.pi)
        assert abs(abs(out.amplitudes[1]) - 1.0) < 1e-12

    def test_z_rotation_preserves_probabilities(self):
        state = basis_state(1, [])
        for theta in (0.3, 1.1, 2.9):
            out = apply_pauli_rotation(state, "Z", theta)
            assert np.allclose(np.abs(out.amplitudes), np.abs(state.amplitudes))

    def test_rotation_angles_add(self):
        state = random_state(3, 2)
        a = apply_pauli_rotation(apply_pauli_rotation(state, "XZY", 0.4), "XZY", 0.9)
        b = apply_pauli_rotation(state, "XZY", 1.3)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12

    def test_norm_drift_over_thousand_gates(self):
        rng = np.random.default_rng(3)
        state = random_state(4, 4)
        for _ in range(1000):
            string = "".join(rng.choice(list("IXYZ"), 4))
            state = apply_pauli_rotation(state, string, rng.uniform(-np.pi, np.pi))
        assert abs(state.norm() - 1.0) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            apply_pauli(random_state(3, 5), "XX")


class TestExcitations:
    def test_theta_zero_is_identity(self):
        exc = single_excitation(0, 2)
        state = random_state(4, 6)
        out = apply_excitation(state, exc, 0.0)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_norm_preserved_random_angles(self):
        rng = np.random.default_rng(7)
        exc = double_excitation((0, 1), (2, 3))
        for _ in range(20):
            state = random_state(4, int(rng.integers(1000)))
            out = apply_excitation(state, exc, rng.uniform(-np.pi, np.pi))
            assert abs(out.norm() - 1.0) < 1e-12

    def test_double_excitation_against_expm_oracle(self):
        # independent route: ladder matrices from occupation bit rules
        def ladder_mat(mode, dagger, n_qubits=4):
            mat = np.zeros((2**n_qubits, 2**n_qubits))
            for bits in range(2**n_qubits):
                sign, out = fock._apply_ops(bits, [(mode, dagger)])
                if out is not None:
                    mat[out, bits] = sign
            return mat

        tau = (
            ladder_mat(2, True)
            @ ladder_mat(3, True)
            @ ladder_mat(1, False)
            @ ladder_mat(0, False)
        )
        generator = tau - tau.T
        exc = double_excitation((0, 1), (2, 3))
        rng = np.random.default_rng(8)
        for theta in rng.uniform(-np.pi, np.pi, 5):
            state = random_state(4, int(rng.integers(1000)))
            out = apply_excitation(state, exc, theta)
            ref = expm(theta * generator) @ state.amplitudes
            assert np.max(np.abs(out.amplitudes - ref)) < 1e-12

    def test_pair_swap_at_half_pi(self):
        exc = double_excitation((0, 1), (2, 3))
        state = basis_state(4, [0, 1])
        out = apply_excitation(state, exc, np.pi / 2)
        assert abs(abs(out.amplitudes[0b1100]) - 1.0) < 1e-12

    def test_paired_generators_match_expm(self):
        def ladder_mat(mode, dagger, n_qubits=4):
            mat = np.zeros((2**n_qubits, 2**n_qubits))
            for bits in range(2**n_qubits):
                sign, out = fock._apply_ops(bits, [(mode, dagger)])
                if out is not None:
                    mat[out, bits] = sign
            return mat

        tau_up = ladder_mat(2, True) @ ladder_mat(0, False)
        tau_dn = ladder_mat(3, True) @ ladder_mat(1, False)
        generator = (tau_up - tau_up.T) + (tau_dn - tau_dn.T)
        exc = paired_single(0, 1)
        for theta in (0.2, -0.9, 1.7):
            state = random_state(4, 11)
            out = apply_excitation(state, exc, theta)
            ref = expm(theta * generator) @ state.amplitudes
            assert np.max(np.abs(out.amplitudes - ref)) < 1e-12

    def test_generator_words_reject_anticommuting_branches(self):
        # c+_1 c_0 and c+_2 c_1 share mode 1: their words anticommute, so
        # exp(theta G) is not a product of the words' rotations
        excitation = Excitation((((1, True), (0, False)), ((2, True), (1, False))))
        with pytest.raises(ValueError, match="mutually commute"):
            generator_words(excitation, 3)

    def test_excitation_outside_the_state_rejected(self):
        with pytest.raises(ShapeError, match="outside the state"):
            apply_excitation(random_state(2, 5), single_excitation(0, 2), 0.3)

    # sha256 of the repr of every default-ansatz generator's (string, coeff)
    # words, in circuit order, pinned from the code that stored them on each
    # Excitation
    @pytest.mark.parametrize(
        "molecule, digest",
        [
            ("h2", "cae161b6956750139270ca162ba25843140db940c180f57c6536e83b225c526b"),
            ("h4", "348f6765dcf2b8bae4c31190e3b5b9b8f1bbd5e5b278eda39880a03e0063b87d"),
            ("lih", "18b6eb41c362852799b7353981dfd5a714501131ce8b065c650c7dcf67d62494"),
        ],
    )
    def test_default_ansatz_generator_words_pins(self, request, molecule, digest):
        import hashlib

        integrals = request.getfixturevalue(f"{molecule}_integrals")
        ansatz = default_ansatz(integrals.n_orb, integrals.n_elec)
        words = [generator_words(excitation, ansatz.n_qubits)
                 for excitation in ansatz.excitations]
        assert hashlib.sha256(repr(words).encode()).hexdigest() == digest


def pauli_sum_expectation(state, ham):
    """<psi|H|psi> term by term through the letter-string apply_pauli."""
    return sum(
        term.coefficient * state.inner(apply_pauli(state, term.string)).real
        for term in ham.terms
    )


class TestExpectation:
    def test_z_on_zero_state(self):
        ham = QubitHamiltonian(2, [PauliTerm("ZI", 1.0)])
        assert dense_expectation(basis_state(2, []), ham) == pytest.approx(1.0)

    def test_identity_hamiltonian(self):
        ham = QubitHamiltonian(3, [PauliTerm("III", -2.5)])
        assert dense_expectation(random_state(3, 12), ham) == pytest.approx(-2.5)

    def test_ground_eigenvector_reproduces_eigenvalue(self, h2_integrals):
        ham = jordan_wigner(h2_integrals)
        mat = hamiltonian_matrix(ham)
        evals, evecs = np.linalg.eigh(mat)
        ground = StateVector(4, evecs[:, 0])
        assert abs(dense_expectation(ground, ham) - evals[0]) < 1e-10

    def test_global_phase_invariance(self, h2_integrals):
        ham = jordan_wigner(h2_integrals)
        state = random_state(4, 13)
        shifted = StateVector(4, np.exp(0.7j) * state.amplitudes)
        assert dense_expectation(state, ham) == pytest.approx(
            dense_expectation(shifted, ham), abs=1e-12
        )

    def test_qubit_count_mismatch(self, h2_integrals):
        ham = jordan_wigner(h2_integrals)
        with pytest.raises(ShapeError):
            dense_expectation(random_state(3, 17), ham)

    def test_matches_term_by_term_sum(self, h2_integrals):
        # the row reduction must agree with the naive sum
        ham = jordan_wigner(h2_integrals)
        for seed in range(10):
            state = random_state(4, 100 + seed)
            naive = pauli_sum_expectation(state, ham)
            assert dense_expectation(state, ham) == pytest.approx(naive, abs=1e-12)


def sector_sum_expectation(state, integrals):
    """<psi|H|psi> as the sum over the (N, S_z) sectors of the state's
    components, each with the sector block built from the integrals."""
    n_qubits = 2 * integrals.n_orb
    determinants = np.arange(2**n_qubits)
    up = sum(1 << mode for mode in range(0, n_qubits, 2))
    labels = (np.bitwise_count(determinants & up).astype(np.intp) * (n_qubits + 1)
              + np.bitwise_count(determinants & (up << 1)))
    total = 0.0
    for label in np.unique(labels):
        basis = np.flatnonzero(labels == label)
        lists = ReplacementLists.on_basis(integrals.n_orb, basis)
        block = SectorHamiltonian.from_integrals(integrals, lists).matrix
        psi = state.amplitudes[basis]
        total += np.vdot(psi, block @ psi).real
    return total


class TestCompiledHamiltonian:
    """The dense expectation of a letter-form Hamiltonian, the oracle of the
    sector path."""

    @pytest.mark.parametrize("molecule", MOLECULES)
    def test_matches_oracle_on_random_states(self, molecule, request):
        integrals = request.getfixturevalue(molecule)
        ham = jordan_wigner(integrals)
        # the dense matrix up to 8 qubits; at 12 qubits it would take 268 MB,
        # so LiH is checked against the sector blocks of its integrals
        dense = hamiltonian_matrix(ham) if ham.n_qubits <= 8 else None
        for seed in range(20):
            state = random_state(ham.n_qubits, 200 + seed)
            if dense is not None:
                ref = np.vdot(state.amplitudes, dense @ state.amplitudes).real
            else:
                ref = sector_sum_expectation(state, integrals)
            assert abs(dense_expectation(state, ham) - ref) < 1e-12

    def test_wrong_width_rejected(self, h2_integrals):
        ham = jordan_wigner(h2_integrals)
        with pytest.raises(ShapeError):
            dense_expectation(random_state(3, 22), ham)
        with pytest.raises(ShapeError):
            dense_expectation(random_state(5, 23), ham)

    def test_imaginary_residue_rejected(self):
        # iX is anti-Hermitian: <+|iX|+> = i
        ham = QubitHamiltonian(1, [PauliTerm("X", 1j)])
        plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
        with pytest.raises(ExpectationError):
            dense_expectation(plus, ham)
        with pytest.raises(ExpectationError):
            dense_expectation(np.array([[1.0, 0.0], plus.amplitudes]), ham)

    @pytest.mark.parametrize("molecule", MOLECULES)
    def test_block_rows_equal_single_states(self, molecule, request):
        integrals = request.getfixturevalue(molecule)
        ham = jordan_wigner(integrals)
        n_qubits = 2 * integrals.n_orb
        states = [random_state(n_qubits, 300 + seed) for seed in range(4)]
        values = dense_expectation(np.array([s.amplitudes for s in states]), ham)
        assert values.shape == (4,)
        assert values.tolist() == [dense_expectation(s, ham) for s in states]


def givens_excitation_chain(reference, ansatz, theta):
    """dense_apply_ansatz one excitation at a time, in circuit order."""
    out = reference
    for excitation, angle in zip(ansatz.excitations, theta):
        out = dense_apply_ansatz(out, AnsatzSpec(ansatz.n_qubits, [excitation]), [angle])
    return out


def pauli_excitation_chain(reference, ansatz, theta):
    out = reference
    for excitation, angle in zip(ansatz.excitations, theta):
        out = apply_excitation(out, excitation, float(angle))
    return out


class TestCompiledAnsatz:
    """dense_apply_ansatz: an AnsatzSpec compiled to Givens sets on all 2^n
    determinants, against the Pauli-word chain of apply_excitation.  The
    two are different exact factorisations of U(theta), so they agree to
    rounding; excitation by excitation, the Givens sets compose bitwise."""

    @pytest.mark.parametrize("molecule", MOLECULES)
    def test_bit_identical_to_excitation_chain(self, molecule, request):
        integrals = request.getfixturevalue(molecule)
        ansatz = default_ansatz(integrals.n_orb, integrals.n_elec)
        n_qubits = ansatz.n_qubits
        states = build_initial_states(integrals.n_orb, integrals.n_elec)
        states += tuple(random_state(n_qubits, 240 + seed) for seed in range(2))
        rng = np.random.default_rng(24)
        for state in states:
            for _ in range(2):
                theta = rng.uniform(-np.pi, np.pi, ansatz.parameter_count)
                out = dense_apply_ansatz(state, ansatz, theta).amplitudes
                assert np.array_equal(
                    out, givens_excitation_chain(state, ansatz, theta).amplitudes
                )
                chain = pauli_excitation_chain(state, ansatz, theta).amplitudes
                assert np.max(np.abs(out - chain)) < 1e-12

    @pytest.mark.parametrize("molecule", MOLECULES)
    def test_block_rows_bit_identical_to_excitation_chain(self, molecule, request):
        # one block, a different theta and either reference on every row
        integrals = request.getfixturevalue(molecule)
        ansatz = default_ansatz(integrals.n_orb, integrals.n_elec)
        references = build_initial_states(integrals.n_orb, integrals.n_elec)
        rng = np.random.default_rng(26)
        n_rows = 5
        thetas = rng.uniform(-np.pi, np.pi, (n_rows, ansatz.parameter_count))
        chosen = [references[r % 2] for r in range(n_rows)]
        block = dense_apply_ansatz(np.array([ref.amplitudes for ref in chosen]), ansatz, thetas)
        assert block.shape == (n_rows, 2**ansatz.n_qubits)
        for row, (reference, theta) in enumerate(zip(chosen, thetas)):
            alone = givens_excitation_chain(reference, ansatz, theta).amplitudes
            assert np.array_equal(block[row], alone), row
            chain = pauli_excitation_chain(reference, ansatz, theta).amplitudes
            assert np.max(np.abs(block[row] - chain)) < 1e-12, row

    def test_block_rejects_mismatched_rows(self):
        ansatz = default_ansatz(2, 2)
        block = np.array([basis_state(4, [0, 1]).amplitudes] * 3)
        assert dense_apply_ansatz(block, ansatz, np.zeros((3, 2))).shape == (3, 16)
        with pytest.raises(ShapeError):
            dense_apply_ansatz(block, ansatz, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            dense_apply_ansatz(block, ansatz, np.zeros((3, 1)))

    def test_rejects_bad_theta_and_width(self):
        ansatz = default_ansatz(2, 2)
        with pytest.raises(ValueError):
            dense_apply_ansatz(basis_state(4, [0, 1]), ansatz, [0.1])
        with pytest.raises(ShapeError):
            dense_apply_ansatz(basis_state(6, [0, 1]), ansatz, [0.1, 0.2])


def apply_annihilation(state: StateVector, mode: int) -> StateVector:
    """c_mode |psi> with the Jordan-Wigner sign (-1)^(occupied modes below)."""
    if not 0 <= mode < state.n_qubits:
        raise IndexError(f"mode {mode} outside [0, {state.n_qubits})")
    return StateVector(state.n_qubits, _annihilate(state.amplitudes, mode))


def apply_creation(state: StateVector, mode: int) -> StateVector:
    """c_mode^dagger |psi>, zeroing components where the mode is occupied."""
    if not 0 <= mode < state.n_qubits:
        raise IndexError(f"mode {mode} outside [0, {state.n_qubits})")
    n = state.amplitudes.size
    bit = np.uint64(1 << mode)
    lower = np.uint64((1 << mode) - 1)
    idx = _index_array(state.n_qubits)
    empty = (idx & bit) == 0
    src = idx[empty]
    signs = 1.0 - 2.0 * _parity(src & lower)
    out = np.zeros(n, dtype=complex)
    out[src | bit] = signs * state.amplitudes[src]
    return StateVector(state.n_qubits, out)


def dense_initial_states(n_orb, n_elec):
    """The SA-VQE references built with dense ladder operators: the
    Hartree-Fock determinant and (a+_(L up) a_(H up) + a+_(L down)
    a_(H down)) |HF> / sqrt(2) for the HOMO H and the LUMO L."""
    n_qubits = 2 * n_orb
    homo, lumo = n_elec // 2 - 1, n_elec // 2
    hf = basis_state(n_qubits, range(n_elec))

    def promote(occ_mode, virt_mode):
        return apply_creation(apply_annihilation(hf, occ_mode), virt_mode)

    up = promote(2 * homo, 2 * lumo)
    down = promote(2 * homo + 1, 2 * lumo + 1)
    return hf, StateVector(n_qubits, (up.amplitudes + down.amplitudes) / np.sqrt(2.0))


@pytest.mark.parametrize("n_orb, n_elec", [(2, 2), (4, 4), (6, 4), (6, 2), (5, 6)])
def test_initial_states_bitwise_equal_to_dense_ladder_operators(n_orb, n_elec):
    for got, ref in zip(build_initial_states(n_orb, n_elec), dense_initial_states(n_orb, n_elec)):
        assert got.amplitudes.tobytes() == ref.amplitudes.tobytes()


class TestLadderOnStates:
    def test_annihilation_creation_round_trip(self):
        state = basis_state(4, [0, 2])
        emptied = apply_annihilation(state, 2)
        refilled = apply_creation(emptied, 2)
        assert np.allclose(refilled.amplitudes, state.amplitudes)

    def test_annihilating_empty_mode_gives_zero(self):
        state = basis_state(3, [0])
        out = apply_annihilation(state, 1)
        assert np.max(np.abs(out.amplitudes)) == 0.0


class TestRdms:
    def test_hf_rdms(self):
        hf = basis_state(4, [0, 1])
        rdms = measure_rdms(hf, 2)
        assert np.allclose(rdms.one_rdm, np.diag([2.0, 0.0]))
        assert rdms.two_rdm[0, 0, 0, 0] == pytest.approx(2.0)

    def test_trace_counts_electrons_on_random_ansatz_states(self):
        ansatz = default_ansatz(2, 2)
        rng = np.random.default_rng(14)
        hf = basis_state(4, [0, 1])
        for _ in range(50):
            theta = rng.uniform(-2.0, 2.0, ansatz.parameter_count)
            state = dense_apply_ansatz(hf, ansatz, theta)
            rdms = measure_rdms(state, 2)
            assert abs(np.trace(rdms.one_rdm) - 2.0) < 1e-10
            assert np.max(np.abs(rdms.one_rdm - rdms.one_rdm.T)) < 1e-10

    def test_contraction_equals_expectation(self, h2_integrals):
        ham = jordan_wigner(h2_integrals)
        ansatz = default_ansatz(2, 2)
        rng = np.random.default_rng(15)
        hf = basis_state(4, [0, 1])
        for _ in range(20):
            theta = rng.uniform(-2.0, 2.0, ansatz.parameter_count)
            state = dense_apply_ansatz(hf, ansatz, theta)
            direct = dense_expectation(state, ham)
            contracted = rdm_energy(h2_integrals, measure_rdms(state, 2))
            assert abs(direct - contracted) < 1e-10

    def test_odd_qubit_count_rejected(self):
        with pytest.raises(ShapeError):
            measure_rdms(random_state(3, 16), 1)

    @pytest.mark.parametrize("molecule", MOLECULES)
    def test_gram_rdms_match_inner_product_loop(self, molecule, request):
        integrals = request.getfixturevalue(molecule)
        n_orb = integrals.n_orb
        ansatz = default_ansatz(n_orb, integrals.n_elec)
        hf, excited = build_initial_states(n_orb, integrals.n_elec)
        theta = np.random.default_rng(25).uniform(-1.0, 1.0, ansatz.parameter_count)
        states = [
            dense_apply_ansatz(hf, ansatz, theta),
            dense_apply_ansatz(excited, ansatz, theta),
            random_state(2 * n_orb, 26),
        ]
        for state in states:
            got = measure_rdms(state, n_orb)
            ref = loop_measure_rdms(state, n_orb)
            assert np.max(np.abs(got.one_rdm - ref.one_rdm)) < 1e-12
            assert np.max(np.abs(got.two_rdm - ref.two_rdm)) < 1e-12


def loop_measure_rdms(state, n_orb):
    """The RDM measurement the Gram form replaced: one vdot per entry."""
    n_modes = 2 * n_orb
    annihilated = [apply_annihilation(state, m) for m in range(n_modes)]
    rho = np.zeros((n_modes, n_modes), dtype=complex)
    for p_mode in range(n_modes):
        for q_mode in range(n_modes):
            if (p_mode ^ q_mode) & 1:
                continue
            rho[p_mode, q_mode] = annihilated[p_mode].inner(annihilated[q_mode])
    one = np.zeros((n_orb, n_orb))
    for p in range(n_orb):
        for q in range(n_orb):
            one[p, q] = (rho[2 * p, 2 * q] + rho[2 * p + 1, 2 * q + 1]).real

    pair = {}
    for b_mode in range(n_modes):
        for a_mode in range(b_mode):
            pair[(a_mode, b_mode)] = apply_annihilation(annihilated[b_mode], a_mode)

    def pair_ket(a_mode, b_mode):
        if a_mode == b_mode:
            return None, 0.0
        if a_mode < b_mode:
            return pair[(a_mode, b_mode)], 1.0
        return pair[(b_mode, a_mode)], -1.0

    two = np.zeros((n_orb,) * 4)
    for p in range(n_orb):
        for q in range(n_orb):
            for r in range(n_orb):
                for s in range(n_orb):
                    total = 0.0 + 0.0j
                    for sigma in (0, 1):
                        for tau in (0, 1):
                            bra, sb = pair_ket(2 * q + tau, 2 * p + sigma)
                            ket, sk = pair_ket(2 * s + tau, 2 * r + sigma)
                            if bra is None or ket is None:
                                continue
                            total += sb * sk * bra.inner(ket)
                    two[p, q, r, s] = total.real
    return RDMPair(one_rdm=one, two_rdm=two)
