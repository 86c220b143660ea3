"""Pauli algebra and the fermion-to-qubit mapping, checked against dense
matrices and the independent occupation-basis oracle."""

import numpy as np
import pytest

from devqe import fock
from devqe.integrals import MolecularIntegrals
from devqe.jw import jordan_wigner, jw_ladder, number_operator
from devqe.pauli import (
    PauliTerm,
    QubitHamiltonian,
    hamiltonian_matrix,
    masks_to_string,
    multiply_sums,
    pauli_matrix,
    word_product,
)
from tests.dense_oracle import string_to_masks, strings_commute


def words_to_matrix(words, n_qubits):
    out = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for (x, z), coeff in words.items():
        k = (x & z).bit_count()
        out += (coeff * (-1j) ** k) * pauli_matrix(masks_to_string(x, z, n_qubits))
    return out


def random_integrals(n_orb, seed, n_elec=2, core=0.0, scale=1.0):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n_orb, n_orb))
    h = 0.5 * (h + h.T)
    g = np.zeros((n_orb,) * 4)
    values = {}
    for i in range(n_orb):
        for j in range(n_orb):
            for k in range(n_orb):
                for l in range(n_orb):
                    key = min(
                        (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                        (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
                    )
                    if key not in values:
                        values[key] = scale * rng.normal()
                    g[i, k, j, l] = values[key]
    return MolecularIntegrals(
        n_orb=n_orb, n_elec=n_elec, core_energy=core, h=h, g=g
    )


class TestPauliAlgebra:
    def test_string_mask_round_trip(self):
        for string in ("IXYZ", "ZZZZ", "IIII", "YXIZ"):
            x, z = string_to_masks(string)
            assert masks_to_string(x, z, 4) == string

    def test_word_product_matches_dense(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s1 = "".join(rng.choice(list("IXYZ"), 3))
            s2 = "".join(rng.choice(list("IXYZ"), 3))
            w1, w2 = string_to_masks(s1), string_to_masks(s2)
            # convert letters to XZ-word coefficients: P = i^{|x&z|} W
            c1 = (1j) ** ((w1[0] & w1[1]).bit_count())
            c2 = (1j) ** ((w2[0] & w2[1]).bit_count())
            prod = multiply_sums({w1: c1}, {w2: c2})
            dense = words_to_matrix(prod, 3)
            ref = pauli_matrix(s1) @ pauli_matrix(s2)
            assert np.allclose(dense, ref, atol=1e-13)

    def test_commutation_predicate(self):
        assert strings_commute("XX", "ZZ")
        assert not strings_commute("XI", "ZI")
        assert strings_commute("XI", "IZ")

    def test_duplicate_strings_rejected(self):
        with pytest.raises(ValueError):
            QubitHamiltonian(2, [PauliTerm("XX", 1.0), PauliTerm("XX", 2.0)])

    def test_residual_imaginary_coefficient_raises(self):
        from devqe.pauli import HermiticityError, word_sum_to_terms

        # a bare XZ word carries coefficient -i on the Y letter: not Hermitian
        with pytest.raises(HermiticityError):
            word_sum_to_terms({(1, 1): 1.0 + 0.5j}, 1)


class TestLadderOperators:
    def test_anticommutation_relations(self):
        n_modes = 2
        mats = {}
        for mode in range(n_modes):
            mats[("c", mode)] = words_to_matrix(jw_ladder(mode, False), n_modes)
            mats[("cd", mode)] = words_to_matrix(jw_ladder(mode, True), n_modes)
        eye = np.eye(2**n_modes)

        def anti(a, b):
            return a @ b + b @ a

        assert np.max(np.abs(anti(mats[("c", 0)], mats[("cd", 1)]))) < 1e-14
        assert np.max(np.abs(anti(mats[("c", 0)], mats[("cd", 0)]) - eye)) < 1e-14
        assert np.max(np.abs(anti(mats[("c", 0)], mats[("c", 1)]))) < 1e-14

    def test_double_creation_vanishes(self):
        cd = words_to_matrix(jw_ladder(1, True), 3)
        assert np.max(np.abs(cd @ cd)) < 1e-14

    def test_number_operator_convention(self):
        # n_j = c+_j c_j = (I - Z_j) / 2 with |0> equal to the empty mode
        prod = multiply_sums(jw_ladder(0, True), jw_ladder(0, False))
        dense = words_to_matrix(prod, 1)
        assert np.allclose(dense, np.diag([0.0, 1.0]))


class TestJordanWigner:
    def test_single_mode_number_term(self):
        # one spatial orbital with h11 = eps and no repulsion: per spin mode the
        # mapping gives eps/2 * I - eps/2 * Z
        eps = 0.37
        ints = MolecularIntegrals(
            n_orb=1, n_elec=1, core_energy=0.0,
            h=np.array([[eps]]), g=np.zeros((1, 1, 1, 1)),
        )
        ham = jordan_wigner(ints)
        coeffs = {t.string: t.coefficient for t in ham.terms}
        assert abs(coeffs["II"] - eps) < 1e-12  # eps/2 per spin mode
        assert abs(coeffs["ZI"] + eps / 2) < 1e-12
        assert abs(coeffs["IZ"] + eps / 2) < 1e-12

    def test_coefficients_real_and_strings_unique(self, h2_integrals):
        ham = jordan_wigner(h2_integrals)
        strings = [t.string for t in ham.terms]
        assert len(strings) == len(set(strings))
        assert all(isinstance(t.coefficient, float) for t in ham.terms)
        assert all(abs(t.coefficient) >= 1e-12 for t in ham.terms)
        mat = hamiltonian_matrix(ham)
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12

    def test_h2_spectrum_matches_fock_oracle(self, h2_integrals):
        ham = jordan_wigner(h2_integrals)
        spec_qubit = np.linalg.eigvalsh(hamiltonian_matrix(ham))
        spec_fock = fock.full_spectrum(h2_integrals)
        assert spec_qubit.size == 16
        assert np.max(np.abs(spec_qubit - spec_fock)) < 1e-10

    def test_random_integrals_spectrum_matches(self):
        for seed in range(3):
            ints = random_integrals(2, seed, core=0.3 * seed)
            ham = jordan_wigner(ints)
            spec_qubit = np.linalg.eigvalsh(hamiltonian_matrix(ham))
            spec_fock = fock.full_spectrum(ints)
            assert np.max(np.abs(spec_qubit - spec_fock)) < 1e-10

    def test_commutes_with_total_number(self, h2_integrals):
        ham_mat = hamiltonian_matrix(jordan_wigner(h2_integrals))
        num_mat = hamiltonian_matrix(number_operator(4))
        comm = ham_mat @ num_mat - num_mat @ ham_mat
        assert np.max(np.abs(comm)) < 1e-12

    def test_h4_commutes_with_total_number(self, h4_integrals):
        ham_mat = hamiltonian_matrix(jordan_wigner(h4_integrals))
        num_mat = hamiltonian_matrix(number_operator(8))
        comm = ham_mat @ num_mat - num_mat @ ham_mat
        assert np.max(np.abs(comm)) < 1e-12

    def test_core_energy_lands_on_identity(self, h2_integrals):
        ham = jordan_wigner(h2_integrals)
        shifted = jordan_wigner(
            MolecularIntegrals(
                n_orb=h2_integrals.n_orb,
                n_elec=h2_integrals.n_elec,
                core_energy=h2_integrals.core_energy + 1.5,
                h=h2_integrals.h,
                g=h2_integrals.g,
            )
        )
        base = {t.string: t.coefficient for t in ham.terms}
        moved = {t.string: t.coefficient for t in shifted.terms}
        identity = "I" * 4
        assert abs(moved[identity] - base[identity] - 1.5) < 1e-12
        for string, coeff in base.items():
            if string != identity:
                assert abs(moved[string] - coeff) < 1e-12


class TestFrozenCoreConsistency:
    def test_freeze_then_map_matches_hf_energy(self, lih_integrals):
        from devqe.integrals import freeze_core, hf_determinant_energy
        from tests.dense_oracle import basis_state, dense_expectation

        frozen = freeze_core(lih_integrals, 1)
        ham = jordan_wigner(frozen)
        hf_active = basis_state(2 * frozen.n_orb, range(frozen.n_elec))
        e_mapped = dense_expectation(hf_active, ham)
        e_full = hf_determinant_energy(lih_integrals)
        assert abs(e_mapped - e_full) < 1e-10
