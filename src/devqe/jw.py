"""Jordan-Wigner mapping of the second-quantized electronic Hamiltonian.

Spin-orbital ordering is interleaved: mode 2p is orbital p spin-up, mode 2p+1
is orbital p spin-down, so a closed-shell reference occupies a contiguous
prefix of modes.  Occupation convention: qubit |0> is an empty mode, so the
number operator reads n_j = (I - Z_j) / 2.  The same words give the Pauli
form of an ansatz generator (generator_words), which the dense excitation
chain of the tests applies.
"""

from __future__ import annotations

import functools

from .integrals import MolecularIntegrals
from .pauli import (
    COEFF_CUTOFF,
    PauliTerm,
    QubitHamiltonian,
    add_into,
    masks_to_string,
    multiply_sums,
    strings_commute,
    word_sum_to_terms,
)

DECOMPOSITION_CUTOFF = 1e-14
REAL_RESIDUE_TOL = 1e-12


def jw_ladder(mode: int, dagger: bool) -> dict:
    """XZ-word sum for c_mode (or c_mode^dagger), with the Z string on all
    lower modes enforcing the anticommutation phases."""
    string_mask = (1 << mode) - 1
    x = 1 << mode
    # (X -+ iY)/2 in XZ words: X/2 +- (XZ)/2
    sign = 1.0 if dagger else -1.0
    return {
        (x, string_mask): 0.5,
        (x, string_mask | x): 0.5 * sign,
    }


def generator_words(excitation, n_qubits: int) -> tuple:
    """The Pauli form of an excitation's anti-Hermitian generator
    G = sum_b (tau_b - tau_b^dagger) over its ladder strings tau_b: the
    (string, c) pairs of G = sum_k i c_k P_k with real c_k, sorted by string.

    The words of one generator mutually commute, so exp(theta G) is exactly
    a product of Pauli rotations.  ValueError when a coefficient keeps a real
    part (G is not anti-Hermitian) or two words anticommute.
    """
    words: dict = {}
    for specs in excitation.ladder_specs:
        adjoint = tuple((mode, not dagger) for mode, dagger in reversed(specs))
        for string, scale in ((specs, 1.0), (adjoint, -1.0)):
            product = functools.reduce(multiply_sums, [jw_ladder(*op) for op in string])
            add_into(words, product, scale)
    terms = []
    for (x, z), coeff in words.items():
        letter_coeff = coeff * (-1j) ** (x & z).bit_count()
        if abs(letter_coeff) < DECOMPOSITION_CUTOFF:
            continue
        if abs(letter_coeff.real) > REAL_RESIDUE_TOL:
            raise ValueError("generator decomposition is not anti-Hermitian")
        terms.append((masks_to_string(x, z, n_qubits), float(letter_coeff.imag)))
    terms.sort(key=lambda t: t[0])
    for i, (string, _) in enumerate(terms):
        if not all(strings_commute(string, other) for other, _ in terms[i + 1:]):
            raise ValueError("generator words must mutually commute")
    return tuple(terms)


def spin_orbital_mode(orbital: int, spin: int) -> int:
    """spin 0 = up, 1 = down; interleaved mode index."""
    return 2 * orbital + spin


def jordan_wigner(integrals: MolecularIntegrals) -> QubitHamiltonian:
    """Map h, g and the core energy to a simplified real Pauli sum.

    Every (p, q[, r, s]) block is expanded over same-spin-conserving spin
    orbitals, substituted with ladder-word products, and accumulated into one
    word dictionary that is merged, pruned below 1e-12, and sorted.
    """
    n_orb = integrals.n_orb
    n_modes = 2 * n_orb

    create = [jw_ladder(m, dagger=True) for m in range(n_modes)]
    destroy = [jw_ladder(m, dagger=False) for m in range(n_modes)]

    words: dict = {(0, 0): complex(integrals.core_energy)}

    for p in range(n_orb):
        for q in range(n_orb):
            val = integrals.h[p, q]
            if abs(val) < COEFF_CUTOFF:
                continue
            for sigma in (0, 1):
                prod = multiply_sums(
                    create[spin_orbital_mode(p, sigma)],
                    destroy[spin_orbital_mode(q, sigma)],
                )
                add_into(words, prod, scale=val)

    for p in range(n_orb):
        for q in range(n_orb):
            for r in range(n_orb):
                for s in range(n_orb):
                    val = integrals.g[p, q, r, s]
                    if abs(val) < COEFF_CUTOFF:
                        continue
                    for sigma in (0, 1):
                        for tau in (0, 1):
                            mp = spin_orbital_mode(p, sigma)
                            mq = spin_orbital_mode(q, tau)
                            mr = spin_orbital_mode(r, sigma)
                            ms = spin_orbital_mode(s, tau)
                            if mp == mq or mr == ms:
                                continue  # c+c+ or cc on one mode vanishes
                            prod = multiply_sums(
                                multiply_sums(create[mp], create[mq]),
                                multiply_sums(destroy[ms], destroy[mr]),
                            )
                            add_into(words, prod, scale=0.5 * val)

    terms = word_sum_to_terms(words, n_modes)
    return QubitHamiltonian(n_qubits=n_modes, terms=terms)


def number_operator(n_qubits: int) -> QubitHamiltonian:
    """Total particle number sum_j (I - Z_j)/2 as a Pauli sum."""
    terms = [PauliTerm("I" * n_qubits, 0.5 * n_qubits)]
    for j in range(n_qubits):
        string = "".join("Z" if k == j else "I" for k in range(n_qubits))
        terms.append(PauliTerm(string, -0.5))
    return QubitHamiltonian(n_qubits=n_qubits, terms=sorted(terms, key=lambda t: t.string))
