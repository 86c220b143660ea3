"""Pauli-string algebra over n qubits.

Strings are manipulated internally in the symplectic (X-mask, Z-mask)
encoding: the word W(x, z) = prod_j X_j^{x_j} Z_j^{z_j} with bit j of the
integer masks addressing qubit j.  Products then reduce to XORs plus a sign,

    W(x1, z1) W(x2, z2) = (-1)^popcount(z1 & x2) W(x1^x2, z1^z2),

and the letter form used everywhere else follows from Y = i X Z, i.e.
P(x, z) = i^popcount(x & z) W(x, z).

The letter convention: string character j is the operator on qubit j, and
qubit j is bit j (least significant = qubit 0) of a basis-state index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

COEFF_CUTOFF = 1e-12
IMAG_TOLERANCE = 1e-10


class HermiticityError(ValueError):
    """A coefficient kept a residual imaginary part above tolerance."""


@dataclass(frozen=True)
class PauliTerm:
    string: str
    coefficient: float


@dataclass
class QubitHamiltonian:
    n_qubits: int
    terms: list

    def __post_init__(self):
        seen = set()
        for term in self.terms:
            if len(term.string) != self.n_qubits:
                raise ValueError("term length does not match qubit count")
            if term.string in seen:
                raise ValueError(f"duplicate Pauli string {term.string}")
            seen.add(term.string)

    def __len__(self):
        return len(self.terms)


def masks_to_string(x: int, z: int, n_qubits: int) -> str:
    # xb + 2*zb: (0,0)->I, (1,0)->X, (0,1)->Z, (1,1)->Y
    lookup = "IXZY"
    out = []
    for j in range(n_qubits):
        xb = (x >> j) & 1
        zb = (z >> j) & 1
        out.append(lookup[xb + 2 * zb])
    return "".join(out)


def word_product(x1: int, z1: int, x2: int, z2: int):
    """Product of two XZ-words: (sign, x, z) with sign in {+1, -1}."""
    sign = -1.0 if ((z1 & x2).bit_count() & 1) else 1.0
    return sign, x1 ^ x2, z1 ^ z2


def multiply_sums(a: dict, b: dict) -> dict:
    """Product of two operators given as {(x, z): coeff} dicts of XZ-words."""
    out: dict = {}
    for (x1, z1), c1 in a.items():
        for (x2, z2), c2 in b.items():
            sign, x, z = word_product(x1, z1, x2, z2)
            key = (x, z)
            out[key] = out.get(key, 0.0) + sign * c1 * c2
    return out


def add_into(acc: dict, other: dict, scale=1.0) -> None:
    for key, coeff in other.items():
        acc[key] = acc.get(key, 0.0) + scale * coeff


def word_sum_to_terms(words: dict, n_qubits: int, drop_below=COEFF_CUTOFF):
    """Convert an XZ-word sum to letter PauliTerms with real coefficients.

    Raises HermiticityError if any coefficient keeps an imaginary residue
    above tolerance (a Hermitian operator must reduce to real weights).
    """
    terms = []
    for (x, z), coeff in words.items():
        k = (x & z).bit_count()
        letter_coeff = coeff * (-1j) ** k
        if abs(letter_coeff) < drop_below:
            continue
        if abs(letter_coeff.imag) > IMAG_TOLERANCE:
            raise HermiticityError(
                f"residual imaginary coefficient {letter_coeff.imag:.3e} on "
                f"{masks_to_string(x, z, n_qubits)}"
            )
        terms.append(PauliTerm(masks_to_string(x, z, n_qubits), float(letter_coeff.real)))
    terms.sort(key=lambda t: t.string)
    return terms


def pauli_matrix(string: str) -> np.ndarray:
    """Dense matrix of a letter string (qubit 0 = least significant bit)."""
    mat = np.array([[1.0 + 0j]])
    for ch in string:  # qubit 0 first -> it must be the innermost kron factor
        mat = np.kron(_SINGLE[ch], mat)
    return mat


def hamiltonian_matrix(ham: QubitHamiltonian) -> np.ndarray:
    dim = 2**ham.n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for term in ham.terms:
        mat += term.coefficient * pauli_matrix(term.string)
    return mat
