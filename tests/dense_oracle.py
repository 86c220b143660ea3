"""The dense 2^n statevector oracles, kept for the tests.

No run path allocates a 2^n vector: the SA-VQE stage evolves real rows of
the closed-shell sector (`devqe.savqe.Sector`), applies the ansatz as Givens
rotations (`devqe.ansatz.apply_ansatz` on a `GivensAnsatz`) and takes the
energies from the sector block (`devqe.statevector.expectation` on a
`SectorHamiltonian`).  This module holds the dense pieces that path is
tested against, moved out of the package:

- `basis_state`, and `apply_pauli` / `apply_pauli_rotation` of a letter
  string, with `string_to_masks` and `strings_commute`;
- `generator_words`, the Pauli form of an excitation's generator, and
  `apply_excitation`, its chain of Pauli rotations;
- `dense_expectation`, the expectation of a letter-form `QubitHamiltonian`
  on a `StateVector` or an (R, 2^n) block, with `ExpectationError`;
- `dense_apply_ansatz`, an `AnsatzSpec` run as the Givens sets of the full
  basis of 2^n determinants;
- `number_operator`, the total particle number as a Pauli sum;
- `scatter`, a Sector's rows as 2^n StateVectors.

`StateVector`, `build_initial_states` and `measure_rdms` stay in the package,
where the benchmark's set-up probe and layer tracer reach them.
"""

import functools
import math

import numpy as np

from devqe.ansatz import GivensAnsatz, apply_ansatz
from devqe.jw import jw_ladder
from devqe.pauli import PauliTerm, QubitHamiltonian, add_into, masks_to_string, multiply_sums
from devqe.savqe import _scatter
from devqe.statevector import ShapeError, StateVector, _index_array, _parity

IMAG_TOLERANCE = 1e-10
DECOMPOSITION_CUTOFF = 1e-14
REAL_RESIDUE_TOL = 1e-12


class ExpectationError(ValueError):
    """Expectation value kept an imaginary residue above tolerance."""


def string_to_masks(string: str):
    """(x_mask, z_mask) for a letter string; bit j <-> character j."""
    x = z = 0
    for j, ch in enumerate(string):
        if ch == "X":
            x |= 1 << j
        elif ch == "Y":
            x |= 1 << j
            z |= 1 << j
        elif ch == "Z":
            z |= 1 << j
        elif ch != "I":
            raise ValueError(f"invalid Pauli letter {ch!r}")
    return x, z


def strings_commute(s1: str, s2: str) -> bool:
    x1, z1 = string_to_masks(s1)
    x2, z2 = string_to_masks(s2)
    anti = ((x1 & z2).bit_count() + (z1 & x2).bit_count()) & 1
    return anti == 0


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


def basis_state(n_qubits: int, occupied_modes) -> StateVector:
    occupied = list(occupied_modes)
    if len(set(occupied)) != len(occupied):
        raise IndexError("occupied modes must be distinct")
    index = 0
    for mode in occupied:
        if not 0 <= mode < n_qubits:
            raise IndexError(f"mode {mode} outside [0, {n_qubits})")
        index |= 1 << mode
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def apply_pauli(state: StateVector, string: str) -> StateVector:
    """P|psi> for a letter string: one permute-and-phase pass."""
    if len(string) != state.n_qubits:
        raise ShapeError("Pauli string length must equal the qubit count")
    x_mask, z_mask = string_to_masks(string)
    n = state.amplitudes.size
    idx = _index_array(state.n_qubits)
    phase = (1j) ** ((x_mask & z_mask).bit_count() % 4)
    signs = 1.0 - 2.0 * _parity(idx & np.uint64(z_mask))
    out = np.empty(n, dtype=complex)
    out[idx ^ np.uint64(x_mask)] = phase * signs * state.amplitudes
    return StateVector(state.n_qubits, out)


def apply_pauli_rotation(state: StateVector, string: str, theta: float) -> StateVector:
    """exp(-i theta/2 P) |psi> = cos(theta/2)|psi> - i sin(theta/2) P|psi>."""
    rotated = apply_pauli(state, string)
    amps = (
        math.cos(theta / 2.0) * state.amplitudes
        - 1j * math.sin(theta / 2.0) * rotated.amplitudes
    )
    return StateVector(state.n_qubits, amps)


def apply_excitation(state: StateVector, excitation, theta: float) -> StateVector:
    """exp(theta (tau - tau^+)) |psi>, exact because the generator's Pauli
    words (generator_words) mutually commute: one rotation per word."""
    if any(mode >= state.n_qubits for specs in excitation.ladder_specs for mode, _ in specs):
        raise ShapeError("excitation acts on a mode outside the state")
    out = state
    for string, coeff in generator_words(excitation, state.n_qubits):
        # generator contributes i*coeff*P, so exp(theta*i*coeff*P) = R_P(-2 theta coeff)
        out = apply_pauli_rotation(out, string, -2.0 * theta * coeff)
    return out


def dense_expectation(state, hamiltonian):
    """<psi|H|psi> for a letter-form QubitHamiltonian: `state` is a
    StateVector (returns a float) or an (R, 2^n) amplitude block (returns the
    R values), and the terms add up as sum_k c_k <psi|P_k psi>, one row at a
    time; ExpectationError when a value keeps an imaginary residue above
    IMAG_TOLERANCE."""
    block = state.amplitudes[None] if isinstance(state, StateVector) else state
    if block.shape[-1] != 2**hamiltonian.n_qubits:
        raise ShapeError("Hamiltonian and state qubit counts differ")
    values = np.empty(len(block))
    for row, psi in enumerate(block):
        ket = StateVector(hamiltonian.n_qubits, psi)
        total = sum(term.coefficient * ket.inner(apply_pauli(ket, term.string))
                    for term in hamiltonian.terms)
        if abs(total.imag) > IMAG_TOLERANCE:
            raise ExpectationError(f"imaginary residue {total.imag:.3e} in expectation")
        values[row] = total.real
    return float(values[0]) if isinstance(state, StateVector) else values


def dense_apply_ansatz(state, ansatz, theta):
    """U(theta)|psi> for an AnsatzSpec, run as the Givens sets of the full
    basis of 2^n determinants: a StateVector with a theta vector (returns a
    StateVector), or an (R, 2^n) or (R, n, 2^n) block with an (R, P) theta
    block, as apply_ansatz takes them."""
    kernel = GivensAnsatz.on_basis(ansatz, np.arange(2**ansatz.n_qubits))
    if not isinstance(state, StateVector):
        return apply_ansatz(state, kernel, theta)
    out = apply_ansatz(state.amplitudes[None], kernel, np.asarray(theta, dtype=float)[None])
    return StateVector(state.n_qubits, out[0])


def number_operator(n_qubits: int) -> QubitHamiltonian:
    """Total particle number sum_j (I - Z_j)/2 as a Pauli sum."""
    terms = [PauliTerm("I" * n_qubits, 0.5 * n_qubits)]
    for j in range(n_qubits):
        string = "".join("Z" if k == j else "I" for k in range(n_qubits))
        terms.append(PauliTerm(string, -0.5))
    return QubitHamiltonian(n_qubits=n_qubits, terms=sorted(terms, key=lambda t: t.string))


def scatter(sector, block: np.ndarray) -> tuple:
    """The rows of an (R, S) block on a Sector's basis as 2^n StateVectors."""
    return _scatter(sector.lists.n_orb, sector.basis, block)
