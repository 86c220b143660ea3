"""Dense statevector simulator for up to ~12 qubits.

Basis-state index bit j is the occupation of mode/qubit j (bit 0 least
significant).  All operations return new StateVector instances; amplitudes
are never mutated in place.

Operators are compiled once and evaluated many times.  CompiledHamiltonian
is the table of a Hamiltonian's Pauli terms, read off the (x, z) masks of
its letter strings and grouped by X-mask; its columns() evaluates the
Hamiltonian's entries on any set of determinants.  The SA-VQE objective works
on a determinant basis: SectorHamiltonian is the real (S, S) block of a
CompiledHamiltonian on that basis, and expectation takes it with an (R, S)
block.  The dense expectation takes a StateVector or an (R, 2^n) amplitude
block, one state per row, and every row comes out bitwise equal to
evaluating it alone.  The ansatz kernel (GivensAnsatz) lives in ansatz.py.
apply_pauli and apply_excitation walk the letter strings and stay as the
reference the kernels are tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .pauli import QubitHamiltonian, string_to_masks

IMAG_TOLERANCE = 1e-10
# a Hamiltonian entry at or below this may leave a sector basis: the compiled
# X-mask rows carry round-off residues of ~1e-17 between sectors
SECTOR_CUTOFF = 1e-14
# determinants per CompiledHamiltonian.columns call of a dense expectation:
# its (terms, slice) intermediates stay at a few MB
DENSE_SLICE = 256


@functools.lru_cache(maxsize=8)
def _index_array(n_qubits: int) -> np.ndarray:
    idx = np.arange(2**n_qubits, dtype=np.uint64)
    idx.setflags(write=False)
    return idx


class ShapeError(ValueError):
    """Qubit counts or vector lengths disagree."""


class ExpectationError(ValueError):
    """Expectation value kept an imaginary residue above tolerance, or a
    Hamiltonian block is not Hermitian within it."""


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ShapeError("amplitude vector length must be 2**n_qubits")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "StateVector") -> complex:
        if other.n_qubits != self.n_qubits:
            raise ShapeError("qubit counts differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())


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


def _parity(values: np.ndarray) -> np.ndarray:
    return np.bitwise_count(values).astype(np.int64) & 1


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
    words mutually commute: one rotation per word."""
    out = state
    for string, coeff in excitation.pauli_decomposition:
        if len(string) != state.n_qubits:
            raise ShapeError("excitation decomposition does not match the state")
        # generator contributes i*coeff*P, so exp(theta*i*coeff*P) = R_P(-2 theta coeff)
        out = apply_pauli_rotation(out, string, -2.0 * theta * coeff)
    return out


@dataclass(frozen=True)
class CompiledHamiltonian:
    """H as a table of its Pauli terms, sorted stably by X-mask.

    A term c P(x, z) sends determinant b to b ^ x with the factor
    c * (i^popcount(x & z) * (-1)^popcount(b & z)), so H[b ^ x, b] sums that
    factor over the terms with X-mask x, in term order.  Nothing is stored
    per determinant: columns() evaluates the entries of the determinants it
    is given.
    """

    n_qubits: int
    x_masks: np.ndarray  # (G,) distinct X-masks, ascending
    starts: np.ndarray  # (G,) index of each X-mask's first term
    # ((groups, terms), ...): for each position p >= 1 within an X-mask's
    # terms, the X-masks with a term at p and the index of that term
    later: tuple
    z_masks: np.ndarray  # (T,) Z-mask of each term
    coefficients: np.ndarray  # (T,) complex coefficient of each term
    phases: np.ndarray  # (T,) i^popcount(x & z) of each term

    @classmethod
    def from_hamiltonian(cls, hamiltonian: QubitHamiltonian) -> "CompiledHamiltonian":
        terms = sorted(  # stable: the terms of one X-mask keep their order
            ((*string_to_masks(term.string), term.coefficient) for term in hamiltonian.terms),
            key=lambda term: term[0],
        )
        x_masks, starts, sizes = np.unique(
            np.array([x for x, _, _ in terms], dtype=np.intp),
            return_index=True,
            return_counts=True,
        )
        later = []
        for position in range(1, int(sizes.max(initial=0))):
            groups = np.flatnonzero(sizes > position)
            later.append((groups, starts[groups] + position))
        return cls(
            hamiltonian.n_qubits,
            x_masks,
            starts,
            tuple(later),
            np.array([z for _, z, _ in terms], dtype=np.intp),
            np.array([c for _, _, c in terms], dtype=complex),
            np.array([(1j) ** ((x & z).bit_count() % 4) for x, z, _ in terms], dtype=complex),
        )

    def columns(self, bits: np.ndarray):
        """(rows, entries) with H[rows[g, i], bits[i]] = entries[g, i]: the
        entries of the columns `bits`, one row per X-mask.  Each entry adds
        its terms' factors from left to right, one position at a time."""
        bits = np.asarray(bits, dtype=np.intp)
        signs = 1.0 - 2.0 * _parity(bits & self.z_masks[:, None])
        factors = self.coefficients[:, None] * (self.phases[:, None] * signs)
        entries = factors[self.starts]
        for groups, terms in self.later:
            entries[groups] += factors[terms]
        return bits ^ self.x_masks[:, None], entries


@dataclass(frozen=True)
class SectorHamiltonian:
    """A Hamiltonian on a determinant basis: the real part of its Hermitian
    (S, S) block.  On real states the imaginary part, which is
    antisymmetric, adds nothing to an expectation value."""

    matrix: np.ndarray  # (S, S) real

    @classmethod
    def from_compiled(cls, compiled: CompiledHamiltonian, basis: np.ndarray):
        """The block of `compiled` on a sorted basis, from one columns() call
        on it.  ValueError, naming the largest, when an entry above
        SECTOR_CUTOFF leads out of the basis; ExpectationError when the block
        is not Hermitian within IMAG_TOLERANCE."""
        targets, entries = compiled.columns(basis)
        position = np.full(2**compiled.n_qubits, -1, dtype=np.intp)
        position[basis] = np.arange(basis.size)
        rows = position[targets]
        inside = rows >= 0
        leaving = np.where(inside, 0.0, np.abs(entries))
        if leaving.max(initial=0.0) > SECTOR_CUTOFF:
            g, i = np.unravel_index(np.argmax(leaving), leaving.shape)
            raise ValueError(
                f"Hamiltonian entry H[{targets[g, i]}, {basis[i]}] = {entries[g, i]:.3e} "
                f"leads out of the sector basis"
            )
        cols = np.broadcast_to(np.arange(basis.size), rows.shape)
        block = np.zeros((basis.size, basis.size), dtype=complex)
        block[rows[inside], cols[inside]] = entries[inside]
        residue = float(np.max(np.abs(block - block.conj().T), initial=0.0))
        if residue > IMAG_TOLERANCE:
            raise ExpectationError(f"Hamiltonian block is not Hermitian: residue {residue:.3e}")
        return cls(block.real.copy())


def compile_hamiltonian(hamiltonian) -> CompiledHamiltonian:
    """The compiled form of a letter-form Hamiltonian; compiled input passes."""
    if isinstance(hamiltonian, CompiledHamiltonian):
        return hamiltonian
    return CompiledHamiltonian.from_hamiltonian(hamiltonian)


def expectation(state, hamiltonian):
    """<psi|H|psi> for a QubitHamiltonian (compiled here), a
    CompiledHamiltonian or a SectorHamiltonian.

    `state` is a StateVector (returns a float) or an (R, 2^n) amplitude block
    (returns the R values); with a SectorHamiltonian it is a real (R, S)
    block on its basis.  Each row is reduced on its own, with the same
    arithmetic as a single state.
    """
    if isinstance(hamiltonian, SectorHamiltonian):
        if np.ndim(state) != 2 or state.shape[1] != len(hamiltonian.matrix):
            raise ShapeError("Hamiltonian block and state widths differ")
        # stacked (1, S) @ (S, S) products: a 2-D block @ matrix may round a
        # row differently depending on the rows around it
        h_psi = state[:, None, :] @ hamiltonian.matrix
        return (h_psi @ state[:, :, None])[:, 0, 0]
    compiled = compile_hamiltonian(hamiltonian)
    block = state.amplitudes[None] if isinstance(state, StateVector) else state
    if block.shape[-1] != 2**compiled.n_qubits:
        raise ShapeError("Hamiltonian and state qubit counts differ")
    # (H psi)[j] = sum_x H[j, j ^ x] psi[j ^ x]: the columns of every
    # determinant, DENSE_SLICE at a time, gathered back onto their rows
    determinants = np.arange(2**compiled.n_qubits)
    slices = np.array_split(determinants, max(1, determinants.size // DENSE_SLICE))
    entries = np.concatenate([compiled.columns(bits)[1] for bits in slices], axis=1)
    gather = determinants ^ compiled.x_masks[:, None]
    diagonals = np.take_along_axis(entries, gather, axis=1)
    values = np.empty(len(block))
    for row, psi in enumerate(block):
        h_psi = (diagonals * psi[gather]).sum(axis=0)
        total = complex(np.vdot(psi, h_psi))
        if abs(total.imag) > IMAG_TOLERANCE:
            raise ExpectationError(f"imaginary residue {total.imag:.3e} in expectation")
        values[row] = total.real
    return float(values[0]) if isinstance(state, StateVector) else values


def _annihilate(amplitudes: np.ndarray, mode: int) -> np.ndarray:
    """c_mode applied to a vector, or to every row of a (k, 2^n) block, with
    the Jordan-Wigner sign (-1)^(occupied modes below)."""
    n_qubits = amplitudes.shape[-1].bit_length() - 1
    bit = np.uint64(1 << mode)
    lower = np.uint64((1 << mode) - 1)
    idx = _index_array(n_qubits)
    src = idx[(idx & bit) != 0]
    signs = 1.0 - 2.0 * _parity(src & lower)
    out = np.zeros_like(amplitudes)
    out[..., src ^ bit] = signs * amplitudes[..., src]
    return out


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


@dataclass
class RDMPair:
    # D[p, q] = sum_sigma <c+_{p,sigma} c_{q,sigma}>
    one_rdm: np.ndarray
    # d[p, q, r, s] = sum_{sigma,tau} <c+_{p,sigma} c+_{q,tau} c_{s,tau} c_{r,sigma}>
    two_rdm: np.ndarray


def measure_rdms(state: StateVector, n_orb: int) -> RDMPair:
    """Spin-summed 1- and 2-RDMs by exact statevector inner products.

    Every inner product comes from one Gram matrix: <c_p psi|c_q psi> for the
    1-RDM, <c_A c_B psi|c_C c_D psi> over the A < B pair kets for the 2-RDM.
    The convention is fixed so rdm_energy(integrals, rdms) reproduces
    expectation(state, jordan_wigner(integrals)) exactly.
    """
    if state.n_qubits != 2 * n_orb:
        raise ShapeError("state must carry 2 * n_orb modes")
    n_modes = 2 * n_orb

    annihilated = np.array([_annihilate(state.amplitudes, m) for m in range(n_modes)])
    rho = annihilated.conj() @ annihilated.T  # rho[p, q] = <c_p psi|c_q psi>
    one = (rho[0::2, 0::2] + rho[1::2, 1::2]).real

    # pair kets c_A c_B |psi> for A < B, one row each; c_B c_A = -c_A c_B
    pairs = np.concatenate(
        [_annihilate(annihilated[a + 1 :], a) for a in range(n_modes - 1)]
    )
    lo, hi = np.triu_indices(n_modes, k=1)  # the same (A, B) order as the rows
    slot = np.zeros((n_modes, n_modes), dtype=np.intp)
    slot[lo, hi] = slot[hi, lo] = np.arange(lo.size)
    sign = np.zeros((n_modes, n_modes))  # 0 on A == B: c_A c_A vanishes
    sign[lo, hi] = 1.0
    sign[hi, lo] = -1.0
    gram = pairs.conj() @ pairs.T

    # d[p, q, r, s] = sum_{sigma,tau} <c_{2q+tau} c_{2p+sigma} psi|c_{2s+tau} c_{2r+sigma} psi>,
    # with (sigma, tau, p, q) flattened to (4, n_orb^2) on both sides
    orb = np.arange(n_orb)
    spin = np.arange(2)
    first = 2 * orb[None, None, None, :] + spin[None, :, None, None]  # 2q + tau
    second = 2 * orb[None, None, :, None] + spin[:, None, None, None]  # 2p + sigma
    rows = slot[first, second].reshape(4, n_orb**2)
    signs = sign[first, second].reshape(4, n_orb**2)
    blocks = signs[:, :, None] * signs[:, None, :] * gram[rows[:, :, None], rows[:, None, :]]
    two = blocks.sum(axis=0).real.reshape((n_orb,) * 4)
    return RDMPair(one_rdm=one, two_rdm=two)


def rdm_energy(integrals, rdms: RDMPair) -> float:
    """Contract integrals with measured RDMs: the classical energy path."""
    if rdms.one_rdm.shape[0] != integrals.n_orb:
        raise ShapeError("RDM and integral dimensions differ")
    energy = integrals.core_energy
    energy += float(np.sum(integrals.h * rdms.one_rdm))
    energy += 0.5 * float(np.einsum("pqrs,pqrs->", integrals.g, rdms.two_rdm))
    return energy
