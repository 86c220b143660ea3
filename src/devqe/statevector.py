"""Dense statevector simulator for up to ~12 qubits.

Basis-state index bit j is the occupation of mode/qubit j (bit 0 least
significant).  All operations return new StateVector instances; amplitudes
are never mutated in place.

Operators are compiled once and evaluated many times: CompiledHamiltonian
and CompiledAnsatz hold gather-index and coefficient arrays built from the
(x, z) masks of the letter strings, and expectation / apply_ansatz accept
either form.  Both also take an (R, 2^n) amplitude block, one state per row,
and every row comes out bitwise equal to evaluating it alone.  The SA-VQE
objective works on a determinant basis instead: SectorHamiltonian is the
real (S, S) block of a CompiledHamiltonian on that basis, and expectation
takes it with an (R, S) block.  apply_pauli and apply_excitation walk the
letter strings and stay as the reference the compiled kernels are tested
against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .pauli import QubitHamiltonian, string_to_masks

IMAG_TOLERANCE = 1e-10


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


def _word_gather(n_qubits: int, x_mask: int, z_mask: int):
    """(gather, factor) with (P psi)[j] = factor[j] * psi[gather[j]] for the
    letter word P(x, z): the gather form of apply_pauli's scatter."""
    idx = _index_array(n_qubits)
    phase = (1j) ** ((x_mask & z_mask).bit_count() % 4)
    signs = 1.0 - 2.0 * _parity(idx & np.uint64(z_mask))
    gather = (idx ^ np.uint64(x_mask)).astype(np.intp)
    return gather, (phase * signs)[gather]


@dataclass(frozen=True)
class CompiledHamiltonian:
    """H|psi> = sum_x D_x * psi[idx ^ x], one row per distinct X-mask.

    Each D_x folds in every term with that X-mask: its coefficient, its
    i^popcount(x & z) phase and its Z-parity signs.
    """

    n_qubits: int
    gather: np.ndarray  # (G, 2^n) indices idx ^ x
    diagonals: np.ndarray  # (G, 2^n) complex D_x

    @classmethod
    def from_hamiltonian(cls, hamiltonian: QubitHamiltonian) -> "CompiledHamiltonian":
        groups: dict = {}
        for term in hamiltonian.terms:
            x_mask, z_mask = string_to_masks(term.string)
            gather, factor = _word_gather(hamiltonian.n_qubits, x_mask, z_mask)
            if x_mask in groups:
                groups[x_mask][1] += term.coefficient * factor
            else:
                groups[x_mask] = [gather, term.coefficient * factor]
        size = 2**hamiltonian.n_qubits
        rows = [groups[x] for x in sorted(groups)]
        gather = np.array([g for g, _ in rows], dtype=np.intp).reshape(-1, size)
        diagonals = np.array([d for _, d in rows], dtype=complex).reshape(-1, size)
        return cls(hamiltonian.n_qubits, gather, diagonals)

    def columns(self, bits: np.ndarray):
        """(rows, entries) with H[rows[g, i], bits[i]] = entries[g, i]: the
        entries of the columns `bits`, one row per X-mask."""
        rows = self.gather[:, bits]
        return rows, np.take_along_axis(self.diagonals, rows, axis=1)


@dataclass(frozen=True)
class SectorHamiltonian:
    """A Hamiltonian on a determinant basis: the real part of its Hermitian
    (S, S) block.  On real states the imaginary part, which is
    antisymmetric, adds nothing to an expectation value."""

    matrix: np.ndarray  # (S, S) real

    @classmethod
    def from_compiled(cls, compiled: CompiledHamiltonian, basis: np.ndarray):
        """The block of `compiled` on a sorted basis; ExpectationError when
        the block is not Hermitian within IMAG_TOLERANCE."""
        rows, entries = compiled.columns(basis)
        position = np.full(2**compiled.n_qubits, -1, dtype=np.intp)
        position[basis] = np.arange(basis.size)
        rows = position[rows]
        inside = rows >= 0
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
    values = np.empty(len(block))
    for row, psi in enumerate(block):
        h_psi = (compiled.diagonals * psi[compiled.gather]).sum(axis=0)
        total = complex(np.vdot(psi, h_psi))
        if abs(total.imag) > IMAG_TOLERANCE:
            raise ExpectationError(f"imaginary residue {total.imag:.3e} in expectation")
        values[row] = total.real
    return float(values[0]) if isinstance(state, StateVector) else values


@dataclass(frozen=True)
class CompiledAnsatz:
    """An ansatz as gather kernels, one per generator word in circuit order:
    the word's parameter index and coefficient, its gather and phase * sign."""

    n_qubits: int
    parameter_count: int
    params: np.ndarray  # (W,) parameter index of each word
    coeffs: np.ndarray  # (W,) coefficient of each word
    words: tuple  # ((gather, factor), ...)
    excitations: tuple  # the spec's Excitations, for GivensAnsatz.on_basis

    @property
    def width(self) -> int:
        return 2**self.n_qubits

    @classmethod
    def from_spec(cls, ansatz) -> "CompiledAnsatz":
        params, coeffs, words = [], [], []
        gathers: dict = {}  # words with one X-mask share one gather array
        for k, excitation in enumerate(ansatz.excitations):
            for string, coeff in excitation.pauli_decomposition:
                if len(string) != ansatz.n_qubits:
                    raise ShapeError("excitation decomposition does not match the ansatz")
                x_mask, z_mask = string_to_masks(string)
                gather, factor = _word_gather(ansatz.n_qubits, x_mask, z_mask)
                params.append(k)
                coeffs.append(coeff)
                words.append((gathers.setdefault(x_mask, gather), factor))
        return cls(
            ansatz.n_qubits,
            ansatz.parameter_count,
            np.array(params, dtype=np.intp),
            np.array(coeffs, dtype=float),
            tuple(words),
            tuple(ansatz.excitations),
        )

    def apply(self, amplitudes: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """U(thetas[r]) applied to row r of an (R, 2^n) block, for every row.

        Each row gets apply_excitation's arithmetic: its cos/sin come from
        math.cos/math.sin on the same angle expression, and enter as complex
        columns, as a Python float would.
        """
        # generator contributes i*coeff*P, so exp(theta*i*coeff*P) = R_P(-2 theta coeff)
        half = (-2.0 * thetas[:, self.params] * self.coeffs / 2.0).T.ravel().tolist()
        shape = (len(self.words), len(amplitudes), 1)
        cos = np.array(list(map(math.cos, half)), dtype=complex).reshape(shape)
        i_sin = (1j * np.array(list(map(math.sin, half)))).reshape(shape)
        out = amplitudes
        for (gather, factor), c, s in zip(self.words, cos, i_sin):
            # cos * out - (1j * sin) * (factor * out[gather]), each product
            # with its operands in that order, computed in place
            rotated = out.take(gather, axis=1)
            np.multiply(factor, rotated, out=rotated)
            np.multiply(s, rotated, out=rotated)
            out = c * out
            out -= rotated
        return out


def compile_ansatz(ansatz) -> CompiledAnsatz:
    """The compiled form of an AnsatzSpec; compiled input passes."""
    if isinstance(ansatz, CompiledAnsatz):
        return ansatz
    return CompiledAnsatz.from_spec(ansatz)


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
