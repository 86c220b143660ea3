"""Determinant-basis kernels of the SA-VQE stage, and the dense statevector
simulator (up to ~12 qubits) they are tested against.

Basis-state index bit j is the occupation of mode/qubit j (bit 0 least
significant).  All operations return new StateVector instances; amplitudes
are never mutated in place.

The SA-VQE stage works on a sorted basis of determinants: ladder_on_basis
applies a ladder string to it as one-to-one replacement lists, and the
ReplacementLists of the spin-free excitation operators E_pr are the stage's
one kernel.  SectorHamiltonian.from_integrals contracts them with the
integrals into the real (S, S) block that expectation takes with an (R, S)
block, and ReplacementLists.rdms gives a real state's 1- and 2-RDMs.  The
dense side is the reference they are tested against: the expectation of a
letter-form QubitHamiltonian on a StateVector or an (R, 2^n) block,
apply_excitation and measure_rdms.  The ansatz kernel is in ansatz.py.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .jw import generator_words
from .pauli import string_to_masks

IMAG_TOLERANCE = 1e-10


@functools.lru_cache(maxsize=8)
def _index_array(n_qubits: int) -> np.ndarray:
    idx = np.arange(2**n_qubits, dtype=np.uint64)
    idx.setflags(write=False)
    return idx


class ShapeError(ValueError):
    """Qubit counts or vector lengths disagree."""


class ExpectationError(ValueError):
    """Expectation value kept an imaginary residue above tolerance."""


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
    words (jw.generator_words) mutually commute: one rotation per word."""
    if any(mode >= state.n_qubits for specs in excitation.ladder_specs for mode, _ in specs):
        raise ShapeError("excitation acts on a mode outside the state")
    out = state
    for string, coeff in generator_words(excitation, state.n_qubits):
        # generator contributes i*coeff*P, so exp(theta*i*coeff*P) = R_P(-2 theta coeff)
        out = apply_pauli_rotation(out, string, -2.0 * theta * coeff)
    return out


def ladder_on_basis(specs, basis: np.ndarray):
    """(src, dst, sign) of a ladder string tau, ((mode, dagger), ...)
    leftmost first, on a sorted basis of determinants: tau|basis[src]> =
    sign |basis[dst]>, src ascending, for every determinant tau does not
    annihilate.  ValueError when tau leads out of the basis.

    tau|b> is nonzero exactly when b & mask == value, and is then
    (-1)^(parity + popcount(b & lower)) |b ^ flip>: the sign rule of
    fock._apply_ops, where an operator on mode m contributes (-1)^(occupied
    modes below m) counted on b with the flips to its right applied, and
    parities of ANDs with b add up as one AND with the XOR of their masks.
    """
    mask = value = flip = lower = parity = 0
    for mode, dagger in reversed(specs):
        bit = 1 << mode
        if not mask & bit:  # first operator on this mode: b must allow it
            mask |= bit
            value |= 0 if dagger else bit
        if bool((value ^ flip) & bit) == dagger:  # tau = 0
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty, np.zeros(0)
        lower ^= bit - 1
        parity ^= (flip & (bit - 1)).bit_count() & 1
        flip ^= bit
    src = np.flatnonzero((basis & mask) == value)
    out = basis[src] ^ flip
    dst = np.searchsorted(basis, out)
    if np.any(dst == basis.size) or np.any(basis[dst] != out):
        raise ValueError(f"basis is not closed under the ladder string {tuple(specs)}")
    sign = 1.0 - 2.0 * ((np.bitwise_count(basis[src] & lower) + parity) & 1)
    return src, dst, sign


@dataclass(frozen=True)
class ReplacementLists:
    """The replacement lists of the spin-free excitation operators
    E_pr = sum_sigma a+_(p sigma) a_(r sigma) on a sorted basis that is a
    union of (N, S_z) sectors, one row per source determinant: entry a of
    row m says that E_pr, pr = ops[m, a] = p * n_orb + r, takes |basis[m]>
    to sign[m, a] |basis[dst[m, a]]>.  Rows are padded with zero signs to
    the longest one (in one (N, S_z) sector all rows are as long).  E_pr
    conserves N and S_z, so it never leads out of the basis."""

    n_orb: int
    basis: np.ndarray  # (S,) sorted determinant indices
    ops: np.ndarray  # (S, L)
    dst: np.ndarray  # (S, L)
    sign: np.ndarray  # (S, L)

    @classmethod
    def on_basis(cls, n_orb: int, basis: np.ndarray) -> "ReplacementLists":
        lists = []
        for p, r, spin in itertools.product(range(n_orb), range(n_orb), (0, 1)):
            src, dst, sign = ladder_on_basis(((2 * p + spin, True), (2 * r + spin, False)), basis)
            lists.append((np.full(src.size, p * n_orb + r), src, dst, sign))
        ops, src, dst, sign = map(np.concatenate, zip(*lists))
        order = np.argsort(src, kind="stable")
        counts = np.bincount(src, minlength=basis.size)
        at = (src[order], np.arange(src.size) - np.repeat(np.cumsum(counts) - counts, counts))

        def by_source(values):
            out = np.zeros((basis.size, counts.max(initial=0)), dtype=values.dtype)
            out[at] = values[order]
            return out

        return cls(n_orb, basis, by_source(ops), by_source(dst), by_source(sign))

    def rdms(self, psi: np.ndarray) -> RDMPair:
        """The spin-summed 1- and 2-RDMs of a real state on the basis, in the
        convention of measure_rdms.  With A[m, pr] = <psi|E_pr|m>, D = psi A,
        and since <psi|E_pr E_qs|psi> = sum_m A[m, pr] A[m, sq] while
        E_pr E_qs = sum a+_p a+_q a_s a_r + delta_qr E_ps (spins summed),
        d[p,q,r,s] = (A^T A)[pr, sq] - delta_qr D[p, s]."""
        n, size = self.n_orb, self.basis.size
        index = (np.arange(size)[:, None] * n**2 + self.ops).ravel()
        a = np.bincount(index, (self.sign * psi[self.dst]).ravel(),
                        minlength=size * n**2).reshape(size, n**2)
        one = (psi @ a).reshape(n, n)
        gram = (a.T @ a).reshape((n,) * 4)  # [p, r, s, q] = (A^T A)[pr, sq]
        two = gram.transpose(0, 3, 1, 2) - np.einsum("qr,ps->pqrs", np.eye(n), one)
        return RDMPair(one_rdm=one, two_rdm=two)


@dataclass(frozen=True)
class SectorHamiltonian:
    """The electronic Hamiltonian's real (S, S) block on a determinant basis."""

    matrix: np.ndarray

    @classmethod
    def from_integrals(cls, integrals, lists: ReplacementLists) -> "SectorHamiltonian":
        """The block on the basis of the replacement lists, from the
        spin-free form (Helgaker, Jorgensen and Olsen, ch. 2)

            H = core + sum_pr k_pr E_pr + 1/2 sum_pqrs g[p,q,r,s] E_pr E_qs,

        with k_pr = h_pr - 1/2 sum_q g[p,q,q,r] and g the physicist tensor.
        <i|E_pr E_qs|j> = sum_m <i|E_pr|m><j|E_sq|m>: every pair of entries
        in the replacement lists out of a determinant m adds one term
        (Knowles and Handy, Chem. Phys. Lett. 111, 315, 1984).
        """
        n_orb, size = integrals.n_orb, lists.basis.size
        ops, dst, sign = lists.ops, lists.dst, lists.sign
        g = integrals.g
        k = integrals.h - 0.5 * np.einsum("pqqr->pr", g)
        pair = g.transpose(0, 2, 3, 1).reshape(n_orb**2, n_orb**2)  # [pr, sq] = g[p,q,r,s]
        # entry a (E_pr) out of m adds sign_a k_pr to H[dst_a, m]; with entry
        # b (E_sq) it adds sign_a sign_b g[p,q,r,s] / 2 to H[dst_a, dst_b]
        one = sign * k.ravel()[ops]
        two = 0.5 * sign[:, :, None] * sign[:, None, :] * pair[ops[:, :, None], ops[:, None, :]]
        index = np.concatenate([(dst * size + np.arange(size)[:, None]).ravel(),
                                (dst[:, :, None] * size + dst[:, None, :]).ravel()])
        entries = np.bincount(index, np.concatenate([one.ravel(), two.ravel()]),
                              minlength=size * size).reshape(size, size)
        return cls(entries + integrals.core_energy * np.eye(size))


def expectation(state, hamiltonian):
    """<psi|H|psi> for a letter-form QubitHamiltonian or a
    SectorHamiltonian.

    With a QubitHamiltonian, `state` is a StateVector (returns a float) or an
    (R, 2^n) amplitude block (returns the R values), and the terms add up as
    sum_k c_k <psi|P_k psi>, one row at a time; ExpectationError when a value
    keeps an imaginary residue above IMAG_TOLERANCE.  With a
    SectorHamiltonian, `state` is a real (R, S) block on its basis, and each
    row is reduced with the same arithmetic as a single state.
    """
    if isinstance(hamiltonian, SectorHamiltonian):
        if np.ndim(state) != 2 or state.shape[1] != len(hamiltonian.matrix):
            raise ShapeError("Hamiltonian block and state widths differ")
        # stacked (1, S) @ (S, S) products: a 2-D block @ matrix may round a
        # row differently depending on the rows around it
        h_psi = state[:, None, :] @ hamiltonian.matrix
        return (h_psi @ state[:, :, None])[:, 0, 0]
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
