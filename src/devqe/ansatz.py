"""Excitation generators and the parameterized trial-state circuit.

An Excitation is its anti-Hermitian generator G = sum_b (tau_b -
tau_b^dagger), given by the ladder strings tau_b of its branches.  On a
determinant basis each branch pairs determinants one to one with +-1 signs,
so exp(theta G) is a set of real Givens rotations per branch (GivensAnsatz).
That is the one ansatz kernel: the SA-VQE objective runs it on its sector,
and apply_ansatz on an AnsatzSpec builds it on the full basis of 2^n
determinants.  The Pauli form of G and its chain of Pauli rotations
(jw.generator_words, statevector.apply_excitation) are the test reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .statevector import ShapeError, StateVector, ladder_on_basis


@dataclass(frozen=True)
class Excitation:
    ladder_specs: tuple  # one ((mode, dagger), ...) per branch tau_b, leftmost first


def single_excitation(occ_mode: int, virt_mode: int) -> Excitation:
    """Spin-orbital single: tau = c+_virt c_occ."""
    if occ_mode == virt_mode:
        raise ValueError("occupied and virtual modes must differ")
    if (occ_mode ^ virt_mode) & 1:
        raise ValueError("single excitation must conserve S_z (same spin)")
    return Excitation((((virt_mode, True), (occ_mode, False)),))


def double_excitation(occ_modes, virt_modes) -> Excitation:
    """Spin-orbital double: tau = c+_r c+_s c_q c_p for (p, q) -> (r, s)."""
    p, q = occ_modes
    r, s = virt_modes
    if len({p, q}) < 2 or len({r, s}) < 2:
        raise ValueError("double excitation needs distinct mode pairs")
    spins = lambda pair: sorted(m & 1 for m in pair)
    if spins((p, q)) != spins((r, s)):
        raise ValueError("double excitation must conserve S_z")
    return Excitation((((r, True), (s, True), (q, False), (p, False)),))


def paired_single(occ_orb: int, virt_orb: int) -> Excitation:
    """Singlet-adapted single: both spin branches share one parameter, so the
    circuit conserves total spin as well as S_z and particle number."""
    return Excitation((
        ((2 * virt_orb, True), (2 * occ_orb, False)),
        ((2 * virt_orb + 1, True), (2 * occ_orb + 1, False)),
    ))


def paired_double(occ_orb: int, virt_orb: int) -> Excitation:
    """Pair move of an up/down electron pair from one spatial orbital to another."""
    return Excitation((
        ((2 * virt_orb, True), (2 * virt_orb + 1, True), (2 * occ_orb + 1, False),
         (2 * occ_orb, False)),
    ))


@dataclass
class AnsatzSpec:
    n_qubits: int
    excitations: list = field(default_factory=list)

    @property
    def parameter_count(self) -> int:
        return len(self.excitations)


def default_ansatz(n_orb: int, n_elec: int) -> AnsatzSpec:
    """All spin-adapted singles plus paired doubles over (occupied, virtual)
    spatial pairs, in lexicographic order; one parameter per generator."""
    if n_elec % 2:
        raise ValueError("default ansatz assumes a closed-shell reference")
    n_occ = n_elec // 2
    excitations = []
    for occ in range(n_occ):
        for virt in range(n_occ, n_orb):
            excitations.append(paired_single(occ, virt))
    for occ in range(n_occ):
        for virt in range(n_occ, n_orb):
            excitations.append(paired_double(occ, virt))
    return AnsatzSpec(n_qubits=2 * n_orb, excitations=excitations)


@dataclass(frozen=True)
class GivensAnsatz:
    """An ansatz on a determinant basis as real Givens rotations.

    A branch tau - tau^dagger pairs each determinant j with k, where
    tau|j> = s|k> and s = +-1, so exp(theta (tau - tau^dagger)) rotates every
    pair: psi'[j] = cos(theta) psi[j] - s sin(theta) psi[k] and
    psi'[k] = cos(theta) psi[k] + s sin(theta) psi[j].  One set per branch,
    in circuit order; the branches of one generator commute.  A set holds
    the rows of both ends of its pairs, each row's partner and the signed
    coefficient of the partner (-s on j, +s on k).
    """

    width: int  # basis size S
    parameter_count: int
    params: np.ndarray  # (K,) parameter index of each set
    sets: tuple  # ((rows, partners, (2m, 1) coeffs), ...)

    @classmethod
    def on_basis(cls, ansatz, basis: np.ndarray) -> "GivensAnsatz":
        """The Givens sets of an AnsatzSpec on a sorted basis that every
        generator maps into itself."""
        params, sets = [], []
        for k, excitation in enumerate(ansatz.excitations):
            for specs in excitation.ladder_specs:
                src, dst, sign = ladder_on_basis(specs, basis)
                if np.array_equal(src, dst):  # tau = 0, or diagonal: tau - tau^dagger = 0
                    continue
                # src and dst are disjoint: tau flips a mode it needs set or
                # unset, so it annihilates every determinant it produces
                params.append(k)
                coeffs = np.concatenate([-sign, sign])[:, None]
                sets.append((np.concatenate([src, dst]), np.concatenate([dst, src]), coeffs))
        return cls(basis.size, ansatz.parameter_count, np.array(params, dtype=np.intp),
                   tuple(sets))

    def apply(self, amplitudes: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """U(thetas[r]) applied to every state of group r of an (R, n, S)
        block, for every group; a (1, n, S) block is one group of n states
        that every theta row evolves.  Returns the (R, n, S) block.

        cos and sin come from math.cos and math.sin, once per group and
        parameter, and every operation is elementwise within a state, so a
        state comes out bitwise the same in any block and any group.
        """
        n_groups, n_states = len(thetas), amplitudes.shape[1]
        angles = thetas.T.ravel().tolist()
        # each (point, parameter) angle's cos and sin, repeated over the
        # point's n states: a set then multiplies (S, R * n) rows by
        # contiguous operands, which is faster than broadcasting over n
        shape = (self.parameter_count, 1, n_groups * n_states)
        cos = np.array(list(map(math.cos, angles))).repeat(n_states).reshape(shape)
        sin = np.array(list(map(math.sin, angles))).repeat(n_states).reshape(shape)
        # (S, R, n): a set gathers whole basis rows
        out = np.empty((self.width, n_groups, n_states), dtype=amplitudes.dtype)
        out[...] = amplitudes.transpose(2, 0, 1)
        work = out.reshape(self.width, n_groups * n_states)  # a view of out
        for k, (rows, partners, coeffs) in zip(self.params, self.sets):
            mixed = work.take(partners, axis=0)
            mixed *= coeffs
            mixed *= sin[k]
            kept = work.take(rows, axis=0)
            kept *= cos[k]
            kept += mixed
            work[rows] = kept
        return out.transpose(1, 2, 0).copy()


def apply_ansatz(state, ansatz, theta):
    """U(theta)|psi> for an AnsatzSpec or a GivensAnsatz.

    `state` is one of
    - a StateVector, with a theta vector (returns a StateVector);
    - an (R, S) amplitude block with an (R, P) theta block, one state and one
      theta per row (returns the evolved (R, S) block);
    - an (R, n, S) block of R groups of n states with an (R, P) theta block,
      one theta per group, or a (1, n, S) block of n states that every theta
      row evolves (returns the evolved (R, n, S) block).
    A block is on a GivensAnsatz's basis, of size S; an AnsatzSpec runs as
    the Givens sets of the full basis of 2^n determinants, so S = 2^n.
    """
    if isinstance(ansatz, GivensAnsatz):
        kernel = ansatz
    else:
        kernel = GivensAnsatz.on_basis(ansatz, np.arange(2**ansatz.n_qubits))
    single = isinstance(state, StateVector)
    grouped = not single and np.ndim(state) == 3
    amplitudes = state.amplitudes[None] if single else state
    thetas = np.asarray(theta, dtype=float)
    thetas = thetas[None] if single else thetas
    if thetas.ndim != 2 or thetas.shape[1] != kernel.parameter_count:
        raise ValueError("theta length must equal the ansatz parameter count")
    if amplitudes.shape[-1] != kernel.width:
        raise ShapeError("ansatz and state widths differ")
    if grouped and len(amplitudes) not in (1, len(thetas)):
        raise ShapeError("a grouped block needs one theta row per group, or one group")
    if not grouped and len(thetas) != len(amplitudes):
        raise ShapeError("a block needs one theta row per state")
    out = kernel.apply(amplitudes if grouped else amplitudes[:, None], thetas)
    if grouped:
        return out
    return StateVector(state.n_qubits, out[0, 0]) if single else out[:, 0]
