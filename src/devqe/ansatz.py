"""Excitation generators and the parameterized trial-state circuit.

Each Excitation carries the Pauli decomposition of its anti-Hermitian
generator G = tau - tau^dagger as (string, c) pairs with G = sum_k i c_k P_k
and real c_k.  The words within one generator mutually commute, so
exp(theta G) is applied exactly as a product of Pauli rotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pauli import masks_to_string, multiply_sums, strings_commute
from .jw import jw_ladder
from .statevector import ShapeError, StateVector, compile_ansatz

DECOMPOSITION_CUTOFF = 1e-14
REAL_RESIDUE_TOL = 1e-12


@dataclass(frozen=True)
class Excitation:
    kind: str
    modes: tuple
    pauli_decomposition: tuple  # ((string, coeff), ...) for G = sum i*coeff*P


def _ladder_product(mode_specs) -> dict:
    """Word sum for a product of ladder operators, leftmost first."""
    out = None
    for mode, dagger in mode_specs:
        factor = jw_ladder(mode, dagger)
        out = factor if out is None else multiply_sums(out, factor)
    return out


def _anti_hermitian_terms(words: dict, n_qubits: int):
    """(string, c) pairs with G = sum i*c*P; coefficients must be imaginary."""
    terms = []
    for (x, z), coeff in words.items():
        k = (x & z).bit_count()
        letter_coeff = coeff * (-1j) ** k
        if abs(letter_coeff) < DECOMPOSITION_CUTOFF:
            continue
        if abs(letter_coeff.real) > REAL_RESIDUE_TOL:
            raise ValueError("generator decomposition is not anti-Hermitian")
        terms.append((masks_to_string(x, z, n_qubits), float(letter_coeff.imag)))
    terms.sort(key=lambda t: t[0])
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            if not strings_commute(terms[i][0], terms[j][0]):
                raise ValueError("generator words must mutually commute")
    return tuple(terms)


def _generator(kind, modes, tau_specs, n_qubits) -> Excitation:
    words: dict = {}
    for specs in tau_specs:
        tau = _ladder_product(specs)
        for key, coeff in tau.items():
            words[key] = words.get(key, 0.0) + coeff
        dagger = _ladder_product([(m, not d) for m, d in reversed(specs)])
        for key, coeff in dagger.items():
            words[key] = words.get(key, 0.0) - coeff
    return Excitation(
        kind=kind,
        modes=modes,
        pauli_decomposition=_anti_hermitian_terms(words, n_qubits),
    )


def single_excitation(occ_mode: int, virt_mode: int, n_qubits: int) -> Excitation:
    """Spin-orbital single: tau = c+_virt c_occ."""
    if occ_mode == virt_mode:
        raise ValueError("occupied and virtual modes must differ")
    if (occ_mode ^ virt_mode) & 1:
        raise ValueError("single excitation must conserve S_z (same spin)")
    specs = [[(virt_mode, True), (occ_mode, False)]]
    return _generator("single", (occ_mode, virt_mode), specs, n_qubits)


def double_excitation(occ_modes, virt_modes, n_qubits: int) -> Excitation:
    """Spin-orbital double: tau = c+_r c+_s c_q c_p for (p, q) -> (r, s)."""
    p, q = occ_modes
    r, s = virt_modes
    if len({p, q}) < 2 or len({r, s}) < 2:
        raise ValueError("double excitation needs distinct mode pairs")
    spins = lambda pair: sorted(m & 1 for m in pair)
    if spins((p, q)) != spins((r, s)):
        raise ValueError("double excitation must conserve S_z")
    specs = [[(r, True), (s, True), (q, False), (p, False)]]
    return _generator("double", (p, q, r, s), specs, n_qubits)


def paired_single(occ_orb: int, virt_orb: int, n_orb: int) -> Excitation:
    """Singlet-adapted single: both spin branches share one parameter, so the
    circuit conserves total spin as well as S_z and particle number."""
    n_qubits = 2 * n_orb
    specs = [
        [(2 * virt_orb, True), (2 * occ_orb, False)],
        [(2 * virt_orb + 1, True), (2 * occ_orb + 1, False)],
    ]
    return _generator("paired_single", (occ_orb, virt_orb), specs, n_qubits)


def paired_double(occ_orb: int, virt_orb: int, n_orb: int) -> Excitation:
    """Pair move of an up/down electron pair from one spatial orbital to another."""
    n_qubits = 2 * n_orb
    specs = [
        [
            (2 * virt_orb, True),
            (2 * virt_orb + 1, True),
            (2 * occ_orb + 1, False),
            (2 * occ_orb, False),
        ]
    ]
    return _generator("paired_double", (occ_orb, virt_orb), specs, n_qubits)


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
            excitations.append(paired_single(occ, virt, n_orb))
    for occ in range(n_occ):
        for virt in range(n_occ, n_orb):
            excitations.append(paired_double(occ, virt, n_orb))
    return AnsatzSpec(n_qubits=2 * n_orb, excitations=excitations)


def apply_ansatz(state, ansatz, theta):
    """U(theta)|psi> for an AnsatzSpec (compiled here) or a CompiledAnsatz.

    `state` is a StateVector with a theta vector (returns a StateVector), or
    an (R, 2^n) amplitude block with an (R, P) theta block, one state and one
    theta per row (returns the evolved block).
    """
    compiled = compile_ansatz(ansatz)
    single = isinstance(state, StateVector)
    amplitudes = state.amplitudes[None] if single else state
    thetas = np.asarray(theta, dtype=float)
    thetas = thetas[None] if single else thetas
    if thetas.ndim != 2 or thetas.shape[1] != compiled.parameter_count:
        raise ValueError("theta length must equal the ansatz parameter count")
    if amplitudes.shape[-1] != 2**compiled.n_qubits:
        raise ShapeError("ansatz and state qubit counts differ")
    if len(thetas) != len(amplitudes):
        raise ShapeError("a block needs one theta row per state")
    out = compiled.apply(amplitudes, thetas)
    return StateVector(state.n_qubits, out[0]) if single else out
