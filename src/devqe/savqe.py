"""State-averaged VQE: one shared parameterized unitary applied to a pair of
orthogonal reference states, with the weighted ensemble energy minimized by a
pluggable classical optimizer (DE, gradient descent, or BFGS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import de as de_mod
from . import local as local_mod
from .ansatz import AnsatzSpec, apply_ansatz
from .pauli import QubitHamiltonian
from .statevector import (
    CompiledAnsatz,
    CompiledHamiltonian,
    StateVector,
    apply_annihilation,
    apply_creation,
    basis_state,
    compile_ansatz,
    compile_hamiltonian,
    expectation,
    measure_rdms,
)
from .trace import SCOPE_STEP, OptimizationTrace, TraceEvent

WEIGHT_TOL = 1e-12
DEFAULT_THETA_BOUND = math.pi
# amplitudes evolved in one block by sa_energy: at most this many (point,
# reference) rows of 2^n amplitudes go through the ansatz together, and a
# row wider than this goes alone (sweep in tools/time_layers.py)
BLOCK_AMPLITUDES = 4096


@dataclass
class EnsembleSpec:
    weights: tuple = (0.5, 0.5)

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if any(x < 0 for x in w):
            raise ValueError("ensemble weights must be nonnegative")
        if abs(sum(w) - 1.0) > WEIGHT_TOL:
            raise ValueError("ensemble weights must sum to 1")
        self.weights = w

    @property
    def n_states(self) -> int:
        return len(self.weights)


@dataclass
class OptimizerChoice:
    """Inner minimizer selection: kind is "de", "gd" or "bfgs"."""

    kind: str
    de_config: de_mod.DEConfig | None = None
    local_config: local_mod.LocalOptConfig | None = None

    def __post_init__(self):
        if self.kind not in ("de", "gd", "bfgs"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.kind == "de" and self.de_config is None:
            self.de_config = de_mod.DEConfig()
        if self.kind in ("gd", "bfgs") and self.local_config is None:
            self.local_config = local_mod.LocalOptConfig()


@dataclass
class SAVQEResult:
    theta: np.ndarray
    e_sa: float
    state_energies: tuple  # lineage order: energy of U(theta)|Phi_k>
    final_states: tuple
    rdms: tuple
    trace: OptimizationTrace
    evaluations: int
    stop_reason: str


def build_initial_states(n_orb: int, n_elec: int):
    """Hartree-Fock determinant plus the normalized singlet HOMO->LUMO single."""
    if n_elec % 2:
        raise ValueError("only closed-shell references are supported")
    if n_orb <= n_elec // 2:
        raise ValueError("no virtual orbital available for the excited reference")
    n_qubits = 2 * n_orb
    homo = n_elec // 2 - 1
    lumo = n_elec // 2
    hf = basis_state(n_qubits, range(n_elec))

    def promote(occ_mode, virt_mode):
        return apply_creation(apply_annihilation(hf, occ_mode), virt_mode)

    up = promote(2 * homo, 2 * lumo)
    down = promote(2 * homo + 1, 2 * lumo + 1)
    amps = (up.amplitudes + down.amplitudes) / math.sqrt(2.0)
    excited = StateVector(n_qubits, amps)
    return hf, excited


def sa_energy(theta, hamiltonian, ansatz, initial_states, weights):
    """Apply the shared unitary to every reference and average the energies.

    `theta` is one point (D,) or a block of points (R, D).  One point returns
    (e_sa, energies, states): a float, a tuple of per-state floats and a tuple
    of StateVectors.  A block returns (e_sa, energies, None) with an (R,)
    and an (R, n_states) array; every row is bitwise what one point gives.
    The (point, reference) rows are evolved in blocks of at most
    BLOCK_AMPLITUDES amplitudes.  `hamiltonian` and `ansatz` are letter forms
    or their compiled forms (`compile_hamiltonian`, `compile_ansatz`); the hot
    paths pass compiled ones.  Each point counts as one objective evaluation.
    """
    thetas = np.asarray(theta, dtype=float)
    single = thetas.ndim == 1
    refs = np.array([state.amplitudes for state in initial_states])
    n_states, size = refs.shape
    # row i * n_states + k is reference k under point i
    row_thetas = np.repeat(np.atleast_2d(thetas), n_states, axis=0)
    row_refs = np.arange(len(row_thetas)) % n_states
    step = max(1, BLOCK_AMPLITUDES // size)
    energies = np.empty(len(row_thetas))
    states = []
    for start in range(0, len(row_thetas), step):
        rows = slice(start, start + step)
        block = apply_ansatz(refs[row_refs[rows]], ansatz, row_thetas[rows])
        energies[rows] = expectation(block, hamiltonian)
        if single:
            states.extend(block)
    energies = energies.reshape(-1, n_states)
    e_sa = sum(w * e for w, e in zip(weights, energies.T))
    if not single:
        return e_sa, energies, None
    n_qubits = initial_states[0].n_qubits
    return (
        float(e_sa[0]),
        tuple(energies[0].tolist()),
        tuple(StateVector(n_qubits, amps) for amps in states),
    )


class _CountedObjective:
    """sa_energy wrapper: exact call counting plus a component cache so trace
    events can carry per-state energies without extra evaluations.  The cache
    holds only the points evaluated since the last `retain`, plus the points
    that call kept.  `batch` evaluates a block of points in one sa_energy
    call and charges one evaluation per row, as calling once per row would."""

    def __init__(self, hamiltonian, ansatz, initial_states, weights, offset=0):
        self.hamiltonian = hamiltonian
        self.ansatz = ansatz
        self.initial_states = initial_states
        self.weights = weights
        self.calls = 0
        self.offset = offset
        self._components = {}

    @property
    def cum_evals(self) -> int:
        return self.offset + self.calls

    def __call__(self, theta):
        return float(self.batch(np.asarray(theta, dtype=float)[None])[0])

    def batch(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        self.calls += len(thetas)
        e_sa, energies, _ = sa_energy(
            thetas, self.hamiltonian, self.ansatz, self.initial_states, self.weights
        )
        for theta, value, row in zip(thetas, e_sa.tolist(), energies.tolist()):
            self._components[theta.tobytes()] = (value, tuple(row))
        return e_sa

    def components(self, theta):
        key = np.asarray(theta, dtype=float).tobytes()
        if key in self._components:
            return self._components[key]
        # cache miss: a genuine sa_energy invocation, so it is counted
        e_sa = self(theta)
        return e_sa, self._components[key][1]

    def retain(self, thetas=()):
        """Drop every cached point except `thetas`."""
        keep = {np.asarray(theta, dtype=float).tobytes() for theta in thetas}
        self._components = {k: v for k, v in self._components.items() if k in keep}


def run_sa_vqe(
    hamiltonian: QubitHamiltonian | CompiledHamiltonian,
    ansatz: AnsatzSpec | CompiledAnsatz,
    weights=(0.5, 0.5),
    optimizer: OptimizerChoice | None = None,
    initial_states=None,
    n_orb: int | None = None,
    n_elec: int | None = None,
    trace: OptimizationTrace | None = None,
    macro_index: int = 0,
    eval_offset: int = 0,
) -> SAVQEResult:
    """Minimize the ensemble energy over the circuit parameters.

    The trace receives one optimizer_step event for the starting point and one
    after every internal optimizer step (for DE: every generation), each at
    exact cumulative-evaluation coordinates.  Letter-form operators are
    compiled once here, before the first evaluation.
    """
    hamiltonian = compile_hamiltonian(hamiltonian)
    ansatz = compile_ansatz(ansatz)
    optimizer = optimizer or OptimizerChoice("bfgs")
    ensemble = EnsembleSpec(weights)
    weights = ensemble.weights
    if initial_states is None:
        if n_orb is None or n_elec is None:
            raise ValueError("provide initial_states or (n_orb, n_elec)")
        initial_states = build_initial_states(n_orb, n_elec)
    if ensemble.n_states != len(initial_states):
        raise ValueError(
            f"{ensemble.n_states} weights given for {len(initial_states)} states"
        )
    trace = OptimizationTrace() if trace is None else trace

    dim = ansatz.parameter_count
    theta0 = np.zeros(dim)  # gd and bfgs start from the bare references
    objective = _CountedObjective(
        hamiltonian, ansatz, initial_states, weights, offset=eval_offset
    )

    def record(theta):
        e_sa, energies = objective.components(theta)
        trace.append(
            TraceEvent(
                cum_evals=objective.cum_evals,
                scope=SCOPE_STEP,
                macro_index=macro_index,
                e_sa=e_sa,
                e_states=tuple(energies),
            )
        )

    if optimizer.kind == "de":
        bounds = de_mod.Bounds.box(-DEFAULT_THETA_BOUND, DEFAULT_THETA_BOUND, dim)

        def on_generation(pop, _cum_evals):
            record(pop.members[pop.best_index()])
            objective.retain(pop.members)  # later generations read only members

        result = de_mod.de_minimize(
            objective, bounds, optimizer.de_config, callback=on_generation
        )
        theta_star = result.best_vector
        stop_reason = result.stop_reason
    elif optimizer.kind in ("gd", "bfgs"):
        def callback(x, _fx, _evals, *_extra):
            record(x)
            objective.retain()  # the next step records a freshly evaluated point

        if optimizer.kind == "gd":
            result = local_mod.gradient_descent(
                objective, theta0, optimizer.local_config, callback=callback
            )
        else:
            result = local_mod.bfgs_minimize(
                objective, theta0, optimizer.local_config, callback=callback
            )
        theta_star = result.x
        stop_reason = result.stop_reason
    else:  # pragma: no cover - guarded by OptimizerChoice
        raise ValueError(optimizer.kind)

    # final state reconstruction is one more genuine sa_energy invocation
    objective.calls += 1
    e_sa, energies, states = sa_energy(
        theta_star, hamiltonian, ansatz, initial_states, weights
    )
    n_orb_eff = hamiltonian.n_qubits // 2
    rdms = tuple(measure_rdms(state, n_orb_eff) for state in states)
    return SAVQEResult(
        theta=np.asarray(theta_star, dtype=float),
        e_sa=e_sa,
        state_energies=energies,
        final_states=states,
        rdms=rdms,
        trace=trace,
        evaluations=objective.calls,
        stop_reason=stop_reason,
    )
