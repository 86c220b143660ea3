"""State-averaged VQE: one shared parameterized unitary applied to a pair of
orthogonal reference states, with the weighted ensemble energy minimized by a
pluggable classical optimizer (DE, gradient descent, or BFGS).

The molecular integrals are the stage's only Hamiltonian input, and the
objective never touches the 2^n statevector.  The references, the Hamiltonian
and the generators meet on the references' (N, S_z) sectors: every
determinant with the particle number and S_z of a determinant the references
occupy.  There every amplitude stays real: a Sector holds that basis with the
Hamiltonian's real block, built from the integrals, and the ansatz as Givens
rotations.  Only final states go back to 2^n, for the RDMs.

A stage is self-contained: run_sa_vqe returns its trace in its own
coordinates (evaluations counted from its first one, macro index 0), and a
caller that runs several stages composes their traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import de as de_mod
from . import local as local_mod
from .ansatz import AnsatzSpec, GivensAnsatz, apply_ansatz
from .integrals import MolecularIntegrals
from .statevector import (
    SectorHamiltonian,
    ShapeError,
    StateVector,
    apply_annihilation,
    apply_creation,
    basis_state,
    expectation,
    measure_rdms,
)
from .trace import SCOPE_STEP, OptimizationTrace, TraceEvent

WEIGHT_TOL = 1e-12
DEFAULT_THETA_BOUND = math.pi


@dataclass
class EnsembleSpec:
    weights: tuple = (0.5, 0.5)

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if not all(0.0 <= x < math.inf for x in w):
            raise ValueError("ensemble weights must be nonnegative and finite")
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


@dataclass(frozen=True)
class Sector:
    """An SA-VQE problem on its references' (N, S_z) sectors, in real
    arithmetic: the Hamiltonian's block, the ansatz as Givens rotations and
    the real references, all on one sorted basis of determinants (bit j of a
    basis entry is the occupation of mode j, as in a statevector index)."""

    n_qubits: int
    basis: np.ndarray  # (S,) sorted determinant indices
    hamiltonian: SectorHamiltonian
    ansatz: GivensAnsatz
    references: np.ndarray  # (n_states, S) real

    @classmethod
    def build(cls, integrals: MolecularIntegrals, ansatz) -> "Sector":
        """The sector of a molecule's integrals, an AnsatzSpec and the
        references build_initial_states(n_orb, n_elec).  The basis is every
        determinant whose particle number and S_z (even modes spin up) match
        those of some determinant in the references' support; the
        Hamiltonian's block is built from the integrals on that basis, and
        the ansatz becomes Givens sets on it.  Raises ShapeError when the
        ansatz does not act on 2 * n_orb modes, and ValueError when a
        generator leads out of the basis (N or S_z is not conserved)."""
        n_qubits = 2 * integrals.n_orb
        if ansatz.n_qubits != n_qubits:
            raise ShapeError("ansatz and integrals qubit counts differ")
        references = np.array([state.amplitudes.real for state in
                               build_initial_states(integrals.n_orb, integrals.n_elec)])
        up = sum(1 << mode for mode in range(0, n_qubits, 2))
        determinants = np.arange(2**n_qubits)
        # one label per (N, S_z): (spin-up count) * (n + 1) + spin-down count
        sectors = (np.bitwise_count(determinants & up).astype(np.intp) * (n_qubits + 1)
                   + np.bitwise_count(determinants & (up << 1)))
        occupied = np.any(references != 0, axis=0)
        basis = np.flatnonzero(np.isin(sectors, sectors[occupied]))
        return cls(
            n_qubits,
            basis,
            SectorHamiltonian.from_integrals(integrals, basis),
            GivensAnsatz.on_basis(ansatz, basis),
            references[:, basis],
        )

    def scatter(self, block: np.ndarray) -> tuple:
        """The rows of an (R, S) block as 2^n StateVectors."""
        states = []
        for row in block:
            amplitudes = np.zeros(2**self.n_qubits, dtype=complex)
            amplitudes[self.basis] = row
            states.append(StateVector(self.n_qubits, amplitudes))
        return tuple(states)


def sa_energy(theta, sector: Sector, weights):
    """Apply the shared unitary to every reference of a built Sector and
    average the energies with `weights`.

    `theta` is one point (D,) or a block of points (R, D).  One point returns
    (e_sa, energies, states): a float, a tuple of per-state floats and a
    tuple of 2^n StateVectors.  A block returns (e_sa, energies, None) with
    an (R,) and an (R, n_states) array; every row is bitwise what one point
    gives.  Each point counts as one objective evaluation.
    """
    thetas = np.asarray(theta, dtype=float)
    single = thetas.ndim == 1
    thetas = np.atleast_2d(thetas)
    n_states = len(sector.references)
    # row i * n_states + k is reference k under point i
    block = apply_ansatz(
        np.tile(sector.references, (len(thetas), 1)),
        sector.ansatz,
        np.repeat(thetas, n_states, axis=0),
    )
    energies = expectation(block, sector.hamiltonian).reshape(-1, n_states)
    e_sa = sum(w * e for w, e in zip(weights, energies.T))
    if not single:
        return e_sa, energies, None
    return float(e_sa[0]), tuple(energies[0].tolist()), sector.scatter(block)


class _CountedObjective:
    """sa_energy wrapper: exact call counting plus a component cache so trace
    events can carry per-state energies without extra evaluations.  The cache
    holds only the points evaluated since the last `retain`, plus the points
    that call kept.  `batch` evaluates a block of points in one sa_energy
    call and charges one evaluation per row, as calling once per row would."""

    def __init__(self, sector, weights):
        self.sector = sector
        self.weights = weights
        self.calls = 0
        self._components = {}

    def __call__(self, theta):
        return float(self.batch(np.asarray(theta, dtype=float)[None])[0])

    def batch(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        self.calls += len(thetas)
        e_sa, energies, _ = sa_energy(thetas, self.sector, self.weights)
        for theta, value, row in zip(thetas, e_sa.tolist(), energies.tolist()):
            self._components[theta.tobytes()] = (value, tuple(row))
        return e_sa

    def components(self, theta):
        """(e_sa, energies) of a point evaluated since the last `retain` or
        kept by it."""
        return self._components[np.asarray(theta, dtype=float).tobytes()]

    def retain(self, thetas=()):
        """Drop every cached point except `thetas`."""
        keep = {np.asarray(theta, dtype=float).tobytes() for theta in thetas}
        self._components = {k: v for k, v in self._components.items() if k in keep}


def run_sa_vqe(
    integrals: MolecularIntegrals,
    ansatz: AnsatzSpec,
    weights=(0.5, 0.5),
    optimizer: OptimizerChoice | None = None,
    *,
    incumbent: np.ndarray | None = None,
) -> SAVQEResult:
    """Minimize the ensemble energy of a molecule's integrals over the
    circuit parameters, from the references build_initial_states(n_orb,
    n_elec).

    The returned trace holds one optimizer_step event for the starting point
    and one after every internal optimizer step (for DE: every generation),
    each at the exact count of evaluations since the run's first, with
    macro_index 0.  The Sector is built here, once, before the first
    evaluation, and is freed when the run returns.
    `incumbent` is a point from an earlier stage (in SA-OO-VQE, the previous
    macro iteration's optimum): it is evaluated once after the search, and
    the run returns it instead of the search's optimum when its ensemble
    energy is lower.
    """
    optimizer = optimizer or OptimizerChoice("bfgs")
    ensemble = EnsembleSpec(weights)
    weights = ensemble.weights
    sector = Sector.build(integrals, ansatz)
    if ensemble.n_states != len(sector.references):
        raise ValueError(
            f"{ensemble.n_states} weights given for {len(sector.references)} states"
        )
    trace = OptimizationTrace()

    dim = ansatz.parameter_count
    theta0 = np.zeros(dim)  # gd and bfgs start from the bare references
    objective = _CountedObjective(sector, weights)

    def record(theta):
        e_sa, energies = objective.components(theta)
        trace.append(
            TraceEvent(
                cum_evals=objective.calls,
                scope=SCOPE_STEP,
                macro_index=0,
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

    # final state reconstruction is one more genuine sa_energy invocation,
    # and so is the incumbent's
    objective.calls += 1
    e_sa, energies, states = sa_energy(theta_star, sector, weights)
    if incumbent is not None:
        objective.calls += 1
        e_inc, energies_inc, states_inc = sa_energy(incumbent, sector, weights)
        if e_inc < e_sa:
            theta_star, e_sa, energies, states = incumbent, e_inc, energies_inc, states_inc
    rdms = tuple(measure_rdms(state, sector.n_qubits // 2) for state in states)
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
