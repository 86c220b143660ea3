"""State-averaged VQE: one shared parameterized unitary applied to a pair of
orthogonal reference states, with the weighted ensemble energy minimized by a
pluggable classical optimizer (DE, gradient descent, or BFGS).

The molecular integrals are the stage's only Hamiltonian input, and no part
of the stage touches the 2^n statevector.  The references, the Hamiltonian,
the generators and the RDMs meet on the closed-shell (N, S_z = 0) sector,
where every amplitude stays real: a Sector holds that basis with the
replacement lists of E_pr, the Hamiltonian's real block contracted from them
and the integrals, the references read off them, and the ansatz's ladder
strings as Givens rotations.  Only the block depends on the integrals:
Sector.with_integrals re-contracts it and keeps the rest.  The final states
stay sector rows; their RDMs come from the same lists.

A stage is self-contained: run_sa_vqe runs on a built Sector and returns its
trace in its own coordinates (evaluations counted from its first one, macro
index 0), and a caller that runs several stages composes their traces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import de as de_mod
from . import local as local_mod
from .ansatz import GivensAnsatz, apply_ansatz
from .integrals import MolecularIntegrals
from .statevector import ReplacementLists, SectorHamiltonian, ShapeError, StateVector, expectation
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
    final_rows: np.ndarray  # (n_states, S): the final states on `basis`
    basis: np.ndarray
    rdms: tuple
    trace: OptimizationTrace
    evaluations: int
    stop_reason: str


def closed_shell_problem(n_orb: int, n_elec: int, ms2: int = 0) -> str | None:
    """Why the closed-shell (N, S_z = 0) sector and its two references cannot
    hold n_elec electrons in n_orb orbitals at S_z = ms2 / 2; None when they
    can."""
    if n_elec % 2:
        return f"NELEC = {n_elec} is odd; only closed-shell references are supported"
    if ms2:
        return f"MS2 = {ms2}; the closed-shell sector has S_z = 0"
    if not 0 < n_elec // 2 < n_orb:
        return (f"NELEC = {n_elec} in NORB = {n_orb} orbitals; the excited reference "
                "needs an occupied and a virtual orbital")
    return None


def _closed_shell_sector(n_orb: int, n_elec: int):
    """The replacement lists of the closed-shell (N, S_z = 0) sector and the
    two references on it as (2, S) rows: the Hartree-Fock determinant and
    the normalized singlet HOMO->LUMO single E_(LUMO,HOMO)|HF>/sqrt(2)."""
    problem = closed_shell_problem(n_orb, n_elec)
    if problem is not None:
        raise ValueError(problem)
    # n_elec/2 electrons in the even (spin-up) modes, and as many in the odd ones
    up = np.array([sum(1 << 2 * orb for orb in occ)
                   for occ in itertools.combinations(range(n_orb), n_elec // 2)], dtype=np.intp)
    lists = ReplacementLists.on_basis(n_orb, np.sort(np.add.outer(up, up << 1), axis=None))
    hf = np.searchsorted(lists.basis, (1 << n_elec) - 1)
    homo, lumo = n_elec // 2 - 1, n_elec // 2
    single = lists.ops[hf] == lumo * n_orb + homo  # the HF row's entries of E_(LUMO,HOMO)
    references = np.zeros((2, lists.basis.size))
    references[0, hf] = 1.0
    references[1, lists.dst[hf, single]] = lists.sign[hf, single] / math.sqrt(2.0)
    return lists, references


def _scatter(n_orb: int, basis: np.ndarray, block: np.ndarray) -> tuple:
    amplitudes = np.zeros((len(block), 4**n_orb), dtype=complex)
    amplitudes[:, basis] = block
    return tuple(StateVector(2 * n_orb, row) for row in amplitudes)


def build_initial_states(n_orb: int, n_elec: int):
    """The two references of Sector.build (Hartree-Fock determinant plus the
    normalized singlet HOMO->LUMO single) as 2^n StateVectors.  No run
    calls it; the benchmark's set-up probe (perfbench/probe.py) and the
    tests do."""
    lists, references = _closed_shell_sector(n_orb, n_elec)
    return _scatter(n_orb, lists.basis, references)


@dataclass(frozen=True)
class Sector:
    """An SA-VQE problem on the closed-shell (N, S_z = 0) sector, in real
    arithmetic: the replacement lists of E_pr, the Hamiltonian's block built
    from them, the ansatz as Givens rotations and the real references, all
    on one sorted basis of determinants (bit j of a basis entry is the
    occupation of mode j, as in a statevector index)."""

    lists: ReplacementLists
    hamiltonian: SectorHamiltonian
    ansatz: GivensAnsatz
    references: np.ndarray  # (n_states, S) real

    @property
    def basis(self) -> np.ndarray:
        return self.lists.basis

    @classmethod
    def build(cls, integrals: MolecularIntegrals, ansatz) -> "Sector":
        """The sector of a molecule's integrals and an AnsatzSpec, with the
        references of build_initial_states(n_orb, n_elec).  Raises ShapeError
        when the ansatz does not act on 2 * n_orb modes, and ValueError when
        a generator leads out of the basis (N or S_z is not conserved)."""
        if ansatz.n_qubits != 2 * integrals.n_orb:
            raise ShapeError("ansatz and integrals qubit counts differ")
        lists, references = _closed_shell_sector(integrals.n_orb, integrals.n_elec)
        return cls(
            lists,
            SectorHamiltonian.from_integrals(integrals, lists),
            GivensAnsatz.on_basis(ansatz, lists.basis),
            references,
        )

    def with_integrals(self, integrals: MolecularIntegrals) -> "Sector":
        """This sector with the block of other integrals on the same orbitals
        and electrons (in SA-OO-VQE, the rotated integrals of a macro
        iteration); the lists, Givens sets and references are shared.
        ShapeError when n_orb or n_elec differ."""
        n_elec = int(self.basis[0]).bit_count()  # every determinant holds them all
        if (integrals.n_orb, integrals.n_elec) != (self.lists.n_orb, n_elec):
            raise ShapeError("integrals of another orbital or electron count")
        return replace(self, hamiltonian=SectorHamiltonian.from_integrals(integrals, self.lists))


def sa_energy(theta, sector: Sector, weights):
    """Apply the shared unitary to every reference of a built Sector and
    average the energies with `weights`.

    `theta` is one point (D,) or a block of points (R, D).  One point returns
    (e_sa, energies, rows): a float, a tuple of per-state floats and the
    evolved (n_states, S) sector rows.  A block returns (e_sa, energies,
    None) with an (R,) and an (R, n_states) array; every row is bitwise what
    one point gives.  Each point counts as one objective evaluation.
    """
    thetas = np.asarray(theta, dtype=float)
    single = thetas.ndim == 1
    thetas = np.atleast_2d(thetas)
    # group i holds the references under point i
    block = apply_ansatz(sector.references[None], sector.ansatz, thetas)
    n_points, n_states, width = block.shape
    energies = expectation(block.reshape(-1, width), sector.hamiltonian).reshape(n_points, n_states)
    e_sa = sum(w * e for w, e in zip(weights, energies.T))
    if not single:
        return e_sa, energies, None
    return float(e_sa[0]), tuple(energies[0].tolist()), block[0]


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


class _PopulationEnergies:
    """The DE stage's objective: sa_energy on blocks of points, counted one
    evaluation per row, that holds the components of the population.

    `e_sa` (np,) and `energies` (np, n_states) line up with the members.
    `components(pop)` takes into them every member that is bitwise (as 64-bit
    words, so -0.0 is not 0.0) the row at its index of the points evaluated
    since the last call: all of them after the initial population, the kept
    trials after a generation.  Any other member is the point its row held
    before, with the components held for it."""

    def __init__(self, sector, weights):
        self.sector = sector
        self.weights = weights
        self.calls = 0
        self.e_sa = self.energies = None
        self._blocks = []  # (points, e_sa, energies) of each call since the last components

    def __call__(self, theta):
        return float(self.batch(np.asarray(theta, dtype=float)[None])[0])

    def batch(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        self.calls += len(thetas)
        e_sa, energies, _ = sa_energy(thetas, self.sector, self.weights)
        self._blocks.append((thetas, e_sa, energies))
        return e_sa

    def components(self, pop):
        """(e_sa, energies) of the best member of `pop`, the population made
        from the points evaluated since the last call."""
        blocks, self._blocks = self._blocks, []
        if len(blocks) > 1:  # the rows came one call at a time
            blocks = [tuple(np.concatenate(parts) for parts in zip(*blocks))]
        thetas, e_sa, energies = blocks[0]
        if self.e_sa is None:
            self.e_sa, self.energies = np.empty_like(e_sa), np.empty_like(energies)
        same = (pop.members.view(np.uint64) == thetas.view(np.uint64)).all(axis=1)
        np.copyto(self.e_sa, e_sa, where=same)
        np.copyto(self.energies, energies, where=same[:, None])
        best = pop.best_index()
        return float(self.e_sa[best]), tuple(self.energies[best].tolist())


def run_sa_vqe(
    sector: Sector,
    weights=(0.5, 0.5),
    optimizer: OptimizerChoice | None = None,
    *,
    incumbent: np.ndarray | None = None,
) -> SAVQEResult:
    """Minimize the ensemble energy of a built Sector over the circuit
    parameters, from its references.

    The returned trace holds one optimizer_step event for the starting point
    and one after every internal optimizer step (for DE: every generation),
    each at the exact count of evaluations since the run's first, with
    macro_index 0.  The run keeps no reference to the sector once it returns.
    `incumbent` is a point from an earlier stage (in SA-OO-VQE, the previous
    macro iteration's optimum): it is evaluated once after the search, and
    the run returns it instead of the search's optimum when its ensemble
    energy is lower.
    """
    optimizer = optimizer or OptimizerChoice("bfgs")
    ensemble = EnsembleSpec(weights)
    weights = ensemble.weights
    if ensemble.n_states != len(sector.references):
        raise ValueError(
            f"{ensemble.n_states} weights given for {len(sector.references)} states"
        )
    trace = OptimizationTrace()

    dim = sector.ansatz.parameter_count
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
        objective = _PopulationEnergies(sector, weights)  # components by population

        def on_generation(pop, _cum_evals):
            record(pop)  # _PopulationEnergies.components reads the best member

        result = de_mod.de_minimize(
            objective, bounds, optimizer.de_config, callback=on_generation
        )
        theta_star = result.best_vector
        stop_reason = result.stop_reason
    else:
        def callback(x, _fx, _evals, *_extra):
            record(x)
            objective.retain()  # the next step records a freshly evaluated point

        runner = (
            local_mod.gradient_descent if optimizer.kind == "gd" else local_mod.bfgs_minimize
        )
        result = runner(objective, theta0, optimizer.local_config, callback=callback)
        theta_star = result.x
        stop_reason = result.stop_reason

    # final state reconstruction is one more genuine sa_energy invocation,
    # and so is the incumbent's
    objective.calls += 1
    e_sa, energies, rows = sa_energy(theta_star, sector, weights)
    if incumbent is not None:
        objective.calls += 1
        e_inc, energies_inc, rows_inc = sa_energy(incumbent, sector, weights)
        if e_inc < e_sa:
            theta_star, e_sa, energies, rows = incumbent, e_inc, energies_inc, rows_inc
    rdms = tuple(sector.lists.rdms(row) for row in rows)
    return SAVQEResult(
        theta=np.asarray(theta_star, dtype=float),
        e_sa=e_sa,
        state_energies=energies,
        final_rows=rows,
        basis=sector.basis,
        rdms=rdms,
        trace=trace,
        evaluations=objective.calls,
        stop_reason=stop_reason,
    )
