"""Classical state-averaged orbital optimization and the full macro-iteration.

The orbital rotation is parameterized by the independent entries of a real
antisymmetric matrix kappa; U = expm(-kappa) is orthogonal, and integrals
transform as h' = U^T h U with the matching four-index transform for g.
The ensemble energy over FIXED correlated-state RDMs is minimized over kappa
with BFGS on finite-difference gradients, then the macro loop alternates that
classical stage with a fresh SA-VQE stage until the state-averaged energy
change falls below the macro tolerance.  The sector, its references and the
circuit do not change with the orbitals: a run builds its Sector once, and
each macro iteration after the first re-contracts only its Hamiltonian block
from the rotated integrals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import local as local_mod
from .de import ObjectiveError
from .integrals import MolecularIntegrals
from .savqe import OptimizerChoice, Sector, run_sa_vqe
from .statevector import ExpectationError, rdm_energy
from .trace import SCOPE_MACRO, OptimizationTrace, TraceEvent

DEFAULT_MACRO_TOL = 1e-4
DEFAULT_MAX_MACRO_ITERS = 20
NO_WORSE_SLACK = 1e-12
# numerical failures of one macro iteration's inner stage, retried once;
# anything else (a TypeError, ShapeError or ConfigurationError) propagates.
# DE wraps whatever its objective raises in ObjectiveError, so there the
# wrapped exception decides.
INNER_FAILURES = (
    local_mod.GradientError,
    ExpectationError,
    np.linalg.LinAlgError,
)


def default_pairs(n_orb: int):
    return [(p, q) for p in range(n_orb) for q in range(p)]


@dataclass
class KappaMatrix:
    n_orb: int
    pairs: list
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.pairs),):
            raise ValueError("one value per rotation pair required")
        for p, q in self.pairs:
            if not 0 <= q < p < self.n_orb:
                raise ValueError("pairs must satisfy 0 <= q < p < n_orb")

    @classmethod
    def zero(cls, n_orb: int, pairs=None) -> "KappaMatrix":
        pairs = default_pairs(n_orb) if pairs is None else list(pairs)
        return cls(n_orb=n_orb, pairs=pairs, values=np.zeros(len(pairs)))

    @classmethod
    def from_values(cls, n_orb: int, values, pairs=None) -> "KappaMatrix":
        pairs = default_pairs(n_orb) if pairs is None else list(pairs)
        return cls(n_orb=n_orb, pairs=pairs, values=np.asarray(values, dtype=float))

    def full(self) -> np.ndarray:
        mat = np.zeros((self.n_orb, self.n_orb))
        for (p, q), val in zip(self.pairs, self.values):
            mat[p, q] = val
            mat[q, p] = -val
        return mat

    def rotation(self) -> np.ndarray:
        """U = expm(-kappa); orthogonal because kappa is antisymmetric.

        scipy loads here, at the first rotation, so that a process that never
        rotates orbitals (a DE run on a test function) does not pay for it."""
        from scipy.linalg import expm

        return expm(-self.full())


def rotate_integrals(integrals: MolecularIntegrals, kappa: KappaMatrix) -> MolecularIntegrals:
    """Transform h and g into the rotated orbital basis; core energy unchanged."""
    if kappa.n_orb != integrals.n_orb:
        raise ValueError("rotation dimension does not match the integrals")
    u = kappa.rotation()
    h_rot = u.T @ integrals.h @ u
    # four successive single-index contractions, O(n^5)
    g_rot = integrals.g
    for axis in range(4):
        g_rot = np.tensordot(g_rot, u, axes=([0], [0]))
    # each tensordot consumes the leading axis and appends the new index,
    # so after four passes the index order is restored
    return replace(integrals, h=h_rot, g=g_rot)


def sa_oo_energy(kappa: KappaMatrix, base_integrals: MolecularIntegrals,
                 rdms_per_state, weights) -> float:
    """Ensemble energy of the FIXED correlated states under rotated integrals."""
    rotated = rotate_integrals(base_integrals, kappa)
    energies = [rdm_energy(rotated, rdms) for rdms in rdms_per_state]
    return float(sum(w * e for w, e in zip(weights, energies)))


@dataclass
class OOConfig:
    local: local_mod.LocalOptConfig = field(
        default_factory=lambda: local_mod.LocalOptConfig(max_iters=100)
    )
    pair_mask: list | None = None  # restrict rotations, e.g. for frozen cores


@dataclass
class OOResult:
    kappa: KappaMatrix
    integrals: MolecularIntegrals
    e_sa: float
    state_energies: tuple
    line_search_failed: bool


def minimize_orbitals(base_integrals: MolecularIntegrals, rdms_per_state,
                      weights, oo_config: OOConfig | None = None) -> OOResult:
    """Minimize the contracted ensemble energy over the free kappa parameters.

    Guaranteed never to return an energy above the kappa = 0 value: a failed
    line search falls back to the identity rotation.
    """
    oo_config = oo_config or OOConfig()
    n_orb = base_integrals.n_orb
    pairs = default_pairs(n_orb) if oo_config.pair_mask is None else list(oo_config.pair_mask)

    def finish(kappa, e_sa, failed):
        rotated = rotate_integrals(base_integrals, kappa)
        energies = tuple(rdm_energy(rotated, rdms) for rdms in rdms_per_state)
        return OOResult(
            kappa=kappa,
            integrals=rotated,
            e_sa=e_sa,
            state_energies=energies,
            line_search_failed=failed,
        )

    zero = KappaMatrix.zero(n_orb, pairs)
    e_zero = sa_oo_energy(zero, base_integrals, rdms_per_state, weights)
    if not pairs:  # nothing to rotate (n_orb == 1 or masked out)
        return finish(zero, e_zero, False)

    def objective(values):
        kappa = KappaMatrix.from_values(n_orb, values, pairs)
        return sa_oo_energy(kappa, base_integrals, rdms_per_state, weights)

    result = local_mod.bfgs_minimize(objective, np.zeros(len(pairs)), oo_config.local)
    failed = result.stop_reason == "line_search_failed"
    if result.fun > e_zero + NO_WORSE_SLACK or (failed and result.fun >= e_zero):
        return finish(zero, e_zero, failed)
    kappa = KappaMatrix.from_values(n_orb, result.x, pairs)
    return finish(kappa, result.fun, failed)


@dataclass
class MacroConfig:
    macro_tol: float = DEFAULT_MACRO_TOL
    max_macro_iters: int = DEFAULT_MAX_MACRO_ITERS

    def __post_init__(self):
        if not 0.0 < self.macro_tol < math.inf:
            raise ValueError("macro_tol must be positive and finite")
        iters = self.max_macro_iters
        if isinstance(iters, bool) or not isinstance(iters, numbers.Integral) or iters < 1:
            raise ValueError("max_macro_iters must be an integer >= 1")


@dataclass
class MacroRecord:
    macro_index: int
    e_sa_vqe: float
    e_sa_oo: float
    cum_evals: int


@dataclass
class SAOOVQEResult:
    e_sa: float
    state_energies: tuple  # lineage order
    theta: np.ndarray
    integrals: MolecularIntegrals
    macro_trace: list
    trace: OptimizationTrace
    evaluations: int
    macro_iterations: int
    converged: bool
    inner_failures: list  # (attempted macro index, message)


def _child_seed(base_seed: int, macro_index: int) -> int:
    return int(np.random.SeedSequence((base_seed, macro_index)).generate_state(1)[0])


def run_sa_oo_vqe(
    integrals: MolecularIntegrals,
    ansatz,
    weights=(0.5, 0.5),
    inner_optimizer: OptimizerChoice | None = None,
    oo_config: OOConfig | None = None,
    macro_config: MacroConfig | None = None,
) -> SAOOVQEResult:
    """Alternate SA-VQE and SA-OO stages until |delta E_SA| < macro_tol.

    Each VQE stage restarts from theta = 0 (the post-rotation energy spike is
    then visible in the per-step trace) but adopts the previous optimum when
    the fresh search fails to beat it, so the post-OO energy sequence is
    non-increasing for deterministic inner optimizers.  Every stage runs on
    one Sector, whose block follows the rotated integrals.

    A VQE stage that returns has its events appended to the run trace, shifted
    by the evaluations so far and stamped with the macro index, and its
    evaluations charged before the orbital stage runs; a stage that raises
    leaves nothing and charges nothing.  A numerical failure of either stage
    is retried once in place.  RuntimeError when no macro iteration completes.
    """
    inner_optimizer = inner_optimizer or OptimizerChoice("bfgs")
    oo_config = oo_config or OOConfig()
    macro_config = macro_config or MacroConfig()

    sector = Sector.build(integrals, ansatz)
    trace = OptimizationTrace()
    macro_trace: list[MacroRecord] = []
    inner_failures: list = []
    current = integrals
    theta_prev = None
    evals = 0
    e_oo_prev = None
    converged = False
    consecutive_failures = 0
    last_failure = None
    final_energies = ()

    for attempt in range(1, macro_config.max_macro_iters + 1):
        macro_index = len(macro_trace) + 1  # failed attempts are retried in place
        stage_optimizer = inner_optimizer
        if inner_optimizer.kind == "de":
            seed = _child_seed(inner_optimizer.de_config.seed, attempt)
            stage_optimizer = OptimizerChoice("de", replace(inner_optimizer.de_config, seed=seed))
        try:
            vqe = run_sa_vqe(sector, weights, stage_optimizer, incumbent=theta_prev)
            for event in vqe.trace.events:
                trace.append(replace(event, cum_evals=evals + event.cum_evals,
                                     macro_index=macro_index))
            evals += vqe.evaluations
            theta_star, e_vqe = vqe.theta, vqe.e_sa
            oo = minimize_orbitals(current, vqe.rdms, weights, oo_config)
        except (*INNER_FAILURES, ObjectiveError) as exc:
            if isinstance(exc, ObjectiveError) and not isinstance(exc.__cause__, INNER_FAILURES):
                raise exc.__cause__ from None  # a programming error in a DE objective
            consecutive_failures += 1
            last_failure = exc
            inner_failures.append((macro_index, str(exc)))
            if consecutive_failures >= 2:
                raise RuntimeError(
                    "two consecutive inner failures; aborting macro loop"
                ) from exc
            continue
        consecutive_failures = 0

        macro_trace.append(
            MacroRecord(
                macro_index=macro_index,
                e_sa_vqe=e_vqe,
                e_sa_oo=oo.e_sa,
                cum_evals=evals,
            )
        )
        trace.append(
            TraceEvent(
                cum_evals=evals,
                scope=SCOPE_MACRO,
                macro_index=macro_index,
                e_sa=oo.e_sa,
                e_states=oo.state_energies,
            )
        )

        final_energies = oo.state_energies
        current = oo.integrals
        theta_prev = theta_star

        if e_oo_prev is not None and abs(oo.e_sa - e_oo_prev) < macro_config.macro_tol:
            converged = True
            break
        e_oo_prev = oo.e_sa
        if attempt < macro_config.max_macro_iters:  # another stage runs on the new orbitals
            sector = sector.with_integrals(current)

    if not macro_trace:  # the only attempt failed
        raise RuntimeError("no macro iteration completed") from last_failure
    return SAOOVQEResult(
        e_sa=macro_trace[-1].e_sa_oo,
        state_energies=final_energies,
        theta=np.asarray(theta_prev, dtype=float),
        integrals=current,
        macro_trace=macro_trace,
        trace=trace,
        evaluations=evals,
        macro_iterations=len(macro_trace),
        converged=converged,
        inner_failures=inner_failures,
    )
