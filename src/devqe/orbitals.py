"""Classical state-averaged orbital optimization and the full macro-iteration.

kappa is a plain vector, one value per rotation pair (p, q) with q < p; the
antisymmetric matrix it fills gives the orthogonal U = expm(-kappa), and
integrals transform as h' = U^T h U with the matching four-index transform
for g.  Pairs are checked once, by OOConfig and against the orbital count
before a run's first stage; integrals are checked where they enter (parse,
freeze_core, the constructor), and rotated copies skip that check because an
orthogonal U cannot break the symmetries it tests.
The ensemble energy over FIXED correlated-state RDMs is minimized over kappa
with BFGS on finite-difference gradients, then the macro loop alternates that
classical stage with a fresh SA-VQE stage until the state-averaged energy
change falls below the macro tolerance.  The sector, its references and the
circuit do not change with the orbitals: a run builds its Sector once, and
each macro iteration after the first re-contracts only its Hamiltonian block
from the rotated integrals.
"""

from __future__ import annotations

import copy
import math
import numbers
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from . import local as local_mod
from .de import ObjectiveError
from .integrals import MolecularIntegrals
from .savqe import OptimizerChoice, Sector, run_sa_vqe
from .statevector import rdm_energy
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
    np.linalg.LinAlgError,
)


class MacroLoopError(RuntimeError):
    """The macro loop ended without a result: two consecutive inner failures,
    or no macro iteration completed."""


# what a run may raise when it fails numerically; is_run_failure tells these
# from the programming errors that DE wraps in ObjectiveError too
RUN_FAILURES = (MacroLoopError, ObjectiveError, *INNER_FAILURES)


def is_run_failure(exc: BaseException) -> bool:
    """Whether exc is a run's numerical failure, which the macro loop retries
    and the harness records: a MacroLoopError, or an INNER_FAILURES error raised
    directly or as the cause of DE's ObjectiveError.  Anything else is a
    programming error."""
    cause = exc.__cause__ if isinstance(exc, ObjectiveError) else exc
    return isinstance(exc, MacroLoopError) or isinstance(cause, INNER_FAILURES)


def default_pairs(n_orb: int):
    return [(p, q) for p in range(n_orb) for q in range(p)]


def rotation(n_orb: int, values, pairs=None) -> np.ndarray:
    """U = expm(-kappa) for the antisymmetric kappa with kappa[p, q] = value
    and kappa[q, p] = -value over `pairs` (default: every q < p).  The pairs
    are trusted to satisfy 0 <= q < p < n_orb; OOConfig checks them.

    scipy loads here, at the first rotation, so that a process that never
    rotates orbitals (a DE run on a test function) does not pay for it."""
    from scipy.linalg import expm

    values = np.asarray(values, dtype=float)
    rows, cols = np.asarray(default_pairs(n_orb) if pairs is None else pairs,
                            dtype=np.intp).reshape(-1, 2).T
    if values.shape != rows.shape:
        raise ValueError("one value per rotation pair required")
    kappa = np.zeros((n_orb, n_orb))
    kappa[rows, cols] = values
    kappa[cols, rows] = -values
    return expm(-kappa)


def rotate_integrals(integrals: MolecularIntegrals, values, pairs=None) -> MolecularIntegrals:
    """Transform h and g into the orbital basis rotated by kappa; core energy
    unchanged.  The copy skips MolecularIntegrals' symmetry check."""
    u = rotation(integrals.n_orb, values, pairs)
    rotated = copy.copy(integrals)
    rotated.h = u.T @ integrals.h @ u
    # four successive single-index contractions, O(n^5)
    g_rot = integrals.g
    for axis in range(4):
        g_rot = np.tensordot(g_rot, u, axes=([0], [0]))
    # each tensordot consumes the leading axis and appends the new index,
    # so after four passes the index order is restored
    rotated.g = g_rot
    return rotated


def sa_oo_energy(values, base_integrals: MolecularIntegrals, rdms_per_state, weights,
                 pairs=None) -> float:
    """Ensemble energy of the FIXED correlated states under rotated integrals."""
    rotated = rotate_integrals(base_integrals, values, pairs)
    energies = [rdm_energy(rotated, rdms) for rdms in rdms_per_state]
    return float(sum(w * e for w, e in zip(weights, energies)))


@dataclass
class OOConfig:
    local: local_mod.LocalOptConfig = field(
        default_factory=lambda: local_mod.LocalOptConfig(max_iters=100)
    )
    pair_mask: list | None = None  # restrict rotations, e.g. for frozen cores

    def __post_init__(self):
        seen = set()
        for p, q in self.pair_mask or ():
            if not 0 <= operator.index(q) < operator.index(p):
                raise ValueError(f"rotation pair {(p, q)} must satisfy 0 <= q < p")
            if (p, q) in seen:
                raise ValueError(f"rotation pair {(p, q)} repeats")
            seen.add((p, q))

    def pairs(self, n_orb: int) -> np.ndarray:
        """The rotation pairs over n_orb orbitals as a (P, 2) index array."""
        pairs = default_pairs(n_orb) if self.pair_mask is None else self.pair_mask
        if any(p >= n_orb for p, _ in pairs):
            raise ValueError(f"rotation pairs must satisfy p < n_orb = {n_orb}")
        return np.array(pairs, dtype=np.intp).reshape(-1, 2)


@dataclass
class OOResult:
    kappa: np.ndarray  # one value per rotation pair
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
    pairs = oo_config.pairs(base_integrals.n_orb)

    def objective(values):
        return sa_oo_energy(values, base_integrals, rdms_per_state, weights, pairs)

    kappa = np.zeros(len(pairs))
    e_sa = e_zero = objective(kappa)
    failed = False
    if len(pairs):  # nothing to rotate when n_orb == 1 or every pair is masked out
        result = local_mod.bfgs_minimize(objective, kappa, oo_config.local)
        failed = result.stop_reason == "line_search_failed"
        if not (result.fun > e_zero + NO_WORSE_SLACK or (failed and result.fun >= e_zero)):
            kappa, e_sa = result.x, result.fun
    rotated = rotate_integrals(base_integrals, kappa, pairs)
    return OOResult(
        kappa=kappa,
        integrals=rotated,
        e_sa=e_sa,
        state_energies=tuple(rdm_energy(rotated, rdms) for rdms in rdms_per_state),
        line_search_failed=failed,
    )


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
    is retried once in place.  MacroLoopError when the retry fails too, or
    when no macro iteration completes.
    """
    inner_optimizer = inner_optimizer or OptimizerChoice("bfgs")
    oo_config = oo_config or OOConfig()
    macro_config = macro_config or MacroConfig()
    oo_config.pairs(integrals.n_orb)  # a pair beyond the orbitals fails before any stage

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
            if not is_run_failure(exc):
                raise exc.__cause__ from None  # a programming error in a DE objective
            consecutive_failures += 1
            last_failure = exc
            inner_failures.append((macro_index, str(exc)))
            if consecutive_failures >= 2:
                raise MacroLoopError(
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
        raise MacroLoopError("no macro iteration completed") from last_failure
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
