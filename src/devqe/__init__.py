"""Differential-evolution optimizers and a state-averaged, orbital-optimized
VQE statevector toolkit for small molecular Hamiltonians."""

from .ansatz import (
    AnsatzSpec,
    Excitation,
    GivensAnsatz,
    apply_ansatz,
    default_ansatz,
    double_excitation,
    paired_double,
    paired_single,
    single_excitation,
)
from .de import (
    Bounds,
    DEConfig,
    DEResult,
    Population,
    TerminationCriteria,
    de_minimize,
)
from .integrals import (
    MolecularIntegrals,
    freeze_core,
    hf_determinant_energy,
    load_fcidump,
    parse_fcidump,
)
from .jw import jordan_wigner
from .local import LocalOptConfig, LocalResult, bfgs_minimize, fd_gradient, gradient_descent
from .orbitals import (
    MacroConfig,
    OOConfig,
    minimize_orbitals,
    rotate_integrals,
    run_sa_oo_vqe,
    sa_oo_energy,
)
from .pauli import PauliTerm, QubitHamiltonian
from .savqe import (
    EnsembleSpec,
    OptimizerChoice,
    Sector,
    build_initial_states,
    run_sa_vqe,
    sa_energy,
)
from .statevector import (
    RDMPair,
    SectorHamiltonian,
    StateVector,
    expectation,
    measure_rdms,
    rdm_energy,
)
from .trace import OptimizationTrace, TraceEvent

__version__ = "0.1.0"
