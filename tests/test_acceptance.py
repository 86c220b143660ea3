"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s tests/test_acceptance.py`
to see them inline).  Expected values come from independent oracles computed in
place: occupation-basis diagonalization, dense matrix algebra, grid scans, and
frozen reference runs.
"""

import csv
import functools
import time

import numpy as np

from devqe import fock
from devqe.ansatz import default_ansatz
from devqe.bench import cmd_compare, cmd_scan
from devqe.de import (
    Bounds,
    DEConfig,
    GenerationRecord,
    Population,
    TerminationCriteria,
    _generation_trials,
    _PhiloxDraws,
    de_minimize,
    make_rng,
    should_terminate,
)
from devqe.jw import jordan_wigner
from devqe.orbitals import rotate_integrals, run_sa_oo_vqe
from devqe.pauli import hamiltonian_matrix
from devqe.savqe import OptimizerChoice, Sector, run_sa_vqe
from devqe.statevector import measure_rdms, rdm_energy
from tests.conftest import fixture_path
from tests.dense_oracle import basis_state, dense_apply_ansatz, dense_expectation


def criterion(number, text):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:2d} FAIL  {text}")
                raise
            print(f"\nACCEPTANCE {number:2d} PASS  {text} ({time.time() - start:.1f}s)")

        return wrapper

    return decorate


@criterion(1, "Jordan-Wigner spectrum matches the occupation-basis oracle")
def test_01_jw_spectrum(h2_integrals):
    start = time.time()
    qubit_ham = jordan_wigner(h2_integrals)
    spectrum = np.linalg.eigvalsh(hamiltonian_matrix(qubit_ham))
    oracle = fock.full_spectrum(h2_integrals)
    assert spectrum.size == 16
    assert np.max(np.abs(spectrum - oracle)) < 1e-10
    assert time.time() - start < 1.0


@criterion(2, "BFGS ensemble VQE reaches the sector-exact ensemble minimum")
def test_02_savqe_exactness(h2_integrals):
    start = time.time()
    ansatz = default_ansatz(2, 2)
    result = run_sa_vqe(Sector.build(h2_integrals, ansatz), optimizer=OptimizerChoice("bfgs"))
    floor = fock.ensemble_floor(h2_integrals)  # (lambda0 + lambda1) / 2, singlets
    assert abs(result.e_sa - floor) < 1e-6
    assert time.time() - start < 10.0


@criterion(3, "FCI energy invariant under 20 random orbital rotations")
def test_03_rotation_invariance(h2_integrals):
    start = time.time()
    rng = np.random.default_rng(42)
    reference = fock.fci_ground_energy(h2_integrals)
    for _ in range(20):
        rotated = rotate_integrals(h2_integrals, rng.uniform(-0.5, 0.5, 1))
        assert abs(fock.fci_ground_energy(rotated) - reference) < 1e-8
    assert time.time() - start < 10.0


@criterion(4, "RDM-contracted energy equals Pauli-sum expectation on 50 states")
def test_04_energy_path_consistency(h2_integrals):
    ham = jordan_wigner(h2_integrals)
    ansatz = default_ansatz(2, 2)
    hf = basis_state(4, [0, 1])
    rng = np.random.default_rng(7)
    for _ in range(50):
        theta = rng.uniform(-np.pi, np.pi, ansatz.parameter_count)
        state = dense_apply_ansatz(hf, ansatz, theta)
        direct = dense_expectation(state, ham)
        contracted = rdm_energy(h2_integrals, measure_rdms(state, 2))
        assert abs(direct - contracted) < 1e-10


@criterion(5, "DE/rand/1/bin solves the 5-D sphere within 30000 evaluations")
def test_05_de_capability():
    start = time.time()
    bounds = Bounds.box(-5.0, 5.0, 5)
    successes = 0
    for seed in range(10):
        config = DEConfig(
            np_size=20,
            f=0.5,
            cr=0.9,
            strategy="rand1",
            crossover="binomial",
            seed=seed,
            termination=TerminationCriteria(max_evals=30000),
        )
        result = de_minimize(
            lambda x: float(np.sum(np.asarray(x) ** 2)), bounds, config
        )
        assert result.evaluations <= 30000
        if result.best_fitness < 1e-6:
            successes += 1
    assert successes >= 9
    assert time.time() - start < 30.0


@criterion(6, "compare reproduces the optimizer-comparison trends")
def test_06_compare_trends(tmp_path, h2_integrals):
    start = time.time()
    from devqe.de import STRATEGIES

    de_methods = [f"de_{s}_bin" for s in STRATEGIES]
    config = {
        "molecule": fixture_path("h2_sto3g.fcidump"),
        "optimizer": ",".join(["bfgs", "gd"] + de_methods),
        "seeds": "0,1,2,3,4,5,6,7,8,9",
    }
    summary_path = cmd_compare(config, str(tmp_path))
    with open(summary_path) as fh:
        rows = {r["method"]: r for r in csv.DictReader(fh)}

    assert set(rows) == set(["bfgs", "gd"] + de_methods)
    bfgs = rows["bfgs"]
    # (a) determinism: identical evaluation counts across all seeds
    assert bfgs["evals_min"] == bfgs["evals_max"]
    # (b) BFGS strictly cheaper than every DE variant
    for method in de_methods:
        assert float(bfgs["evals_mean"]) < float(rows[method]["evals_mean"])
    # (c) no DE variant beats the converged local optimum
    for method in de_methods:
        assert float(rows[method]["E_mean"]) >= float(bfgs["E_mean"]) - 1e-9
    # (d) at least one DE variant shows run-to-run spread
    spreads = [
        float(rows[m]["E_max"]) - float(rows[m]["E_min"]) for m in de_methods
    ]
    assert max(spreads) > 1e-4
    # stochastic cost variation across seeds for the classic variant
    rand1 = rows["de_rand1_bin"]
    assert int(rand1["evals_min"]) < int(rand1["evals_max"])
    assert time.time() - start < 600.0


@criterion(7, "macro loop: post-rotation energies non-increasing, quick halt")
def test_07_macro_loop(h2_integrals):
    ansatz = default_ansatz(2, 2)
    result = run_sa_oo_vqe(
        h2_integrals, ansatz, inner_optimizer=OptimizerChoice("bfgs")
    )
    assert result.converged
    assert result.macro_iterations <= 10
    oo_series = [rec.e_sa_oo for rec in result.macro_trace]
    assert all(b <= a + 1e-10 for a, b in zip(oo_series, oo_series[1:]))
    assert abs(oo_series[-1] - oo_series[-2]) < 1e-4


@criterion(8, "crossover statistics match the closed-form inheritance rates")
def test_08_crossover_statistics():
    n_trials = 100000
    np_size = 1000

    def from_donor(crossover, cr, dim, seed):
        """Which components of n_trials trials the shipped generation builder
        took from the donor.  Member k is k in every component, so a
        current_to_rand1 donor differs from its target by F * (x_r1 - x_r2),
        never 0, in every component, and stays well inside the box."""
        members = np.repeat(np.arange(np_size, dtype=float)[:, None], dim, axis=1)
        pop = Population(0, members, np.zeros(np_size))
        config = DEConfig(f=0.5, cr=cr, strategy="current_to_rand1", crossover=crossover)
        bounds = Bounds.box(-np_size, 2 * np_size, dim)
        draws = _PhiloxDraws(make_rng(seed))
        return np.concatenate([
            _generation_trials(pop, bounds, config, draws) != members
            for _ in range(n_trials // np_size)
        ])

    # binomial: per-component donor rate is cr + (1 - cr)/D
    for cr, dim, seed in ((0.3, 4, 11), (0.9, 10, 12)):
        taken = from_donor("binomial", cr, dim, seed)
        assert taken.shape == (n_trials, dim)
        expected = cr + (1.0 - cr) / dim
        sigma = np.sqrt(expected * (1.0 - expected) / n_trials)
        rates = taken.mean(axis=0)
        assert np.max(np.abs(rates - expected)) < 3.0 * sigma, (cr, dim, rates)
    # exponential: the window grows past length 1 with probability cr
    for cr, dim, seed in ((0.3, 4, 13), (0.9, 10, 14), (0.5, 8, 15)):
        taken = from_donor("exponential", cr, dim, seed)
        assert taken.shape == (n_trials, dim)
        long_windows = np.count_nonzero(taken.sum(axis=1) >= 2)
        sigma = np.sqrt(cr * (1.0 - cr) / n_trials)
        assert abs(long_windows / n_trials - cr) < 3.0 * sigma, (cr, dim)


@criterion(9, "orbital relaxation never raises the scanned energies")
def test_09_scan_comparison(tmp_path, h2_scan_dir):
    config = {"molecule": h2_scan_dir, "optimizer": "bfgs"}
    fixed_path = cmd_scan(config, str(tmp_path), "savqe")
    relaxed_path = cmd_scan(config, str(tmp_path), "saoo")
    with open(fixed_path) as fh:
        fixed = list(csv.DictReader(fh))
    with open(relaxed_path) as fh:
        relaxed = list(csv.DictReader(fh))
    assert len(fixed) == len(relaxed) == 3
    for fixed_row, relaxed_row in zip(fixed, relaxed):
        assert fixed_row["status"] == relaxed_row["status"] == "ok"
        assert relaxed_row["coordinate_label"] == fixed_row["coordinate_label"]
        assert float(relaxed_row["e0"]) <= float(fixed_row["e0"]) + 1e-8
        assert float(relaxed_row["e_sa"]) <= float(fixed_row["e_sa"]) + 1e-8


@criterion(10, "every termination criterion fires on its own synthetic trace")
def test_10_termination_units():
    def history(best, worst=None, evals_per_gen=10):
        worst = [b + 1.0 for b in best] if worst is None else worst
        return [
            GenerationRecord(g, (g + 1) * evals_per_gen, b, w)
            for g, (b, w) in enumerate(zip(best, worst))
        ]

    improving = [10.0 - g for g in range(100)]
    cases = {
        "max_evals": (
            TerminationCriteria(max_evals=1000),
            history(improving),
        ),
        "max_generations": (
            TerminationCriteria(max_generations=5),
            history(improving[:6]),
        ),
        "abs_tol": (
            TerminationCriteria(abs_tol=(1e-9, 5)),
            history([5.0, 4.0] + [4.0] * 5, [15.0] * 7),
        ),
        "rel_tol": (
            TerminationCriteria(rel_tol=(1e-6, 3, 1e-12)),
            history([1e9, 1e9 - 1.0, 1e9 - 2.0, 1e9 - 3.0], [1e9 + 1e6] * 4),
        ),
        "running_mean": (
            TerminationCriteria(running_mean=(0.5, 4, 2)),
            history([10.0, 2.0] + [2.0] * 7, [20.0] * 9),
        ),
        "best_worst": (
            TerminationCriteria(best_worst=(1e-8, 2)),
            history([5.0, 4.0, 3.0], [6.0, 4.0 + 1e-9, 3.0 + 1e-9]),
        ),
    }
    for expected, (crit, hist) in cases.items():
        assert should_terminate(hist, crit) == expected, expected
