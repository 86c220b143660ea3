"""Orbital rotation, contracted ensemble energy, and the macro loop."""

import os
import subprocess
import sys

import numpy as np
import pytest

from devqe import fock
from devqe.ansatz import default_ansatz
from devqe.de import ConfigurationError, DEConfig, TerminationCriteria
from devqe.integrals import MolecularIntegrals
from devqe.local import GradientError, fd_gradient
from devqe.orbitals import (
    MacroConfig,
    OOConfig,
    default_pairs,
    minimize_orbitals,
    rotate_integrals,
    rotation,
    run_sa_oo_vqe,
    sa_oo_energy,
)
from devqe.savqe import OptimizerChoice, Sector, run_sa_vqe, sa_energy
from devqe.statevector import measure_rdms, rdm_energy
from devqe.trace import SCOPE_MACRO, SCOPE_STEP
from tests.dense_oracle import basis_state, scatter


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# run in a fresh interpreter: a DE run loads no scipy, the first rotation does
SCIPY_AT_FIRST_ROTATION = """
import sys
import numpy as np
import devqe
from devqe import bench, de

def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

config = de.DEConfig(np_size=10, seed=0, termination=de.TerminationCriteria(max_evals=200))
de.de_minimize(bench.sphere, de.Bounds.box(-5.0, 5.0, 3), config)
assert not scipy_loaded(), sorted(name for name in sys.modules if name.startswith("scipy"))
kappa = np.linspace(-0.7, 0.9, 6)
u = devqe.orbitals.rotation(4, kappa)
assert scipy_loaded()
from scipy.linalg import expm
full = np.zeros((4, 4))
for (p, q), value in zip(devqe.orbitals.default_pairs(4), kappa):
    full[p, q], full[q, p] = value, -value
assert np.array_equal(u, expm(-full))
"""


def test_scipy_loads_at_the_first_rotation():
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    run = subprocess.run([sys.executable, "-c", SCIPY_AT_FIRST_ROTATION], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def hf_rdms(n_orb, n_elec):
    return measure_rdms(basis_state(2 * n_orb, range(n_elec)), n_orb)


def hand_built_kappa(n_orb, values, pairs):
    full = np.zeros((n_orb, n_orb))
    for (p, q), value in zip(pairs, values):
        full[p, q] = value
        full[q, p] = -value
    return full


class TestKappa:
    def test_zero_rotation_is_identity(self, h2_integrals):
        rotated = rotate_integrals(h2_integrals, np.zeros(1))
        assert np.allclose(rotated.h, h2_integrals.h)
        assert np.allclose(rotated.g, h2_integrals.g)
        assert rotated.core_energy == h2_integrals.core_energy

    def test_rotation_orthogonal_for_random_kappa(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rotation(4, rng.uniform(-0.5, 0.5, 6))
            assert np.max(np.abs(u.T @ u - np.eye(4))) < 1e-12
            assert abs(np.linalg.det(u) - 1.0) < 1e-12

    def test_rotation_is_expm_of_hand_built_kappa(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(2)
        for pairs in (None, [(2, 0), (3, 1)]):
            values = rng.uniform(-0.5, 0.5, 6 if pairs is None else 2)
            full = hand_built_kappa(4, values, default_pairs(4) if pairs is None else pairs)
            assert np.array_equal(rotation(4, values, pairs), expm(-full))

    @pytest.mark.parametrize("molecule", ["h2", "h4", "lih_frozen_core", "lih"])
    def test_rotated_integrals_pass_the_constructor_check(self, request, molecule):
        # rotate_integrals skips MolecularIntegrals.__post_init__; the public
        # constructor accepts what it returns
        from devqe.integrals import freeze_core

        if molecule == "lih_frozen_core":
            integrals = freeze_core(request.getfixturevalue("lih_integrals"), 1)
        else:
            integrals = request.getfixturevalue(f"{molecule}_integrals")
        rng = np.random.default_rng(3)
        n_orb = integrals.n_orb
        for _ in range(5):
            rotated = rotate_integrals(integrals, rng.normal(0.0, 0.5, n_orb * (n_orb - 1) // 2))
            MolecularIntegrals(n_orb=rotated.n_orb, n_elec=rotated.n_elec,
                               core_energy=rotated.core_energy, h=rotated.h, g=rotated.g,
                               ms2=rotated.ms2)

    def test_fci_invariant_under_rotation(self, h2_integrals):
        rng = np.random.default_rng(1)
        reference = fock.fci_ground_energy(h2_integrals)
        for _ in range(20):
            rotated = rotate_integrals(h2_integrals, rng.uniform(-0.5, 0.5, 1))
            assert abs(fock.fci_ground_energy(rotated) - reference) < 1e-8


class TestSaOoEnergy:
    def test_kappa_zero_matches_statevector_path(self, h2_integrals):
        ansatz = default_ansatz(2, 2)
        theta = np.array([0.15, -0.3])
        sector = Sector.build(h2_integrals, ansatz)
        e_ref, _, rows = sa_energy(theta, sector, (0.5, 0.5))
        evolved = scatter(sector, rows)
        rdms = tuple(measure_rdms(s, 2) for s in evolved)
        e_oo = sa_oo_energy(np.zeros(1), h2_integrals, rdms, (0.5, 0.5))
        assert abs(e_oo - e_ref) < 1e-10

    def test_degenerate_weights_reduce_to_state_zero(self, h2_integrals):
        rdms = (hf_rdms(2, 2), hf_rdms(2, 2))
        e_oo = sa_oo_energy(np.zeros(1), h2_integrals, rdms, (1.0, 0.0))
        assert abs(e_oo - rdm_energy(h2_integrals, rdms[0])) < 1e-12

    def test_smooth_at_zero(self, h2_integrals):
        rdms = (hf_rdms(2, 2), hf_rdms(2, 2))

        def objective(values):
            return sa_oo_energy(values, h2_integrals, rdms, (0.5, 0.5))

        grad = fd_gradient(objective, np.zeros(1), 1e-6)
        t = 1e-5
        secant = (objective(np.array([t])) - objective(np.array([-t]))) / (2 * t)
        assert abs(grad[0] - secant) < 1e-6


class TestMinimizeOrbitals:
    def test_exact_state_rdms_leave_no_room(self, h2_integrals):
        # FCI-quality ensemble states: the variational floor blocks improvement
        ansatz = default_ansatz(2, 2)
        vqe = run_sa_vqe(Sector.build(h2_integrals, ansatz), optimizer=OptimizerChoice("bfgs"))
        floor = fock.ensemble_floor(h2_integrals)
        result = minimize_orbitals(h2_integrals, vqe.rdms, (0.5, 0.5))
        assert result.e_sa >= floor - 1e-10
        assert result.e_sa <= vqe.e_sa + 1e-12

    def test_single_orbital_identity(self):
        ints = MolecularIntegrals(
            n_orb=1, n_elec=2, core_energy=0.1,
            h=np.array([[-1.0]]), g=np.full((1, 1, 1, 1), 0.5),
        )
        rdms = (hf_rdms(1, 2), hf_rdms(1, 2))
        result = minimize_orbitals(ints, rdms, (0.5, 0.5))
        assert result.kappa.size == 0
        assert np.allclose(result.integrals.h, ints.h)

    def test_two_orbital_toy_matches_grid_scan(self):
        # diagonal-dominant one-electron matrix, small repulsion, HF-only RDMs:
        # the 1-parameter minimizer must match a dense grid scan over kappa
        h = np.array([[-1.0, 0.35], [0.35, -0.2]])
        g = np.zeros((2,) * 4)
        g[0, 0, 0, 0] = 0.2  # physicist <00|00>
        ints = MolecularIntegrals(n_orb=2, n_elec=2, core_energy=0.0, h=h, g=g)
        rdms = (hf_rdms(2, 2), hf_rdms(2, 2))
        weights = (0.5, 0.5)

        grid = np.linspace(-np.pi, np.pi, 20001)
        energies = [
            sa_oo_energy([k], ints, rdms, weights)
            for k in grid
        ]
        grid_min = min(energies)

        result = minimize_orbitals(ints, rdms, weights)
        assert result.e_sa <= grid_min + 1e-6
        assert abs(result.e_sa - grid_min) < 1e-6

    def test_never_worse_than_identity(self, h2_integrals):
        rdms = (hf_rdms(2, 2), hf_rdms(2, 2))
        e_zero = sa_oo_energy(np.zeros(1), h2_integrals, rdms, (0.5, 0.5))
        result = minimize_orbitals(h2_integrals, rdms, (0.5, 0.5))
        assert result.e_sa <= e_zero + 1e-12

    def test_pair_mask_restricts_parameters(self, h4_integrals):
        rdms = (hf_rdms(4, 4), hf_rdms(4, 4))
        config = OOConfig(pair_mask=[(2, 1)])
        result = minimize_orbitals(h4_integrals, rdms, (0.5, 0.5), config)
        assert result.kappa.size == 1
        # U mixes only orbitals 1 and 2, so h stays put on orbitals 0 and 3
        outer = np.ix_([0, 3], [0, 3])
        assert np.allclose(result.integrals.h[outer], h4_integrals.h[outer], atol=1e-12)

    def test_one_call_runs_no_integrals_check(self, h4_integrals, monkeypatch):
        checked = {"n": 0}
        check = MolecularIntegrals.__post_init__

        def counted(self):
            checked["n"] += 1
            check(self)

        monkeypatch.setattr(MolecularIntegrals, "__post_init__", counted)
        rdms = theta_005_rdms(h4_integrals)
        MolecularIntegrals(n_orb=1, n_elec=2, core_energy=0.0, h=np.zeros((1, 1)),
                           g=np.zeros((1,) * 4))
        assert checked["n"] == 1  # the counter sees the constructor
        minimize_orbitals(h4_integrals, rdms, (0.5, 0.5))
        assert checked["n"] == 1


class TestOOConfig:
    @pytest.mark.parametrize("mask, message", [
        ([(0, 0)], "0 <= q < p"),
        ([(1, 0), (1, 2)], "0 <= q < p"),
        ([(1, -1)], "0 <= q < p"),
        ([(2, 0), (1, 0), (2, 0)], "repeats"),
    ], ids=["diagonal", "q_above_p", "negative", "repeat"])
    def test_bad_pair_rejected_when_built(self, mask, message):
        with pytest.raises(ValueError, match=message):
            OOConfig(pair_mask=mask)

    def test_pair_beyond_the_orbitals_fails_before_any_stage(self, h2_integrals, monkeypatch):
        import devqe.orbitals as orbitals_mod

        stages = {"n": 0}

        def counted(*args, **kwargs):
            stages["n"] += 1
            raise AssertionError("no stage may run")

        monkeypatch.setattr(orbitals_mod, "run_sa_vqe", counted)
        config = OOConfig(pair_mask=[(2, 0)])  # H2 has orbitals 0 and 1
        with pytest.raises(ValueError, match="p < n_orb = 2"):
            run_sa_oo_vqe(h2_integrals, default_ansatz(2, 2), oo_config=config)
        assert stages["n"] == 0
        rdms = (hf_rdms(2, 2), hf_rdms(2, 2))
        with pytest.raises(ValueError, match="p < n_orb = 2"):
            minimize_orbitals(h2_integrals, rdms, (0.5, 0.5), config)


def theta_005_rdms(integrals):
    """The RDMs of the two SA-VQE states at theta = 0.05 in every parameter."""
    ansatz = default_ansatz(integrals.n_orb, integrals.n_elec)
    sector = Sector.build(integrals, ansatz)
    _, _, rows = sa_energy(np.full(ansatz.parameter_count, 0.05), sector, (0.5, 0.5))
    return tuple(sector.lists.rdms(row) for row in rows)


# minimize_orbitals on the theta = 0.05 RDMs, pinned from the code in which
# KappaMatrix carried the rotation: (sha256 of the rotated h and g bytes,
# repr of E_SA, repr of the state energies)
ORBITAL_STAGE_PINS = {
    ("h4", None): (
        "4a28fe49929eb97c6ab1a0e5606ad7b1d99e0652a6899ba6b3ba41b2454748b5",
        "-1.8175466893219079", ("-1.998358043254533", "-1.6367353353892828")),
    ("h4", "mask"): (
        "ff069dc33e5de70d55d46429cdfc6df107120effc6492c2da9c10ea3856ec4be",
        "-1.8069973045103795", ("-2.034730675475511", "-1.5792639335452483")),
    ("lih_frozen_core", None): (
        "e62d1ec39aed32900fe9e1d48a2bbaa6c557c159609953015d65be17d42e6e6f",
        "-7.778812108966072", ("-7.8236333704049095", "-7.733990847527234")),
    ("lih_frozen_core", "mask"): (
        "97b2f43053a5104fc4f43d62eacbd13540e058e4f7a2fd504aad3824c4adf707",
        "-7.761084573951348", ("-7.829539729198346", "-7.6926294187043505")),
    ("lih", None): (
        "a03322bd7260c5924c2842b6890e45827012b6060e71de832f172239b3be6cdf",
        "-7.726386016415089", ("-7.763087840137914", "-7.689684192692263")),
    ("lih", "mask"): (
        "c6ba02fd919ea72ddec960355afa28ee10e8c15e8cc233a0e80254a00bf62fc1",
        "-7.669461662147752", ("-7.730882821038066", "-7.608040503257437")),
}
PIN_MASK = [(2, 0), (3, 1)]


@pytest.mark.parametrize("molecule, mask", sorted(ORBITAL_STAGE_PINS, key=str),
                         ids=lambda v: str(v))
def test_minimize_orbitals_pins(request, molecule, mask):
    import hashlib

    from devqe.integrals import freeze_core

    if molecule == "lih_frozen_core":
        integrals = freeze_core(request.getfixturevalue("lih_integrals"), 1)
    else:
        integrals = request.getfixturevalue(f"{molecule}_integrals")
    config = OOConfig(pair_mask=PIN_MASK if mask else None)
    result = minimize_orbitals(integrals, theta_005_rdms(integrals), (0.5, 0.5), config)
    digest = hashlib.sha256(result.integrals.h.tobytes() + result.integrals.g.tobytes())
    assert (digest.hexdigest(), repr(float(result.e_sa)),
            tuple(repr(float(e)) for e in result.state_energies)) == ORBITAL_STAGE_PINS[
                molecule, mask]


class TestMacroConfig:
    @pytest.mark.parametrize("value", [0.0, -1e-4, float("nan"), float("inf")])
    def test_macro_tol_rejected(self, value):
        # a NaN tolerance never converges: abs(dE) < nan is always False
        with pytest.raises(ValueError, match="macro_tol"):
            MacroConfig(macro_tol=value)

    @pytest.mark.parametrize("value", [0, -3, 2.0, True])
    def test_max_macro_iters_rejected(self, value):
        # zero iterations would return e_sa = nan without a macro iteration
        with pytest.raises(ValueError, match="max_macro_iters"):
            MacroConfig(max_macro_iters=value)


class TestMacroLoop:
    def test_disabled_oo_matches_plain_savqe(self, h2_integrals):
        ansatz = default_ansatz(2, 2)
        macro = MacroConfig(max_macro_iters=1)
        config = OOConfig(pair_mask=[])  # kappa forced to zero
        result = run_sa_oo_vqe(
            h2_integrals,
            ansatz,
            inner_optimizer=OptimizerChoice("bfgs"),
            oo_config=config,
            macro_config=macro,
        )
        plain = run_sa_vqe(Sector.build(h2_integrals, ansatz), optimizer=OptimizerChoice("bfgs"))
        assert abs(result.e_sa - plain.e_sa) < 1e-12
        assert result.evaluations == plain.evaluations
        step_events = result.trace.filter(SCOPE_STEP)
        plain_events = plain.trace.filter(SCOPE_STEP)
        assert [e.e_sa for e in step_events] == [e.e_sa for e in plain_events]

    def test_h2_macro_converges_quickly(self, h2_integrals):
        ansatz = default_ansatz(2, 2)
        result = run_sa_oo_vqe(
            h2_integrals, ansatz, inner_optimizer=OptimizerChoice("bfgs")
        )
        assert result.converged
        assert result.macro_iterations <= 10
        oo_series = [rec.e_sa_oo for rec in result.macro_trace]
        assert all(b <= a + 1e-10 for a, b in zip(oo_series, oo_series[1:]))
        assert abs(oo_series[-1] - oo_series[-2]) < 1e-4

    def test_final_not_above_first_iteration(self, h2_integrals):
        ansatz = default_ansatz(2, 2)
        result = run_sa_oo_vqe(
            h2_integrals, ansatz, inner_optimizer=OptimizerChoice("bfgs")
        )
        assert result.e_sa <= result.macro_trace[0].e_sa_oo + 1e-10

    def test_macro_events_increment(self, h2_integrals):
        ansatz = default_ansatz(2, 2)
        result = run_sa_oo_vqe(
            h2_integrals, ansatz, inner_optimizer=OptimizerChoice("bfgs")
        )
        macro_events = result.trace.filter(SCOPE_MACRO)
        assert [e.macro_index for e in macro_events] == list(
            range(1, len(macro_events) + 1)
        )
        cums = [e.cum_evals for e in result.trace.events]
        assert cums == sorted(cums)
        macro_cums = [rec.cum_evals for rec in result.macro_trace]
        assert all(b > a for a, b in zip(macro_cums, macro_cums[1:]))

    # BFGS SA-OO with default settings on LiH, pinned from the code before the
    # sector Hamiltonian was built from the integrals: (frozen core orbitals,
    # evaluations, macro iterations, E_SA).  Both runs stop at max_macro_iters.
    @pytest.mark.parametrize(
        "n_frozen, evaluations, macro_iterations, e_sa",
        [(1, 3065, 20, -7.800965372174901), (0, 10855, 20, -7.801163902023339)],
        ids=["frozen_core", "full"],
    )
    def test_lih_bfgs_saoo_pins(self, lih_integrals, n_frozen, evaluations,
                                macro_iterations, e_sa):
        from devqe.integrals import freeze_core

        integrals = freeze_core(lih_integrals, n_frozen) if n_frozen else lih_integrals
        result = run_sa_oo_vqe(integrals, default_ansatz(integrals.n_orb, integrals.n_elec))
        assert result.evaluations == evaluations
        assert result.macro_iterations == macro_iterations
        assert not result.converged
        assert abs(result.e_sa - e_sa) < 1e-9
        assert result.e_sa >= fock.ensemble_floor(integrals)

    # sha256 of the trace CSV of three harness SA-OO runs (bench.run_molecule,
    # seed 0, harness defaults), pinned from the code that rebuilt the whole
    # Sector in every macro iteration: (evaluations, macro iterations, sha256)
    @pytest.mark.parametrize(
        "molecule, method, evaluations, macro_iterations, digest",
        [
            ("h4", "bfgs", 415, 2,
             "bd3a4889d62b1a574edfcea6e11ff46d5113e6b0783303905f64b4fa9760a69e"),
            ("lih_frozen_core", "bfgs", 3065, 20,
             "78983ef7a2caaeba4beb926e9952c93a0a8c57e135e92ad959c9ded33df0b22a"),
            ("h2", "de_rand1_bin", 890, 3,
             "cb25830dcc039f7f352f3b869688e8681d94db76bab8cf644f54860c0c32c9b0"),
        ],
        ids=["h4_bfgs", "lih_frozen_core_bfgs", "h2_de_rand1_bin"],
    )
    def test_saoo_trace_csv_pins(self, request, tmp_path, molecule, method, evaluations,
                                 macro_iterations, digest):
        import hashlib

        from devqe.bench import run_molecule
        from devqe.integrals import freeze_core

        if molecule == "lih_frozen_core":
            integrals = freeze_core(request.getfixturevalue("lih_integrals"), 1)
        else:
            integrals = request.getfixturevalue(f"{molecule}_integrals")
        run = run_molecule(integrals, method, 0, {}, "saoo")
        assert (run.evaluations, run.macro_iterations) == (evaluations, macro_iterations)
        path = tmp_path / "trace.csv"
        run.trace.write_csv(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_rotation_dimension_mismatch(self, h2_integrals):
        with pytest.raises(ValueError, match="one value per rotation pair"):
            rotate_integrals(h2_integrals, np.zeros(3))

    def test_h4_orbital_stage_strictly_improves(self, h4_integrals):
        # the pair-restricted ansatz cannot absorb an orbital rotation on H4,
        # so the classical stage must make measurable progress of its own
        ansatz = default_ansatz(4, 4)
        result = run_sa_oo_vqe(
            h4_integrals,
            ansatz,
            inner_optimizer=OptimizerChoice("bfgs"),
            macro_config=MacroConfig(max_macro_iters=12),
        )
        assert result.converged
        first = result.macro_trace[0]
        assert first.e_sa_oo < first.e_sa_vqe - 1e-7
        for rec in result.macro_trace:
            assert rec.e_sa_oo <= rec.e_sa_vqe + 1e-12
        floor = fock.ensemble_floor(h4_integrals)
        assert result.e_sa >= floor - 1e-10

    def test_de_inner_runs_and_stays_above_floor(self, h2_integrals):
        ansatz = default_ansatz(2, 2)
        choice = OptimizerChoice(
            "de",
            de_config=DEConfig(
                np_size=12,
                seed=0,
                termination=TerminationCriteria(
                    max_evals=600, abs_tol=(1e-8, 8)
                ),
            ),
        )
        result = run_sa_oo_vqe(
            h2_integrals,
            ansatz,
            inner_optimizer=choice,
            macro_config=MacroConfig(max_macro_iters=4),
        )
        floor = fock.ensemble_floor(h2_integrals)
        assert result.e_sa >= floor - 1e-10
        # best-so-far within each VQE stage is monotone
        for macro_index in {e.macro_index for e in result.trace.filter(SCOPE_STEP)}:
            stage = [
                e.e_sa
                for e in result.trace.filter(SCOPE_STEP)
                if e.macro_index == macro_index
            ]
            assert all(b <= a + 1e-12 for a, b in zip(stage, stage[1:]))

    def test_inner_failure_aborts_after_two(self, h2_integrals, monkeypatch):
        import devqe.orbitals as orbitals_mod

        calls = {"n": 0}

        def failing(*args, **kwargs):
            calls["n"] += 1
            raise GradientError("non-finite stencil value at coordinate 0", 0)

        monkeypatch.setattr(orbitals_mod, "run_sa_vqe", failing)
        ansatz = default_ansatz(2, 2)
        with pytest.raises(RuntimeError, match="two consecutive inner failures"):
            run_sa_oo_vqe(h2_integrals, ansatz, inner_optimizer=OptimizerChoice("bfgs"))
        assert calls["n"] == 2

    def test_configuration_error_raised_unretried(self, h2_integrals, monkeypatch):
        import devqe.orbitals as orbitals_mod

        calls = {"n": 0}

        def misconfigured(*args, **kwargs):
            calls["n"] += 1
            raise ConfigurationError("boundary mode 'reinit' needs finite bound widths")

        monkeypatch.setattr(orbitals_mod, "run_sa_vqe", misconfigured)
        ansatz = default_ansatz(2, 2)
        choice = OptimizerChoice(
            "de", de_config=DEConfig(termination=TerminationCriteria(max_generations=3)))
        with pytest.raises(ConfigurationError, match="finite bound widths"):
            run_sa_oo_vqe(h2_integrals, ansatz, inner_optimizer=choice)
        assert calls["n"] == 1

    def test_single_transient_failure_recovers(self, h2_integrals, monkeypatch):
        import devqe.orbitals as orbitals_mod

        real_run = orbitals_mod.run_sa_vqe
        state = {"calls": 0}

        def flaky(*args, **kwargs):
            state["calls"] += 1
            if state["calls"] == 1:
                raise GradientError("transient glitch", 0)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(orbitals_mod, "run_sa_vqe", flaky)
        ansatz = default_ansatz(2, 2)
        result = run_sa_oo_vqe(
            h2_integrals, ansatz, inner_optimizer=OptimizerChoice("bfgs")
        )
        assert result.converged
        assert result.inner_failures == [(1, "transient glitch")]
        macro_events = result.trace.filter(SCOPE_MACRO)
        assert [e.macro_index for e in macro_events] == list(
            range(1, len(macro_events) + 1)
        )

    @staticmethod
    def _short_de():
        return OptimizerChoice(
            "de",
            de_config=DEConfig(seed=1, termination=TerminationCriteria(max_evals=150)),
        )

    @pytest.mark.parametrize("batched", [True, False], ids=["batch", "single"])
    def test_de_objective_programming_error_raised_unretried(
        self, h2_integrals, monkeypatch, batched
    ):
        # DE wraps the objective's exception in ObjectiveError; a ShapeError
        # inside it is a programming error, not a numerical failure
        import devqe.de as de_mod
        import devqe.orbitals as orbitals_mod
        import devqe.savqe as savqe_mod
        from devqe.statevector import ShapeError

        real_run = orbitals_mod.run_sa_vqe
        real_de = de_mod.de_minimize
        calls = {"run": 0, "objective": 0}

        def counted(*args, **kwargs):
            calls["run"] += 1
            return real_run(*args, **kwargs)

        def broken(*args, **kwargs):
            calls["objective"] += 1
            raise ShapeError("programming error")

        def plain_de(objective, bounds, config, callback=None):
            # hide `batch`, so DE calls the objective once per member
            return real_de(lambda x: objective(x), bounds, config, callback=callback)

        monkeypatch.setattr(orbitals_mod, "run_sa_vqe", counted)
        monkeypatch.setattr(savqe_mod, "sa_energy", broken)
        if not batched:
            monkeypatch.setattr(de_mod, "de_minimize", plain_de)
        with pytest.raises(ShapeError, match="programming error"):
            run_sa_oo_vqe(h2_integrals, default_ansatz(2, 2), inner_optimizer=self._short_de())
        assert calls == {"run": 1, "objective": 1}

    def test_de_objective_linalg_error_retried_once(self, h2_integrals, monkeypatch):
        import devqe.orbitals as orbitals_mod
        import devqe.savqe as savqe_mod

        real_run = orbitals_mod.run_sa_vqe
        real_energy = savqe_mod.sa_energy
        calls = {"run": 0, "objective": 0}

        def counted(*args, **kwargs):
            calls["run"] += 1
            return real_run(*args, **kwargs)

        def glitch_once(*args, **kwargs):
            calls["objective"] += 1
            if calls["objective"] == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_energy(*args, **kwargs)

        monkeypatch.setattr(orbitals_mod, "run_sa_vqe", counted)
        monkeypatch.setattr(savqe_mod, "sa_energy", glitch_once)
        result = run_sa_oo_vqe(
            h2_integrals,
            default_ansatz(2, 2),
            inner_optimizer=self._short_de(),
            macro_config=MacroConfig(max_macro_iters=2),
        )
        assert result.inner_failures == [
            (1, "objective raised: Singular matrix")
        ]
        assert calls["run"] == 2  # the failed attempt and its retry
        assert result.macro_iterations == 1  # the failed attempt used up one of the two

    def test_failure_inside_a_stage_retried_after_it_recorded_steps(
        self, h2_integrals, monkeypatch
    ):
        # the 6th sa_energy call raises: the first stage has recorded steps by
        # then, and none of them may reach the run trace or its count
        import devqe.orbitals as orbitals_mod
        import devqe.savqe as savqe_mod

        real_run = orbitals_mod.run_sa_vqe
        real_energy = savqe_mod.sa_energy
        stages = []  # the results of the stages that returned
        calls = {"energy": 0}

        def recorded(*args, **kwargs):
            stages.append(real_run(*args, **kwargs))
            return stages[-1]

        def glitch_sixth(*args, **kwargs):
            calls["energy"] += 1
            if calls["energy"] == 6:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_energy(*args, **kwargs)

        monkeypatch.setattr(orbitals_mod, "run_sa_vqe", recorded)
        monkeypatch.setattr(savqe_mod, "sa_energy", glitch_sixth)
        result = run_sa_oo_vqe(
            h2_integrals, default_ansatz(2, 2), inner_optimizer=OptimizerChoice("bfgs")
        )
        assert result.inner_failures == [(1, "Singular matrix")]
        assert result.macro_iterations == len(stages) >= 2
        cums = [e.cum_evals for e in result.trace.events]
        assert cums == sorted(cums)
        assert result.evaluations == sum(stage.evaluations for stage in stages)
        # the step events are the returned stages' own, shifted and stamped
        expected, offset = [], 0
        for macro_index, stage in enumerate(stages, start=1):
            expected += [(offset + e.cum_evals, macro_index, e.e_sa) for e in stage.trace.events]
            offset += stage.evaluations
        assert [(e.cum_evals, e.macro_index, e.e_sa)
                for e in result.trace.filter(SCOPE_STEP)] == expected

    def test_only_attempt_failing_raises_instead_of_nan(self, h2_integrals, monkeypatch):
        import devqe.orbitals as orbitals_mod

        def failing(*args, **kwargs):
            raise GradientError("non-finite stencil value at coordinate 0", 0)

        monkeypatch.setattr(orbitals_mod, "run_sa_vqe", failing)
        with pytest.raises(RuntimeError, match="no macro iteration completed") as excinfo:
            run_sa_oo_vqe(h2_integrals, default_ansatz(2, 2),
                          macro_config=MacroConfig(max_macro_iters=1))
        assert isinstance(excinfo.value.__cause__, GradientError)
