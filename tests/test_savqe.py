"""State-averaged VQE: reference states, ensemble objective, optimizer drive."""

import numpy as np
import pytest

from devqe import fock
from devqe.ansatz import default_ansatz
from devqe.de import DEConfig, TerminationCriteria
from devqe.jw import jordan_wigner
from devqe.local import LocalOptConfig, fd_gradient
from devqe.pauli import hamiltonian_matrix
from devqe.savqe import (
    EnsembleSpec,
    OptimizerChoice,
    Sector,
    build_initial_states,
    run_sa_vqe,
    sa_energy,
)
from devqe.statevector import expectation
from tests.dense_oracle import (
    apply_excitation,
    dense_expectation,
    generator_words,
    number_operator,
    scatter,
)


class TestEnsembleSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            EnsembleSpec((0.5, 0.6))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec((1.5, -0.5))

    @pytest.mark.parametrize(
        "weights", [(float("nan"), float("nan")), (float("nan"), 1.0), (float("inf"), 0.0)]
    )
    def test_non_finite_weights_rejected(self, weights):
        # NaN passes both x < 0 and abs(sum - 1) > tol as False
        with pytest.raises(ValueError, match="finite"):
            EnsembleSpec(weights)


class TestInitialStates:
    def test_h2_patterns(self):
        hf, excited = build_initial_states(2, 2)
        assert hf.amplitudes[0b0011] == 1.0  # modes 0, 1 occupied
        # singlet single: equal-weight combination of the two spin promotions
        nonzero = np.flatnonzero(np.abs(excited.amplitudes) > 1e-12)
        assert set(nonzero.tolist()) == {0b0110, 0b1001}
        assert np.allclose(np.abs(excited.amplitudes[nonzero]), 1 / np.sqrt(2))

    def test_unit_norms_and_orthogonality(self):
        for n_orb, n_elec in ((2, 2), (4, 4), (6, 4)):
            a, b = build_initial_states(n_orb, n_elec)
            assert abs(a.norm() - 1.0) < 1e-12
            assert abs(b.norm() - 1.0) < 1e-12
            assert abs(a.inner(b)) < 1e-12

    def test_number_eigenstates(self):
        a, b = build_initial_states(2, 2)
        num = number_operator(4)
        assert dense_expectation(a, num) == pytest.approx(2.0)
        assert dense_expectation(b, num) == pytest.approx(2.0)
        # eigenstate, not just expectation: variance must vanish
        num_mat = hamiltonian_matrix(num)
        for state in (a, b):
            residual = num_mat @ state.amplitudes - 2.0 * state.amplitudes
            assert np.max(np.abs(residual)) < 1e-12

    def test_open_shell_rejected(self):
        with pytest.raises(ValueError):
            build_initial_states(2, 3)

    def test_missing_virtual_rejected(self):
        with pytest.raises(ValueError):
            build_initial_states(1, 2)

    def test_no_electrons_rejected(self):
        with pytest.raises(ValueError, match="occupied"):
            build_initial_states(2, 0)


class TestAnsatzSymmetries:
    def test_generators_conserve_particle_number_and_sz(self):
        # dense generator from the Pauli decomposition must commute with N and Sz
        ansatz = default_ansatz(3, 2)
        n_qubits = 6
        num_mat = hamiltonian_matrix(number_operator(n_qubits))
        sz_diag = np.zeros(2**n_qubits)
        for bits in range(2**n_qubits):
            up = bin(bits & 0b010101).count("1")
            down = bin(bits & 0b101010).count("1")
            sz_diag[bits] = 0.5 * (up - down)
        sz_mat = np.diag(sz_diag)
        from devqe.pauli import pauli_matrix

        for excitation in ansatz.excitations:
            gen = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
            for string, coeff in generator_words(excitation, n_qubits):
                gen += 1j * coeff * pauli_matrix(string)
            assert np.max(np.abs(gen + gen.conj().T)) < 1e-12  # anti-Hermitian
            assert np.max(np.abs(gen @ num_mat - num_mat @ gen)) < 1e-12
            assert np.max(np.abs(gen @ sz_mat - sz_mat @ gen)) < 1e-12


class TestSaEnergy:
    def test_degenerate_weighting_returns_first_state(self, h2_integrals):
        ansatz = default_ansatz(2, 2)
        theta = np.array([0.2, -0.1])
        e_sa, energies, _ = sa_energy(theta, Sector.build(h2_integrals, ansatz), (1.0, 0.0))
        assert e_sa == pytest.approx(energies[0])

    def test_zero_theta_gives_reference_energies(self, h2_integrals):
        ham = jordan_wigner(h2_integrals)
        ansatz = default_ansatz(2, 2)
        states = build_initial_states(2, 2)
        _, energies, _ = sa_energy(
            np.zeros(ansatz.parameter_count), Sector.build(h2_integrals, ansatz), (0.5, 0.5)
        )
        assert energies[0] == pytest.approx(dense_expectation(states[0], ham))
        assert energies[1] == pytest.approx(dense_expectation(states[1], ham))

    def test_weighting_arithmetic(self, h2_integrals):
        # unequal weights on H2: at theta = 0 the states are the references,
        # whose energies differ, and e_sa is their weighted sum
        from devqe.integrals import hf_determinant_energy

        ham = jordan_wigner(h2_integrals)
        excited = build_initial_states(2, 2)[1]
        sector = Sector.build(h2_integrals, default_ansatz(2, 2))
        e_sa, energies, _ = sa_energy(np.zeros(2), sector, (0.25, 0.75))
        assert abs(energies[0] - hf_determinant_energy(h2_integrals)) < 1e-12
        assert abs(energies[1] - dense_expectation(excited, ham)) < 1e-12
        assert energies[1] - energies[0] > 0.5
        assert e_sa == 0.25 * energies[0] + 0.75 * energies[1]

    @pytest.mark.parametrize("molecule", ["h2", "h4", "lih_frozen_core"])
    @pytest.mark.parametrize("rows_per_block", [None, 3], ids=["default_blocks", "3_rows"])
    def test_block_equals_one_point_calls(self, molecule, rows_per_block, request):
        from devqe.ansatz import apply_ansatz
        from devqe.integrals import freeze_core

        if molecule == "lih_frozen_core":
            integrals = freeze_core(request.getfixturevalue("lih_integrals"), 1)
        else:
            integrals = request.getfixturevalue(f"{molecule}_integrals")
        spec = default_ansatz(integrals.n_orb, integrals.n_elec)
        ham = jordan_wigner(integrals)
        states = build_initial_states(integrals.n_orb, integrals.n_elec)
        sector = Sector.build(integrals, spec)
        rebuilt = Sector.build(integrals, spec)
        weights = (0.375, 0.625)
        n_points = 33  # 66 (point, reference) rows
        thetas = np.random.default_rng(27).uniform(-1.0, 1.0, (n_points, spec.parameter_count))

        e_sa, energies, states_out = sa_energy(thetas, sector, weights)
        assert states_out is None
        assert e_sa.shape == (n_points,) and energies.shape == (n_points, 2)
        if rows_per_block is not None:
            # the sector kernels on blocks that split a point's references
            row_thetas = np.repeat(thetas, 2, axis=0)
            row_refs = np.tile(sector.references, (n_points, 1))
            split = np.concatenate([
                expectation(
                    apply_ansatz(row_refs[i : i + rows_per_block], sector.ansatz,
                                 row_thetas[i : i + rows_per_block]),
                    sector.hamiltonian,
                )
                for i in range(0, 2 * n_points, rows_per_block)
            ])
            assert np.array_equal(split.reshape(n_points, 2), energies)
        for i, theta in enumerate(thetas):
            # a sector built again gives the same point
            one_e_sa, one_energies, rows = sa_energy(theta, rebuilt, weights)
            evolved = scatter(rebuilt, rows)
            assert e_sa[i] == one_e_sa
            assert tuple(energies[i].tolist()) == one_energies
            for reference, state, energy in zip(states, evolved, one_energies):
                chain = reference
                for excitation, angle in zip(spec.excitations, theta):
                    chain = apply_excitation(chain, excitation, float(angle))
                # the Givens sets and the Pauli-word chain are different exact
                # factorisations of U(theta): equal to rounding, not bitwise
                assert np.max(np.abs(state.amplitudes - chain.amplitudes)) < 1e-12
                assert abs(energy - dense_expectation(chain, ham)) < 1e-12
            assert one_e_sa == weights[0] * one_energies[0] + weights[1] * one_energies[1]


class TestRunSaVqe:
    def test_bfgs_reaches_ensemble_floor(self, h2_integrals):
        ansatz = default_ansatz(2, 2)
        result = run_sa_vqe(Sector.build(h2_integrals, ansatz), optimizer=OptimizerChoice("bfgs"))
        floor = fock.ensemble_floor(h2_integrals)
        assert abs(result.e_sa - floor) < 1e-6

    def test_final_states_stay_orthogonal(self, h2_integrals):
        ansatz = default_ansatz(2, 2)
        result = run_sa_vqe(Sector.build(h2_integrals, ansatz), optimizer=OptimizerChoice("bfgs"))
        a, b = scatter(Sector.build(h2_integrals, ansatz), result.final_rows)
        assert abs(a.inner(b)) < 1e-10
        assert abs(a.norm() - 1.0) < 1e-12

    def test_orthonormality_preserved_at_random_theta(self, h2_integrals):
        ansatz = default_ansatz(2, 2)
        sector = Sector.build(h2_integrals, ansatz)
        rng = np.random.default_rng(0)
        for _ in range(25):
            theta = rng.uniform(-np.pi, np.pi, ansatz.parameter_count)
            evolved = scatter(sector, sa_energy(theta, sector, (0.5, 0.5))[2])
            assert abs(evolved[0].inner(evolved[1])) < 1e-10
            assert abs(evolved[0].norm() - 1.0) < 1e-12
            assert abs(evolved[1].norm() - 1.0) < 1e-12

    def test_variational_floor_holds_for_random_theta(self, h2_integrals):
        ansatz = default_ansatz(2, 2)
        sector = Sector.build(h2_integrals, ansatz)
        floor = fock.ensemble_floor(h2_integrals)
        rng = np.random.default_rng(1)
        for _ in range(60):
            theta = rng.uniform(-np.pi, np.pi, ansatz.parameter_count)
            e_sa, _, _ = sa_energy(theta, sector, (0.5, 0.5))
            assert e_sa >= floor - 1e-10

    def test_weighted_sum_consistency_on_trace(self, h2_integrals):
        ansatz = default_ansatz(2, 2)
        result = run_sa_vqe(Sector.build(h2_integrals, ansatz), optimizer=OptimizerChoice("bfgs"))
        for event in result.trace.events:
            if event.e_states:
                combo = 0.5 * event.e_states[0] + 0.5 * event.e_states[1]
                assert abs(event.e_sa - combo) < 1e-12

    def test_fd_gradient_matches_directional_secant(self, h2_integrals):
        ansatz = default_ansatz(2, 2)
        sector = Sector.build(h2_integrals, ansatz)

        def objective(theta):
            return sa_energy(theta, sector, (0.5, 0.5))[0]

        rng = np.random.default_rng(2)
        theta = rng.uniform(-0.5, 0.5, ansatz.parameter_count)
        grad = fd_gradient(objective, theta, 1e-6)
        direction = rng.normal(size=theta.size)
        direction /= np.linalg.norm(direction)
        t = 1e-5
        secant = (objective(theta + t * direction) - objective(theta - t * direction)) / (
            2.0 * t
        )
        assert abs(grad @ direction - secant) < 1e-6

    def test_de_deterministic_traces(self, h2_integrals):
        ansatz = default_ansatz(2, 2)
        choice = OptimizerChoice(
            "de",
            de_config=DEConfig(
                np_size=12,
                seed=5,
                termination=TerminationCriteria(max_generations=15),
            ),
        )
        r1 = run_sa_vqe(
Sector.build(h2_integrals, ansatz), optimizer=choice)
        r2 = run_sa_vqe(
Sector.build(h2_integrals, ansatz), optimizer=choice)
        assert r1.theta.tobytes() == r2.theta.tobytes()
        assert [e.e_sa for e in r1.trace.events] == [e.e_sa for e in r2.trace.events]
        assert r1.evaluations == r2.evaluations

    def test_weight_count_must_match_state_count(self, h2_integrals):
        with pytest.raises(ValueError, match="3 weights given for 2 states"):
            run_sa_vqe(
                Sector.build(h2_integrals, default_ansatz(2, 2)), weights=(0.2, 0.3, 0.5)
            )

    def test_de_stage_arrays_keep_population_shapes(self, h2_integrals, monkeypatch):
        import devqe.de as de_mod

        de_minimize = de_mod.de_minimize
        shapes = set()  # of the held arrays, after every generation

        def watched_de(objective, bounds, config, callback):
            def on_generation(pop, cum_evals):
                callback(pop, cum_evals)
                shapes.add((objective.e_sa.shape, objective.energies.shape))

            return de_minimize(objective, bounds, config, callback=on_generation)

        monkeypatch.setattr(de_mod, "de_minimize", watched_de)
        choice = OptimizerChoice(
            "de",
            de_config=DEConfig(seed=0, termination=TerminationCriteria(max_evals=3000)),
        )
        result = run_sa_vqe(
            Sector.build(h2_integrals, default_ansatz(2, 2)),
            optimizer=choice
        )
        # 3000 DE evaluations plus the final reconstruction: no lookup was charged
        assert result.evaluations == 3001
        assert len(result.trace.events) > 100
        assert shapes == {((15,), (15, 2))}

    @pytest.mark.parametrize("method", ["de_rand1_bin", "de_best2_bin", "de_current_to_pbest1_exp"])
    @pytest.mark.parametrize("molecule", ["h2", "h4"])
    def test_de_stage_trace_is_the_per_row_recorder(self, h2_integrals, h4_integrals, molecule,
                                                    method, monkeypatch):
        # the population-aligned arrays give every generation's event bitwise
        # what looking each best member up among the evaluated rows gives
        import devqe.savqe as savqe_mod
        from devqe.bench import build_optimizer
        from devqe.orbitals import MacroConfig, run_sa_oo_vqe

        integrals = h2_integrals if molecule == "h2" else h4_integrals
        ansatz = default_ansatz(integrals.n_orb, integrals.n_elec)

        def events():
            result = run_sa_oo_vqe(integrals, ansatz,
                                   inner_optimizer=build_optimizer(method, {"max_evals": "600"}, 4),
                                   macro_config=MacroConfig(max_macro_iters=2))
            assert result.macro_iterations == 2
            trace = result.trace.events
            return ([(e.scope, e.macro_index, e.cum_evals) for e in trace],
                    np.array([(e.e_sa, *e.e_states) for e in trace]).tobytes())

        shipped = events()
        monkeypatch.setattr(savqe_mod, "_PopulationEnergies", PerRowRecorder)
        PerRowRecorder.lookups = 0
        recorded = events()
        # every DE generation of both stages is one step event, and one lookup
        assert PerRowRecorder.lookups == sum(e[0] == "optimizer_step" for e in recorded[0]) > 20
        assert shipped == recorded

    def test_de_stage_rows_one_call_at_a_time_give_the_batch_trace(self, h2_integrals,
                                                                    monkeypatch):
        import devqe.de as de_mod

        de_minimize = de_mod.de_minimize
        sector = Sector.build(h2_integrals, default_ansatz(2, 2))
        choice = OptimizerChoice("de", de_config=DEConfig(
            strategy="current_to_pbest1", crossover="exponential", seed=6,
            termination=TerminationCriteria(max_evals=600)))

        def trace():
            events = run_sa_vqe(sector, optimizer=choice).trace.events
            return ([e.cum_evals for e in events],
                    np.array([(e.e_sa, *e.e_states) for e in events]).tobytes())

        batched = trace()
        monkeypatch.setattr(de_mod, "de_minimize", lambda objective, *args, **kwargs: de_minimize(
            lambda x: objective(x), *args, **kwargs))  # hides `batch`
        assert trace() == batched and len(batched[0]) > 30

    def test_signed_zero_row_is_not_the_member(self, h2_integrals, monkeypatch):
        # -0.0 == 0.0, but a trial row that differs from the member at its
        # index only in the sign of a zero is another point: the member keeps
        # the components held for it
        import devqe.savqe as savqe_mod
        from devqe.de import Population

        blocks = []

        def numbered(thetas, sector, weights):  # every row of block b has energies b
            blocks.append(len(thetas))
            value = float(len(blocks))
            return np.full(len(thetas), value), np.full((len(thetas), 2), value), None

        monkeypatch.setattr(savqe_mod, "sa_energy", numbered)
        objective = savqe_mod._PopulationEnergies(
            Sector.build(h2_integrals, default_ansatz(2, 2)), (0.5, 0.5))
        members = np.array([[0.0, 0.5], [0.25, -0.5], [0.75, 0.0], [1.0, 1.0]])
        objective.batch(members)
        assert objective.components(Population(0, members, np.zeros(4))) == (1.0, (1.0, 1.0))

        trials = members.copy()
        trials[0, 0] = -0.0  # the member's 0.0 with its sign flipped
        trials[2, 1] = -0.0
        trials[3] = [0.5, 0.5]
        objective.batch(trials)
        assert objective.calls == 8 and blocks == [4, 4]
        # the population after selection: rows 0 and 2 hold the members,
        # row 1 the (bitwise equal) trial, row 3 the new trial
        kept = np.array([members[0], trials[1], members[2], trials[3]])
        assert kept[0, 0] == trials[0, 0] and kept[2, 1] == trials[2, 1]
        best = objective.components(Population(1, kept, np.array([0.0, 1.0, 1.0, 1.0])))
        assert best == (1.0, (1.0, 1.0))
        assert objective.e_sa.tolist() == [1.0, 2.0, 1.0, 2.0]
        assert objective.energies.tolist() == [[1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [2.0, 2.0]]

    def test_single_evaluation_per_sa_energy_row(self, h2_integrals, monkeypatch):
        # the audit: reported evaluations equal the points sa_energy evaluated,
        # one per row of a block, for the local optimizers and for DE
        import devqe.savqe as savqe_mod

        original = savqe_mod.sa_energy
        rows = []

        def counting(theta, *args, **kwargs):
            rows.append(np.atleast_2d(theta).shape[0])
            return original(theta, *args, **kwargs)

        monkeypatch.setattr(savqe_mod, "sa_energy", counting)
        choices = [
            OptimizerChoice("bfgs"),
            OptimizerChoice("gd", local_config=LocalOptConfig(max_iters=40)),
            OptimizerChoice(
                "de",
                de_config=DEConfig(
                    strategy="best2", seed=3, termination=TerminationCriteria(max_evals=600)
                ),
            ),
        ]
        for choice in choices:
            rows.clear()
            result = run_sa_vqe(
                Sector.build(h2_integrals, default_ansatz(2, 2)),
                optimizer=choice
            )
            assert result.evaluations == sum(rows), choice.kind
            assert len(rows) < sum(rows)  # stencils or generations went as blocks

    def test_frozen_core_lih_pipeline(self, lih_integrals):
        from devqe.integrals import freeze_core, hf_determinant_energy

        frozen = freeze_core(lih_integrals, 1)
        ansatz = default_ansatz(frozen.n_orb, frozen.n_elec)
        assert ansatz.n_qubits == 10
        result = run_sa_vqe(Sector.build(frozen, ansatz), optimizer=OptimizerChoice("bfgs"))
        # ground state gains correlation energy below the determinant reference
        assert result.state_energies[0] < hf_determinant_energy(lih_integrals) - 1e-4
        assert result.e_sa >= fock.ensemble_floor(frozen) - 1e-10
        final_states = scatter(Sector.build(frozen, ansatz), result.final_rows)
        assert abs(final_states[0].inner(final_states[1])) < 1e-10

    def test_gd_records_every_step(self, h2_integrals):
        ansatz = default_ansatz(2, 2)
        result = run_sa_vqe(
            Sector.build(h2_integrals, ansatz),
            optimizer=OptimizerChoice("gd", local_config=LocalOptConfig(max_iters=40))
        )
        events = result.trace.events
        assert len(events) >= 2
        cums = [e.cum_evals for e in events]
        assert cums == sorted(cums)


class PerRowRecorder:
    """The DE stage's objective as a per-row lookup: the components of every
    evaluated row under its bytes, pruned to the population's members each
    generation.  The oracle of `savqe._PopulationEnergies`."""

    lookups = 0

    def __init__(self, sector, weights):
        self.sector = sector
        self.weights = weights
        self.calls = 0
        self._rows = {}

    def batch(self, thetas):
        thetas = np.asarray(thetas, dtype=float)
        self.calls += len(thetas)
        e_sa, energies, _ = sa_energy(thetas, self.sector, self.weights)
        for theta, value, row in zip(thetas, e_sa.tolist(), energies.tolist()):
            self._rows[theta.tobytes()] = (value, tuple(row))
        return e_sa

    def components(self, pop):
        PerRowRecorder.lookups += 1
        best = self._rows[pop.members[pop.best_index()].tobytes()]
        self._rows = {key: self._rows[key] for key in map(bytes, pop.members)}
        return best
