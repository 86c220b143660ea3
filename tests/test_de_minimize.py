"""End-to-end DE runs on analytic objectives."""

from dataclasses import FrozenInstanceError, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from devqe import de
from devqe.bench import sphere
from devqe.de import (
    _RAW_CHUNK,
    BOUNDARY_MODES,
    CROSSOVERS,
    STRATEGIES,
    Bounds,
    ConfigurationError,
    DEConfig,
    DegenerateRangeError,
    ObjectiveError,
    Population,
    TerminationCriteria,
    _generation_trials,
    _PhiloxDraws,
    _smallest_population,
    de_minimize,
    initialize_population,
    make_rng,
)
from devqe.trace import SCOPE_STEP, TraceEvent
import tests.de_oracle as oracle
from tests.de_oracle import reference_de_minimize


def test_quadratic_reference_run():
    # f(x) = x^2 on [-1, 1], Np = 30, 200 generations
    config = DEConfig(
        np_size=30,
        seed=0,
        termination=TerminationCriteria(max_generations=200),
    )
    result = de_minimize(lambda x: float(x[0] ** 2), Bounds.box(-1, 1, 1), config)
    assert abs(result.best_vector[0]) < 1e-3
    assert result.generations == 200
    assert result.evaluations == 30 * 201


def test_constant_objective():
    config = DEConfig(
        np_size=10, seed=1, termination=TerminationCriteria(max_generations=5)
    )
    result = de_minimize(lambda x: 4.25, Bounds.box(0, 1, 3), config)
    assert result.best_fitness == 4.25


def test_non_finite_maps_to_inf():
    def objective(x):
        return np.nan if x[0] > 0 else float(x[0] ** 2)

    config = DEConfig(
        np_size=12, seed=2, termination=TerminationCriteria(max_generations=40)
    )
    result = de_minimize(objective, Bounds.box(-1, 1, 1), config)
    assert np.isfinite(result.best_fitness)
    assert result.best_vector[0] <= 0


def test_objective_exception_aborts_with_partial_trace():
    calls = {"n": 0}

    def objective(x):
        calls["n"] += 1
        if calls["n"] > 25:
            raise RuntimeError("boom")
        return float(np.sum(x**2))

    config = DEConfig(
        np_size=10, seed=3, termination=TerminationCriteria(max_generations=50)
    )
    with pytest.raises(ObjectiveError) as excinfo:
        de_minimize(objective, Bounds.box(-1, 1, 2), config)
    partial = excinfo.value.partial
    assert partial.stop_reason == "aborted"
    assert partial.evaluations == 30  # the initial population, one generation, the failed block
    assert len(partial.trace.events) >= 1


def test_partial_result_is_the_run_so_far():
    def failing_after(n):
        calls = {"n": 0}

        def objective(x):
            calls["n"] += 1
            if calls["n"] > n:
                raise RuntimeError("boom")
            return float(np.sum(x**2))

        return objective

    config = DEConfig(np_size=10, seed=3, termination=TerminationCriteria(max_generations=50))
    bounds = Bounds.box(-1, 1, 2)
    one_generation = replace(config, termination=TerminationCriteria(max_generations=1))
    done = de_minimize(failing_after(10**9), bounds, one_generation)
    with pytest.raises(ObjectiveError) as excinfo:
        de_minimize(failing_after(25), bounds, config)
    partial = excinfo.value.partial
    assert partial.best_vector.tobytes() == done.best_vector.tobytes()
    assert (partial.best_fitness, partial.generations, partial.trace.events) == (
        done.best_fitness, done.generations, done.trace.events)
    # an abort inside the initial population: no generation completed
    with pytest.raises(ObjectiveError) as excinfo:
        de_minimize(failing_after(3), bounds, config)
    partial = excinfo.value.partial
    assert (partial.best_fitness, partial.generations, partial.evaluations) == (np.inf, 0, 10)
    assert partial.trace.events == []


def test_best_so_far_monotone_and_counts_exact():
    calls = {"n": 0}

    def objective(x):
        calls["n"] += 1
        return float(np.sum(np.asarray(x) ** 2))

    config = DEConfig(
        np_size=16,
        seed=4,
        strategy="best1",
        termination=TerminationCriteria(max_generations=30),
    )
    result = de_minimize(objective, Bounds.box(-3, 3, 3), config)
    assert result.evaluations == calls["n"]
    best_series = [ev.e_sa for ev in result.trace.events]
    assert all(b <= a + 1e-15 for a, b in zip(best_series, best_series[1:]))
    cum = [ev.cum_evals for ev in result.trace.events]
    assert cum == sorted(cum)


def test_identical_seed_config_bitwise_identical():
    config = DEConfig(
        np_size=14,
        seed=123,
        strategy="current_to_pbest1",
        crossover="exponential",
        termination=TerminationCriteria(max_generations=25),
    )
    r1 = de_minimize(sphere, Bounds.box(-5, 5, 4), config)
    r2 = de_minimize(sphere, Bounds.box(-5, 5, 4), config)
    assert r1.best_vector.tobytes() == r2.best_vector.tobytes()
    assert r1.best_fitness == r2.best_fitness
    assert r1.evaluations == r2.evaluations
    assert [e.e_sa for e in r1.trace.events] == [e.e_sa for e in r2.trace.events]


@pytest.mark.parametrize("strategy", ["rand1", "rand2", "best1", "best2",
                                      "current_to_rand1", "current_to_best1",
                                      "current_to_pbest1", "rand_to_best1"])
@pytest.mark.parametrize("crossover", ["binomial", "exponential"])
def test_every_variant_improves_sphere(strategy, crossover):
    config = DEConfig(
        np_size=20,
        seed=7,
        strategy=strategy,
        crossover=crossover,
        termination=TerminationCriteria(max_generations=60),
    )
    result = de_minimize(sphere, Bounds.box(-5, 5, 3), config)
    start = result.trace.events[0].e_sa
    assert result.best_fitness < start
    assert result.best_fitness < 1.0


@pytest.mark.parametrize("boundary", ["clamp", "toroidal", "reinit"])
def test_members_respect_bounds_every_generation(boundary):
    seen = []

    def objective(x):
        seen.append(np.array(x))
        return float(np.sum(x**2))

    config = DEConfig(
        np_size=10,
        seed=8,
        boundary=boundary,
        termination=TerminationCriteria(max_generations=20),
    )
    bounds = Bounds.box(-0.5, 0.5, 2)
    de_minimize(objective, bounds, config)
    assert len(seen) == 10 * 21
    for x in seen:
        assert bounds.contains(x)


def test_stop_reason_max_evals_exact_budget():
    config = DEConfig(
        np_size=20, seed=9, termination=TerminationCriteria(max_evals=200)
    )
    result = de_minimize(sphere, Bounds.box(-5, 5, 5), config)
    assert result.stop_reason == "max_evals"
    assert result.evaluations == 200


def test_trace_is_the_per_generation_history():
    seen = []  # (cum_evals, best fitness) after every generation, from the callback
    config = DEConfig(
        np_size=12, seed=4, termination=TerminationCriteria(max_evals=600)
    )
    result = de_minimize(
        sphere,
        Bounds.box(-5, 5, 3),
        config,
        callback=lambda pop, evals: seen.append((evals, float(np.min(pop.fitnesses)))),
    )
    assert len(seen) == result.generations + 1
    assert result.trace.events == [
        TraceEvent(cum_evals=evals, scope=SCOPE_STEP, macro_index=0, e_sa=f_best)
        for evals, f_best in seen
    ]


def shifted_sphere(x):
    """sum_j (x_j - 0.3)^2 by elementwise steps, so a row and a block of rows
    give the same bits."""
    value = 0.0
    for j in range(x.shape[-1]):
        d = x[..., j] - 0.3
        value = value + d * d
    return value


class Batched:
    """The batch protocol over a row-wise function: one call per block."""

    def __init__(self, fn):
        self.fn = fn
        self.points = 0
        self.blocks = []

    def __call__(self, x):
        self.points += 1
        return float(self.fn(np.asarray(x)))

    def batch(self, xs):
        self.points += len(xs)
        self.blocks.append(len(xs))
        return self.fn(np.asarray(xs))


def assert_same_result(a, b):
    assert np.array_equal(a.best_vector, b.best_vector)
    assert a.best_fitness == b.best_fitness
    assert (a.evaluations, a.generations, a.stop_reason) == (
        b.evaluations, b.generations, b.stop_reason
    )
    assert a.trace.events == b.trace.events


@pytest.mark.parametrize("boundary", ["clamp", "toroidal", "reinit"])
@pytest.mark.parametrize("crossover", ["binomial", "exponential"])
@pytest.mark.parametrize("strategy", ["rand1", "rand2", "best1", "best2",
                                      "current_to_rand1", "current_to_best1",
                                      "current_to_pbest1", "rand_to_best1"])
def test_batch_gives_the_point_by_point_run(strategy, crossover, boundary):
    config = DEConfig(
        np_size=9,
        f=0.9,  # large steps, so donors often leave the box and get repaired
        seed=41,
        strategy=strategy,
        crossover=crossover,
        boundary=boundary,
        termination=TerminationCriteria(max_generations=12, abs_tol=(1e-3, 3)),
    )
    bounds = Bounds.box(-1.0, 1.0, 3)
    batched, plain = Batched(shifted_sphere), Batched(shifted_sphere)
    seen = {"batched": [], "plain": []}

    def watcher(key):
        return lambda pop, evals: seen[key].append((pop.members.copy(), evals))

    a = de_minimize(batched, bounds, config, callback=watcher("batched"))
    b = de_minimize(lambda x: plain(x), bounds, config, callback=watcher("plain"))
    assert_same_result(a, b)
    assert len(seen["batched"]) == len(seen["plain"]) == a.generations + 1
    for (pa, ea), (pb, eb) in zip(seen["batched"], seen["plain"]):
        assert ea == eb and np.array_equal(pa, pb)
    assert batched.blocks == [9] * (a.generations + 1)  # one block per generation
    assert batched.points == plain.points == a.evaluations


def test_batch_non_finite_values_become_inf():
    def half_nan(x):
        value = shifted_sphere(x)
        return np.where(x[..., 0] > 0.0, np.nan, np.where(x[..., 1] > 0.8, -np.inf, value))

    config = DEConfig(np_size=12, seed=2, termination=TerminationCriteria(max_generations=20))
    bounds = Bounds.box(-1.0, 1.0, 2)
    fitnesses = []
    batched = Batched(half_nan)
    a = de_minimize(batched, bounds, config,
                    callback=lambda pop, _evals: fitnesses.append(pop.fitnesses.copy()))
    b = de_minimize(lambda x: float(half_nan(np.asarray(x))), bounds, config)
    assert_same_result(a, b)
    assert np.isinf(fitnesses[0]).any() and (fitnesses[0] > 0).all()
    assert np.isfinite(a.best_fitness) and a.best_vector[0] <= 0.0


def test_batch_exception_aborts_with_whole_block_counted():
    class Failing(Batched):
        def batch(self, xs):
            if self.blocks:
                raise RuntimeError("boom")
            return super().batch(xs)

    config = DEConfig(np_size=10, seed=3, termination=TerminationCriteria(max_generations=50))
    with pytest.raises(ObjectiveError) as excinfo:
        de_minimize(Failing(shifted_sphere), Bounds.box(-1, 1, 2), config)
    partial = excinfo.value.partial
    assert partial.stop_reason == "aborted"
    assert partial.evaluations == 20  # the initial population and the failed block
    assert partial.generations == 0
    assert isinstance(excinfo.value.__cause__, RuntimeError)


def test_sa_vqe_objective_batch_gives_the_point_by_point_run(h2_integrals):
    from devqe.ansatz import default_ansatz
    from devqe.savqe import Sector, _CountedObjective

    sector = Sector.build(h2_integrals, default_ansatz(2, 2))
    batched, plain = _CountedObjective(sector, (0.5, 0.5)), _CountedObjective(sector, (0.5, 0.5))
    config = DEConfig(seed=6, strategy="best2", termination=TerminationCriteria(max_evals=450))
    bounds = Bounds.box(-np.pi, np.pi, 2)
    a = de_minimize(batched, bounds, config)
    b = de_minimize(lambda x: plain(x), bounds, config)
    assert_same_result(a, b)
    assert batched.calls == plain.calls == a.evaluations == 450


# ---------------------------------------------------------------------------
# The run oracle: whole runs against the per-member loop of tests/de_oracle.py,
# which draws from a real Generator one member at a time.


def coarse_sphere(x):
    """shifted_sphere on a grid of 1/4: many equal fitnesses."""
    return np.floor(4.0 * shifted_sphere(x)) / 4.0


def assert_matches_reference(objective, bounds, config):
    seen = {"block": [], "reference": []}

    def watcher(key):
        return lambda pop, evals: seen[key].append(
            (pop.members.copy(), pop.fitnesses.copy(), evals))

    result = de_minimize(objective, bounds, config, callback=watcher("block"))
    best_vector, best_fitness, evals, generations, stop_reason, history = reference_de_minimize(
        objective, bounds, config, watcher("reference"))
    assert result.best_vector.tobytes() == best_vector.tobytes()
    assert result.best_fitness == best_fitness
    assert (result.evaluations, result.generations, result.stop_reason) == (
        evals, generations, stop_reason)
    assert [(e.cum_evals, e.e_sa) for e in result.trace.events] == [
        (rec.cum_evals, rec.f_best) for rec in history]
    assert len(seen["block"]) == len(seen["reference"])
    for (ma, fa, ea), (mb, fb, eb) in zip(seen["block"], seen["reference"]):
        assert ea == eb
        assert ma.tobytes() == mb.tobytes() and fa.tobytes() == fb.tobytes()


@pytest.mark.parametrize("boundary", ["clamp", "toroidal", "reinit"])
@pytest.mark.parametrize("crossover", ["binomial", "exponential"])
@pytest.mark.parametrize("strategy", ["rand1", "rand2", "best1", "best2",
                                      "current_to_rand1", "current_to_best1",
                                      "current_to_pbest1", "rand_to_best1"])
def test_block_generations_match_the_per_member_loop(strategy, crossover, boundary):
    smallest = {"rand2": 6, "best2": 5}.get(strategy, 4)
    runs = 0
    for dim in (1, 2, 5):
        for cr in (0.0, 0.5, 1.0):
            # the smallest legal population (a p-best block of one, which has
            # to widen when the target is the best) and a default-sized one
            for np_size in (smallest, None):
                plain = runs % 2 == 0
                fn = coarse_sphere if cr == 0.5 else shifted_sphere
                config = DEConfig(
                    np_size=np_size,
                    f=0.9,  # large steps, so donors often leave the box and get repaired
                    cr=cr,
                    seed=100 + runs,
                    strategy=strategy,
                    crossover=crossover,
                    boundary=boundary,
                    termination=TerminationCriteria(max_generations=8, abs_tol=(1e-3, 4)),
                )
                objective = (lambda x, fn=fn: float(fn(x))) if plain else Batched(fn)
                assert_matches_reference(objective, Bounds.box(-1.0, 1.0, dim), config)
                runs += 1


@pytest.mark.parametrize("crossover", ["binomial", "exponential"])
def test_p_best_ties_follow_the_stable_order(crossover):
    # many equal fitnesses in a population larger than a small-array sort
    config = DEConfig(np_size=40, f=0.7, p_best_fraction=0.4, seed=5, crossover=crossover,
                      strategy="current_to_pbest1",
                      termination=TerminationCriteria(max_generations=15))
    assert_matches_reference(Batched(coarse_sphere), Bounds.box(-1.0, 1.0, 3), config)


def reinit_redraws(bounds, config, monkeypatch):
    """(generation, member) of every trial the oracle's run repairs by reinit,
    on shifted_sphere."""
    real, leaves = oracle.handle_bounds, []

    def watched(vector, box, mode, rng=None):  # called once per member, in order
        leaves.append(bool(((vector < box.lower) | (vector > box.upper)).any()))
        return real(vector, box, mode, rng)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "handle_bounds", watched)
        oracle.reference_de_minimize(
            lambda x: float(shifted_sphere(x)), bounds, config, lambda pop, evals: None)
    n = config.population_size(bounds.dim)
    return [(k // n + 1, k % n) for k, out in enumerate(leaves) if out]


def reinit_case(dim, np_size, f, cr, strategy, seed, generations):
    config = DEConfig(np_size=np_size, f=f, cr=cr, seed=seed, strategy=strategy,
                      boundary="reinit",
                      termination=TerminationCriteria(max_generations=generations))
    return Bounds.box(-1.0, 1.0, dim), config


# (dim, np, F, Cr, strategy, seed, generations) of a reinit run, and the
# redraws it makes; each redraw rewinds to its member's draws and redoes the
# rest of the pass
NO_REDRAW = (3, 8, 0.3, 0.5, "current_to_best1", 1, 6)
REDO_CASES = {
    "first_member_only": ((3, 8, 0.3, 0.5, "current_to_best1", 9, 6), [(1, 0)]),
    "last_member_only": ((3, 8, 0.5, 0.5, "rand1", 6, 4), [(1, 7)]),
    # Cr = 1 takes all 12 components from the donor, so most trials leave
    "every_member": ((12, 10, 0.9, 1.0, "rand1", 4, 4),
                     [(g, m) for g in range(1, 5) for m in range(10)]),
    "none": (NO_REDRAW, []),
}


@pytest.mark.parametrize("name", list(REDO_CASES))
def test_reinit_redo_matches_the_per_member_loop(name, monkeypatch):
    settings, expected = REDO_CASES[name]
    bounds, config = reinit_case(*settings)
    assert reinit_redraws(bounds, config, monkeypatch) == expected
    assert_matches_reference(Batched(shifted_sphere), bounds, config)


def test_reinit_without_redraws_is_the_clamp_run(monkeypatch):
    # holds only if reinit makes no draw of its own while no trial leaves the box
    bounds, config = reinit_case(*NO_REDRAW)
    assert reinit_redraws(bounds, config, monkeypatch) == []
    seen = {"reinit": [], "clamp": []}
    results = {}
    for boundary in seen:
        results[boundary] = de_minimize(
            Batched(shifted_sphere), bounds, replace(config, boundary=boundary),
            callback=lambda pop, evals, key=boundary: seen[key].append(
                (pop.members.tobytes(), pop.fitnesses.tobytes(), evals)))
    assert_same_result(results["reinit"], results["clamp"])
    assert seen["reinit"] == seen["clamp"]


def noting_landings(landings):
    """_PhiloxDraws that notes in `landings` where each read-ahead lands:
    "inside" when words of the current member are still unread, "between"
    when none are."""

    class Noting(_PhiloxDraws):
        def _refill(self, count):
            landings.add("inside" if self._pos < len(self._values) else "between")
            super()._refill(count)

    return Noting


@pytest.mark.parametrize("boundary", ["clamp", "toroidal", "reinit"])
@pytest.mark.parametrize("crossover", ["binomial", "exponential"])
def test_short_read_ahead_matches_the_per_member_loop(crossover, boundary, monkeypatch):
    # de_minimize builds its draws with the default chunk, which is bound when
    # __init__ is defined, so the class itself is swapped for one with 3-word
    # read-aheads: the pass then runs out of words every member or two
    landings = set()
    monkeypatch.setattr(de, "_PhiloxDraws", partial(noting_landings(landings), chunk=3))
    runs = 0
    for strategy in ("rand2", "current_to_pbest1"):
        for dim in (1, 4):
            config = DEConfig(np_size=7, f=0.9, cr=0.6, p_best_fraction=0.4, seed=300 + runs,
                              strategy=strategy, crossover=crossover, boundary=boundary,
                              termination=TerminationCriteria(max_generations=6))
            assert_matches_reference(Batched(shifted_sphere), Bounds.box(-1.0, 1.0, dim), config)
            runs += 1
    assert landings == {"inside", "between"}


@st.composite
def de_runs(draw):
    """A DE configuration, a dimension and a read-ahead (None: the default)."""
    strategy = draw(st.sampled_from(STRATEGIES))
    config = DEConfig(
        np_size=draw(st.integers(_smallest_population(strategy), 25)),
        f=draw(st.sampled_from([0.5, 0.9])),
        cr=draw(st.sampled_from([0.0, 0.3, 0.9, 1.0])),
        p_best_fraction=draw(st.sampled_from([0.11, 0.4])),
        seed=draw(st.integers(0, 2**32 - 1)),
        strategy=strategy,
        crossover=draw(st.sampled_from(CROSSOVERS)),
        boundary=draw(st.sampled_from(BOUNDARY_MODES)),
        termination=TerminationCriteria(max_generations=draw(st.integers(1, 5))),
    )
    return config, draw(st.integers(1, 6)), draw(st.sampled_from([None, 3]))


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=de_runs())
def test_any_run_is_the_per_member_run(run, monkeypatch):
    # the block run against the per-member oracle over the whole space of
    # settings, population sizes from each strategy's smallest, D from 1 to 6
    config, dim, chunk = run
    with monkeypatch.context() as patch:
        if chunk is not None:
            patch.setattr(de, "_PhiloxDraws", partial(_PhiloxDraws, chunk=chunk))
        assert_matches_reference(Batched(shifted_sphere), Bounds.box(-1.0, 1.0, dim), config)


@pytest.mark.parametrize("f", [np.nan, np.inf, -np.inf, 0.0])
def test_scale_factor_must_be_positive_and_finite(f):
    with pytest.raises(ConfigurationError):
        DEConfig(f=f)


def test_too_small_population_rejected_before_any_evaluation():
    calls = {"n": 0}

    def objective(x):
        calls["n"] += 1
        return 0.0

    for strategy, np_size in (("rand2", 4), ("rand2", 5), ("best2", 4)):
        with pytest.raises(ConfigurationError, match="too small"):
            config = DEConfig(np_size=np_size, strategy=strategy,
                              termination=TerminationCriteria(max_generations=3))
            de_minimize(objective, Bounds.box(-1, 1, 2), config)
    assert calls["n"] == 0
    config = DEConfig(np_size=6, strategy="rand2",
                      termination=TerminationCriteria(max_generations=3))
    assert de_minimize(objective, Bounds.box(-1, 1, 2), config).evaluations == 24
    with pytest.raises(FrozenInstanceError):  # a checked config stays checked
        config.np_size = 4


def test_toroidal_rejects_infinite_widths_before_any_evaluation():
    calls = {"n": 0}

    def objective(x):
        calls["n"] += 1
        return float(np.sum(x**2))

    config = DEConfig(np_size=8, f=0.9, seed=3, boundary="toroidal",
                      termination=TerminationCriteria(max_generations=20))
    for bounds in (Bounds.unbounded(2), Bounds([-np.inf, 0.0], [np.inf, 1.0])):
        with pytest.raises(ConfigurationError, match="toroidal"):
            de_minimize(objective, bounds, config)
    assert calls["n"] == 0
    with np.errstate(over="ignore"):  # differences of extreme members overflow; clamp repairs them
        result = de_minimize(objective, Bounds.unbounded(2), replace(config, boundary="clamp"))
    assert result.stop_reason == "max_generations"


def test_reinit_rejects_infinite_widths_before_any_evaluation():
    # reinit redraws an out-of-box component as random() * width + lower,
    # which is inf on an unbounded component and later gives NaN donors
    calls = {"n": 0}

    def objective(x):
        calls["n"] += 1
        return float(np.sum(x**2))

    config = DEConfig(np_size=8, f=0.9, seed=3, boundary="reinit",
                      termination=TerminationCriteria(max_generations=20))
    with pytest.raises(ConfigurationError,
                       match="boundary mode 'reinit' needs finite bound widths"):
        de_minimize(objective, Bounds.unbounded(2), config)
    assert calls["n"] == 0


def test_toroidal_zero_width_component():
    # in a run a zero-width component never leaves its box: every member
    # starts on the bound and every difference of members is exactly 0 there
    seen = []

    def objective(x):
        seen.append(float(x[1]))
        return float(np.sum(x**2))

    bounds = Bounds([-1.0, 2.0], [1.0, 2.0])
    config = DEConfig(np_size=8, f=0.9, seed=3, boundary="toroidal",
                      termination=TerminationCriteria(max_generations=10))
    assert de_minimize(objective, bounds, config).stop_reason == "max_generations"
    assert set(seen) == {2.0}

    def push_out(pop, _evals):  # the callback gets the live population
        pop.members[:, 1] = 3.0

    with pytest.raises(DegenerateRangeError, match="component 1"):
        de_minimize(objective, bounds, config, callback=push_out)


# ---------------------------------------------------------------------------
# The draw oracle: the raw-word replay against the Generator it replaces.


@pytest.mark.parametrize("chunk", [1024, 5])  # 5: blocks of up to 8 words outgrow a read-ahead
@pytest.mark.parametrize("start", ["fresh", "after_init", "half_pending"])
def test_draw_replay_matches_the_generator(start, chunk):
    def stream():
        rng = make_rng(77)
        if start == "after_init":
            initialize_population(Bounds.box(-1.0, 1.0, 3), 7, rng)
        if start == "half_pending":  # the high half of a word waits in has_uint32
            rng.integers(9)
        return rng

    def handed_back(n):
        # integers(n) as the inline pass of _generation_trials makes it on a
        # Lemire rejection: read a 32-bit value, give it back, redo the draw
        m = draws._uint32() * n
        r, draws._pos, draws._half = draws.redo_integers(draws._pos, draws._half, m, n)
        return r

    generator, draws = stream(), _PhiloxDraws(stream(), chunk)
    choose = np.random.default_rng(2024)
    sizes = [1, 2, 3, 5, 7, 20, 1000, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1]
    taken = []
    for step in range(120_000):
        kind = choose.integers(8)
        if kind < 4:
            n = sizes[choose.integers(len(sizes))] if kind else int(
                choose.integers(2**31 - 100, 2**31 + 100))
            drawn = handed_back(n) if step % 3 == 0 else draws.integers(n)
            assert drawn == generator.integers(n)
        elif kind < 7:  # one word, as the exponential window reads it
            assert draws.uniforms(draws.take(1), 1)[0] == generator.random()
        else:
            count = int(choose.integers(1, 9))
            taken.append((draws.take(count), generator.random(count)))
        if step % 50 == 1:
            # just after a mark, rewind over a read-ahead (which re-bases the
            # words on the mark) and a pending half, as a reinit redo does;
            # the state is what the pass records: position from the mark, half
            saved = draws.take(0), draws._half
            generator_saved = generator.bit_generator.state
            draws.take(12), generator.random(12)
            assert draws.integers(9) == generator.integers(9)
            draws.restore(saved)
            generator.bit_generator.state = generator_saved
        if step % 50 == 0:  # a generation ends: check its blocks, start the next
            for start, expected in taken:
                assert draws.uniforms(start, len(expected)).tobytes() == expected.tobytes()
                block = draws.uniforms(np.array([start, start]), len(expected))
                assert block.tobytes() == np.stack([expected, expected]).tobytes()
            taken.clear()
            draws.mark()


class ScriptedWords:
    """A bit generator stand-in: the raw words the test chose, then the words
    of a Philox stream."""

    def __init__(self, chosen):
        self.state = {"has_uint32": 0, "uinteger": 0}
        self.chosen = list(chosen)
        self.rest = np.random.Philox(5)

    def random_raw(self, size):
        head, self.chosen = self.chosen[:size], self.chosen[size:]
        tail = self.rest.random_raw(size - len(head))
        return np.concatenate((np.array(head, dtype=np.uint64), tail))


class ScalarDraws:
    """The Generator calls of the per-member oracle, made on the scalar
    _PhiloxDraws methods that the draw oracle pins to the Generator."""

    def __init__(self, draws):
        self.draws = draws

    def integers(self, n):
        return self.draws.integers(n)

    def random(self, size=None):
        count = 1 if size is None else size
        values = self.draws.uniforms(self.draws.take(count), count)
        return values[0] if size is None else values.copy()


def word(low, high):
    return high << 32 | low


# np = 7, D = 3.  numpy's rejection threshold (2**32 - n) % n is 4 for n = 7:
# REJECTED_7 * 7 = 1 (mod 2**32) is redrawn (its draw would be 5), KEPT_7 * 7
# = 4 lies in Lemire's zone but is kept (draw 6).  For n = 3 the threshold is
# 1, so a 0 is redrawn.
REJECTED_7, KEPT_7 = 3067833783, 3681400540
COLLISIONS = [word(1, 1)] * _RAW_CHUNK  # draws of 0, member 0's target, past a read-ahead
# the last pick leaves a 0 pending for j_rand, which both crossovers draw next
# (random(D) leaves the pending half alone); the redraws read on
LAST_PICK = [word(0x70000000, 0)] + [word(0, 0x90000000)] * 4
SCRIPTED = {
    # picks 1 (after two rejections), 6 (kept in the zone), 3
    "rand1": [word(0, REJECTED_7), word(0x40000000, KEPT_7)] + COLLISIONS + LAST_PICK,
    # p-best from candidates [1, 5, 3]: a rejected 0, then 1 (member 5); picks
    # 1 (after two rejections), then 3
    "current_to_pbest1": [word(0, 0x80000000), word(0, REJECTED_7), word(0x40000000, 1)]
    + COLLISIONS + LAST_PICK,
}


@pytest.mark.parametrize("boundary", ["clamp", "reinit"])
@pytest.mark.parametrize("crossover", ["binomial", "exponential"])
@pytest.mark.parametrize("strategy", ["rand1", "current_to_pbest1"])
def test_rejections_and_read_ahead_inside_the_pass(strategy, crossover, boundary):
    redone, landings = [], set()

    class Watched(noting_landings(landings)):
        def redo_integers(self, pos, half, m, n):
            redone.append(n)
            return super().redo_integers(pos, half, m, n)

    members = np.random.default_rng(8).uniform(-1.0, 1.0, (7, 3))
    pop = Population(0, members, np.array([0.3, 0.1, 0.4, 0.2, 0.5, 0.1, 0.6]))
    bounds = Bounds.box(-1.0, 1.0, 3)
    config = DEConfig(f=0.9, cr=0.5, p_best_fraction=0.6, strategy=strategy,
                      crossover=crossover, boundary=boundary)

    class Stub:
        def __init__(self):
            self.bit_generator = ScriptedWords(SCRIPTED[strategy])

    draws, scalar = Watched(Stub()), _PhiloxDraws(Stub())
    trials = _generation_trials(pop, bounds, config, draws)

    rng = ScalarDraws(scalar)
    cross = {"binomial": oracle.crossover_binomial,
             "exponential": oracle.crossover_exponential}[crossover]
    expected = np.empty_like(members)
    for i in range(7):
        donor = oracle.mutate(strategy, pop, i, config.f, config.p_best_fraction, rng)
        trial = cross(members[i], donor, config.cr, rng)
        expected[i] = oracle.handle_bounds(trial, bounds, boundary, rng)
    assert trials.tobytes() == expected.tobytes()
    # the pass leaves the draws where the oracle's calls left them
    assert [draws.integers(2**31 + 1) for _ in range(3)] == [
        scalar.integers(2**31 + 1) for _ in range(3)]
    # all three rare paths were taken: a rejection for n, a rejection for D,
    # and a read-ahead used up inside member 0 by its collisions
    assert 7 in redone and 3 in redone
    assert "inside" in landings
