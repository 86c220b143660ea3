"""Unit tests for the DE building blocks: bounds, initialization and
selection from devqe.de, and the per-member operators of the test oracle."""

import numpy as np
import pytest

from devqe.de import (
    BOUNDARY_MODES,
    Bounds,
    BoundsError,
    ConfigurationError,
    DegenerateRangeError,
    Population,
    initialize_population,
    make_rng,
    select,
)
from tests.de_oracle import (
    _draw_distinct,
    crossover_binomial,
    crossover_exponential,
    handle_bounds,
    mutate,
)


def make_population(members, fitnesses=None, generation=0):
    members = np.asarray(members, dtype=float)
    if fitnesses is None:
        fitnesses = np.zeros(len(members))
    return Population(generation, members, np.asarray(fitnesses, dtype=float))


class TestBounds:
    def test_lower_above_upper_rejected(self):
        with pytest.raises(BoundsError):
            Bounds([0.0, 2.0], [1.0, 1.0])

    @pytest.mark.parametrize("lower, upper", [([np.nan, 0.0], [1.0, 1.0]),
                                              ([0.0, 0.0], [1.0, np.nan])])
    def test_nan_bound_rejected(self, lower, upper):
        with pytest.raises(BoundsError):
            Bounds(lower, upper)

    def test_unbounded_uses_extreme_finite_floats(self):
        bounds = Bounds.unbounded(3)
        assert np.all(np.isfinite(bounds.lower))
        assert np.all(bounds.upper == np.finfo(float).max)


class TestInitialize:
    def test_uniform_containment(self):
        bounds = Bounds.box(0.0, 1.0, 2)
        pop = initialize_population(bounds, 5, make_rng(0))
        assert pop.members.shape == (5, 2)
        assert np.all(pop.members >= 0.0) and np.all(pop.members < 1.0)
        assert pop.generation == 0
        assert np.all(np.isnan(pop.fitnesses))

    def test_zero_width_interval(self):
        bounds = Bounds([3.0, 3.0], [3.0, 3.0])
        pop = initialize_population(bounds, 6, make_rng(1))
        assert np.all(pop.members == 3.0)

    def test_same_seed_bitwise_identical(self):
        bounds = Bounds.box(-2.0, 2.0, 4)
        a = initialize_population(bounds, 8, make_rng(7))
        b = initialize_population(bounds, 8, make_rng(7))
        assert a.members.tobytes() == b.members.tobytes()

    def test_extreme_default_bounds_stay_finite(self):
        pop = initialize_population(Bounds.unbounded(3), 5, make_rng(2))
        assert np.all(np.isfinite(pop.members))

    def test_too_small_population_rejected(self):
        with pytest.raises(ConfigurationError):
            initialize_population(Bounds.box(0, 1, 2), 3, make_rng(0))


class TestMutate:
    def test_rand1_f_zero_returns_base(self):
        pop = make_population(np.arange(12.0).reshape(6, 2))
        donor = mutate("rand1", pop, 0, 0.0, rng=make_rng(0))
        assert any(np.array_equal(donor, m) for m in pop.members[1:])

    def test_rand1_direct_substitution(self):
        # target index 3 forces the triple onto rows {0, 1, 2}; every donor must
        # match the formula for one of the six permutations, and the assignment
        # r0=(1,1), r1=(2,0), r2=(0,2) with F=0.5 must yield (2, 0)
        pop = make_population([[1.0, 1.0], [2.0, 0.0], [0.0, 2.0], [9.0, 9.0]])
        rng = make_rng(0)
        expected = {
            (r0, r1, r2): pop.members[r0] + 0.5 * (pop.members[r1] - pop.members[r2])
            for r0 in range(3)
            for r1 in range(3)
            for r2 in range(3)
            if len({r0, r1, r2}) == 3
        }
        seen = set()
        for _ in range(200):
            donor = mutate("rand1", pop, 3, 0.5, rng=rng)
            matches = [k for k, v in expected.items() if np.allclose(donor, v)]
            assert matches
            seen.update(matches)
        assert any(np.allclose(expected[key], [2.0, 0.0]) for key in seen)

    def test_current_to_best_vanishing_differences(self):
        members = np.array([[1.5, -0.5]] * 5)
        pop = make_population(members, fitnesses=[0.0, 1, 2, 3, 4])
        donor = mutate("current_to_best1", pop, 2, 0.7, rng=make_rng(4))
        assert np.allclose(donor, members[2])

    def test_population_not_modified(self):
        members = np.arange(10.0).reshape(5, 2)
        pop = make_population(members.copy(), fitnesses=np.arange(5.0))
        before = pop.members.copy()
        for strategy in (
            "rand1",
            "best1",
            "current_to_rand1",
            "current_to_best1",
            "current_to_pbest1",
            "rand_to_best1",
        ):
            mutate(strategy, pop, 1, 0.5, rng=make_rng(0))
        assert np.array_equal(pop.members, before)

    def test_drawn_indices_distinct_and_exclude_target(self):
        rng = make_rng(5)
        for _ in range(500):
            ids = _draw_distinct(rng, 6, 3, [2])
            assert len(set(ids)) == 3
            assert 2 not in ids
            assert all(0 <= r < 6 for r in ids)

    def test_pbest_index_excluded_from_differences(self):
        # F = 0 for current_to_pbest1 collapses the donor onto x_i exactly when
        # the pbest and difference terms are scaled away; the draw itself must
        # not raise for the minimum legal population of 4
        pop = make_population(np.arange(8.0).reshape(4, 2), fitnesses=[3, 2, 1, 0])
        rng = make_rng(6)
        for i in range(4):
            donor = mutate("current_to_pbest1", pop, i, 0.0, 0.5, rng)
            assert np.allclose(donor, pop.members[i])

    def test_too_small_population_for_rand2(self):
        pop = make_population(np.zeros((5, 2)))
        with pytest.raises(ConfigurationError):
            mutate("rand2", pop, 0, 0.5, rng=make_rng(0))


class TestBinomialCrossover:
    def test_cr_one_copies_donor(self):
        rng = make_rng(0)
        target = np.zeros(6)
        donor = np.arange(6.0)
        trial = crossover_binomial(target, donor, 1.0, rng)
        assert np.array_equal(trial, donor)

    def test_cr_zero_single_donor_component(self):
        rng = make_rng(1)
        target = np.zeros(8)
        donor = np.ones(8)
        for _ in range(50):
            trial = crossover_binomial(target, donor, 0.0, rng)
            assert trial.sum() == 1.0  # exactly one forced component

    def test_dimension_one_always_donor(self):
        rng = make_rng(2)
        for cr in (0.0, 0.3, 1.0):
            trial = crossover_binomial(np.array([5.0]), np.array([-1.0]), cr, rng)
            assert trial[0] == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            crossover_binomial(np.zeros(3), np.zeros(4), 0.5, make_rng(0))


class TestExponentialCrossover:
    def test_cr_zero_single_component(self):
        rng = make_rng(0)
        target = np.zeros(4)
        donor = np.ones(4)
        for _ in range(50):
            trial = crossover_exponential(target, donor, 0.0, rng)
            assert trial.sum() == 1.0

    def test_full_window_copies_donor(self):
        rng = make_rng(1)
        trial = crossover_exponential(np.zeros(5), np.ones(5), 1.0, rng)
        assert np.array_equal(trial, np.ones(5))

    def test_window_is_contiguous_mod_d(self):
        rng = make_rng(2)
        dim = 9
        target = np.zeros(dim)
        donor = np.ones(dim)
        for _ in range(300):
            trial = crossover_exponential(target, donor, 0.6, rng)
            ones = np.flatnonzero(trial == 1.0)
            length = ones.size
            assert length >= 1
            # contiguity on the ring: some rotation makes the indices consecutive
            ok = False
            for start in ones:
                window = {(start + k) % dim for k in range(length)}
                if window == set(ones.tolist()):
                    ok = True
                    break
            assert ok

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            crossover_exponential(np.zeros(3), np.zeros(2), 0.5, make_rng(0))


class TestHandleBounds:
    def test_clamp(self):
        bounds = Bounds.box(0.0, 1.0, 1)
        assert handle_bounds(np.array([1.5]), bounds, "clamp")[0] == 1.0
        assert handle_bounds(np.array([-0.2]), bounds, "clamp")[0] == 0.0

    def test_toroidal_overflow(self):
        bounds = Bounds.box(0.0, 1.0, 1)
        out = handle_bounds(np.array([1.3]), bounds, "toroidal")
        assert abs(out[0] - 0.3) < 1e-12

    def test_toroidal_underflow(self):
        bounds = Bounds.box(0.0, 1.0, 1)
        out = handle_bounds(np.array([-0.25]), bounds, "toroidal")
        assert abs(out[0] - 0.75) < 1e-12

    def test_toroidal_degenerate_range(self):
        bounds = Bounds([2.0], [2.0])
        with pytest.raises(DegenerateRangeError):
            handle_bounds(np.array([3.0]), bounds, "toroidal")

    def test_degenerate_range_clamp_and_reinit_return_bound(self):
        bounds = Bounds([2.0], [2.0])
        assert handle_bounds(np.array([5.0]), bounds, "clamp")[0] == 2.0
        assert handle_bounds(np.array([5.0]), bounds, "reinit", make_rng(0))[0] == 2.0

    def test_reinit_only_resamples_violators(self):
        bounds = Bounds.box(0.0, 1.0, 2)
        out = handle_bounds(np.array([-0.2, 0.5]), bounds, "reinit", make_rng(3))
        assert 0.0 <= out[0] <= 1.0
        assert out[1] == 0.5

    def test_all_modes_land_in_closed_box(self):
        rng = make_rng(9)
        bounds = Bounds.box(-1.0, 2.0, 6)
        for mode in BOUNDARY_MODES:
            for _ in range(100):
                raw = rng.uniform(-10.0, 10.0, 6)
                out = handle_bounds(raw, bounds, mode, rng)
                assert bounds.contains(out)
                inside = (raw >= bounds.lower) & (raw <= bounds.upper)
                assert np.array_equal(out[inside], raw[inside])


class TestSelect:
    def test_tie_goes_to_trial(self):
        pop = make_population([[0.0], [1.0], [2.0], [3.0]], fitnesses=[5.0] * 4)
        trials = [[9.0], [8.0], [7.0], [6.0]]
        nxt = select(pop, trials, [5.0, 5.0, 5.0, 5.0])
        assert np.array_equal(nxt.members, trials)
        assert nxt.generation == 1

    def test_worse_trial_rejected(self):
        pop = make_population([[0.0], [1.0], [2.0], [3.0]], fitnesses=[1.0] * 4)
        nxt = select(pop, [[9.0], [8.0], [7.0], [6.0]], [2.0, 2.0, 0.5, 2.0])
        assert np.array_equal(nxt.members, [[0.0], [1.0], [7.0], [3.0]])

    def test_all_better_trials_replace_population(self):
        pop = make_population(
            [[0.0], [1.0], [2.0], [3.0]], fitnesses=[3.0, 3.0, 3.0, 3.0]
        )
        trials = [[5.0], [6.0], [7.0], [8.0]]
        nxt = select(pop, trials, [1.0, 2.0, 0.5, 2.9])
        assert np.array_equal(nxt.members, trials)

    def test_undersized_population_rejected(self):
        with pytest.raises(ConfigurationError):
            make_population([[0.0], [1.0]], fitnesses=[1.0, 2.0])
