"""The per-member DE operators and generation loop, kept as the test oracle.

`devqe.de.de_minimize` builds each generation's trials as one row block from
Philox words it reads itself.  This module is the chain it replaced, one
member at a time on a real `np.random.Generator`: `mutate` builds a donor,
`crossover_binomial` or `crossover_exponential` mixes it with the target, and
`handle_bounds` repairs the trial.  `reference_de_minimize` runs whole
generations this way, so tests can compare `de_minimize` with it bit for bit.
"""

import math

import numpy as np

from devqe.de import (
    Bounds,
    ConfigurationError,
    DegenerateRangeError,
    GenerationRecord,
    Population,
    initialize_population,
    make_rng,
    select,
    should_terminate,
)


def _draw_distinct(rng, n_pop: int, count: int, exclude) -> list:
    """`count` indices from [0, n_pop), distinct from each other and `exclude`."""
    if n_pop - len(set(exclude)) < count:
        raise ConfigurationError(
            f"population of {n_pop} too small to draw {count} distinct indices"
        )
    taken = set(exclude)
    out = []
    while len(out) < count:
        r = int(rng.integers(n_pop))
        if r in taken:
            continue
        taken.add(r)
        out.append(r)
    return out


def _p_best_index(pop: Population, p_best_fraction: float, rng, exclude=()) -> int:
    """Random member of the top p*100% block, never one of `exclude`; the block
    widens just enough when the excluded index is its only candidate."""
    k = max(1, int(round(p_best_fraction * pop.size)))
    order = np.argsort(pop.fitnesses, kind="stable")
    candidates = [int(i) for i in order[:k] if int(i) not in exclude]
    while not candidates and k < pop.size:
        k += 1
        candidates = [int(i) for i in order[:k] if int(i) not in exclude]
    if not candidates:
        raise ConfigurationError("population too small to draw a p-best index")
    return candidates[int(rng.integers(len(candidates)))]


def mutate(
    strategy: str,
    pop: Population,
    target_index: int,
    f: float,
    p_best_fraction: float = 0.11,
    rng=None,
) -> np.ndarray:
    """Build the donor vector for one target; the population is not modified."""
    rng = make_rng(0) if rng is None else rng
    x = pop.members
    i = target_index

    if strategy == "rand1":
        r0, r1, r2 = _draw_distinct(rng, pop.size, 3, [i])
        return x[r0] + f * (x[r1] - x[r2])
    if strategy == "rand2":
        r0, r1, r2, r3, r4 = _draw_distinct(rng, pop.size, 5, [i])
        return x[r0] + f * (x[r1] - x[r2]) + f * (x[r3] - x[r4])
    if strategy == "best1":
        best = pop.best_index()
        r1, r2 = _draw_distinct(rng, pop.size, 2, [i])
        return x[best] + f * (x[r1] - x[r2])
    if strategy == "best2":
        best = pop.best_index()
        r1, r2, r3, r4 = _draw_distinct(rng, pop.size, 4, [i])
        return x[best] + f * (x[r1] - x[r2]) + f * (x[r3] - x[r4])
    if strategy == "current_to_rand1":
        r1, r2 = _draw_distinct(rng, pop.size, 2, [i])
        return x[i] + f * (x[r1] - x[r2])
    if strategy == "current_to_best1":
        best = pop.best_index()
        r1, r2 = _draw_distinct(rng, pop.size, 2, [i])
        return x[i] + f * (x[best] - x[i]) + f * (x[r1] - x[r2])
    if strategy == "current_to_pbest1":
        pbest = _p_best_index(pop, p_best_fraction, rng, exclude=(i,))
        r1, r2 = _draw_distinct(rng, pop.size, 2, [i, pbest])
        return x[i] + f * (x[pbest] - x[i]) + f * (x[r1] - x[r2])
    if strategy == "rand_to_best1":
        best = pop.best_index()
        r1, r2, r3 = _draw_distinct(rng, pop.size, 3, [i])
        return x[r1] + f * (x[best] - x[r1]) + f * (x[r2] - x[r3])
    raise ConfigurationError(f"unknown strategy {strategy!r}")


def crossover_binomial(target, donor, cr: float, rng) -> np.ndarray:
    target = np.asarray(target, dtype=float)
    donor = np.asarray(donor, dtype=float)
    if target.shape != donor.shape:
        raise ValueError("target and donor dimensions differ")
    dim = target.size
    take = rng.random(dim) <= cr
    j_rand = int(rng.integers(dim))
    take[j_rand] = True  # at least one component always comes from the donor
    return np.where(take, donor, target)


def crossover_exponential(target, donor, cr: float, rng) -> np.ndarray:
    target = np.asarray(target, dtype=float)
    donor = np.asarray(donor, dtype=float)
    if target.shape != donor.shape:
        raise ValueError("target and donor dimensions differ")
    dim = target.size
    j_rand = int(rng.integers(dim))
    length = 1
    while length < dim and rng.random() <= cr:
        length += 1
    trial = target.copy()
    for k in range(length):
        j = (j_rand + k) % dim
        trial[j] = donor[j]
    return trial


def handle_bounds(vector, bounds: Bounds, strategy: str, rng=None) -> np.ndarray:
    """Repair out-of-box components; in-range components pass through unchanged."""
    v = np.array(vector, dtype=float)
    lo, hi = bounds.lower, bounds.upper
    if strategy == "clamp":
        return np.minimum(np.maximum(v, lo), hi)
    if strategy == "toroidal":
        width = hi - lo
        out = v.copy()
        for j in range(v.size):
            if v[j] < lo[j]:
                if width[j] == 0.0:
                    raise DegenerateRangeError(f"zero-width interval at component {j}")
                out[j] = hi[j] - math.fmod(lo[j] - v[j], width[j])
            elif v[j] > hi[j]:
                if width[j] == 0.0:
                    raise DegenerateRangeError(f"zero-width interval at component {j}")
                out[j] = lo[j] + math.fmod(v[j] - hi[j], width[j])
        return out
    if strategy == "reinit":
        rng = make_rng(0) if rng is None else rng
        out = v.copy()
        for j in range(v.size):
            if v[j] < lo[j] or v[j] > hi[j]:
                out[j] = rng.random() * (hi[j] - lo[j]) + lo[j]
        return out
    raise ConfigurationError(f"unknown boundary mode {strategy!r}")


def reference_de_minimize(objective, bounds, config, callback):
    """The DE loop one member at a time: every draw from a real Generator.

    Returns (best_vector, best_fitness, evaluations, generations, stop_reason,
    history) and calls `callback(population, cum_evals)` where `de_minimize`
    does.
    """
    np_size = config.population_size(bounds.dim)
    rng = make_rng(config.seed)
    evals = 0

    def evaluate_all(xs):
        nonlocal evals
        evals += len(xs)
        values = np.array([float(objective(np.asarray(x, dtype=float))) for x in xs])
        return np.where(np.isfinite(values), values, np.inf)

    history = []

    def record(pop):
        history.append(GenerationRecord(pop.generation, evals, float(np.min(pop.fitnesses)),
                                        float(np.max(pop.fitnesses))))
        callback(pop, evals)

    pop = initialize_population(bounds, np_size, rng)
    pop.fitnesses = evaluate_all(pop.members)
    record(pop)
    stop_reason = should_terminate(history, config.termination)
    while stop_reason is None:
        trials = np.empty_like(pop.members)
        for i in range(np_size):
            donor = mutate(config.strategy, pop, i, config.f, config.p_best_fraction, rng)
            if config.crossover == "binomial":
                trial = crossover_binomial(pop.members[i], donor, config.cr, rng)
            else:
                trial = crossover_exponential(pop.members[i], donor, config.cr, rng)
            trials[i] = handle_bounds(trial, bounds, config.boundary, rng)
        pop = select(pop, trials, evaluate_all(trials))
        record(pop)
        stop_reason = should_terminate(history, config.termination)
    best = pop.best_index()
    best_vector, best_fitness = pop.members[best], float(pop.fitnesses[best])
    return best_vector, best_fitness, evals, pop.generation, stop_reason, history
