"""Each stop criterion fires on a synthetic history built to trip exactly it."""

import numpy as np
import pytest

from devqe.de import (
    STOP_REASONS,
    ConfigurationError,
    GenerationRecord,
    TerminationCriteria,
    should_terminate,
)


def history(best, worst=None, evals_per_gen=10):
    worst = [b + 1.0 for b in best] if worst is None else worst
    return [
        GenerationRecord(
            generation=g,
            cum_evals=(g + 1) * evals_per_gen,
            f_best=b,
            f_worst=w,
        )
        for g, (b, w) in enumerate(zip(best, worst))
    ]


def test_at_least_one_criterion_required():
    with pytest.raises(ConfigurationError):
        TerminationCriteria()


def test_max_evals_trips_alone():
    crit = TerminationCriteria(max_evals=1000)
    hist = history([10.0 - g for g in range(99)])  # still improving fast
    assert should_terminate(hist, crit) is None
    hist = history([10.0 - g for g in range(100)])
    assert hist[-1].cum_evals == 1000
    assert should_terminate(hist, crit) == "max_evals"


def test_max_generations_trips_alone():
    crit = TerminationCriteria(max_generations=5)
    hist = history([10.0 - g for g in range(5)])
    assert should_terminate(hist, crit) is None
    hist = history([10.0 - g for g in range(6)])
    assert hist[-1].generation == 5
    assert should_terminate(hist, crit) == "max_generations"


def test_abs_tol_trips_alone():
    crit = TerminationCriteria(abs_tol=(1e-9, 5))
    # large spread keeps best_worst quiet; improvements exactly zero at the tail
    best = [5.0, 4.0, 3.0] + [3.0] * 5
    worst = [b + 10.0 for b in best]
    assert should_terminate(history(best[:-1], worst[:-1]), crit) is None
    assert should_terminate(history(best, worst), crit) == "abs_tol"


def test_abs_tol_needs_consecutive_generations():
    crit = TerminationCriteria(abs_tol=(1e-9, 5))
    best = [5.0] * 5 + [4.0] + [4.0] * 4  # improvement interrupts the streak
    assert should_terminate(history(best), crit) is None


def test_rel_tol_trips_alone():
    crit = TerminationCriteria(rel_tol=(1e-6, 3, 1e-12))
    # relative change tiny because the scale is huge; absolute change is large
    best = [1e9, 1e9 - 1.0, 1e9 - 2.0, 1e9 - 3.0]
    worst = [b + 1e6 for b in best]
    assert should_terminate(history(best, worst), crit) == "rel_tol"
    abs_crit = TerminationCriteria(abs_tol=(1e-9, 3))
    assert should_terminate(history(best, worst), abs_crit) is None


def test_running_mean_trips_alone():
    crit = TerminationCriteria(running_mean=(0.5, 4, 2))
    # single large drop then stagnation: the 4-wide mean falls below 0.5 only
    # once the drop leaves the window; instantaneous improvements already zero
    best = [10.0, 2.0] + [2.0] * 7
    worst = [b + 5.0 for b in best]
    assert should_terminate(history(best, worst), crit) == "running_mean"
    # but not before the window flushes the big improvement
    early = history(best[:5], worst[:5])
    assert should_terminate(early, crit) is None


def test_best_worst_trips_alone():
    crit = TerminationCriteria(best_worst=(1e-8, 2))
    best = [5.0, 4.0, 3.0, 2.0]
    worst = [5.0 + 1.0, 4.0 + 1e-9, 3.0 + 1e-9, 2.0 + 1e-9]
    assert should_terminate(history(best, worst), crit) == "best_worst"
    # keeps improving, so abs/rel criteria would not fire here
    abs_crit = TerminationCriteria(abs_tol=(1e-9, 2))
    assert should_terminate(history(best, worst), abs_crit) is None


def test_fixed_priority_order():
    # both max_evals and best_worst satisfied; fixed order returns max_evals
    crit = TerminationCriteria(max_evals=10, best_worst=(1e-8, 1))
    hist = history([1.0], worst=[1.0])
    assert should_terminate(hist, crit) == "max_evals"


def test_zero_spread_population():
    crit = TerminationCriteria(best_worst=(1e-8, 1))
    hist = history([2.0], worst=[2.0])
    assert should_terminate(hist, crit) == "best_worst"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"abs_tol": (1e-8, 0.0)},
        {"abs_tol": (1e-8, -3.0)},
        {"abs_tol": (1e-8, 0)},
        {"best_worst": (1e-8, 2.5)},
        {"running_mean": (1e-8, 4.0, 2)},
        {"rel_tol": (1e-6, 5, -1e-12)},
        {"abs_tol": (1e-8,)},
    ],
)
def test_malformed_tolerance_tuples_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        TerminationCriteria(**kwargs)


@pytest.mark.parametrize("name", ["max_evals", "max_generations"])
@pytest.mark.parametrize("value", [-5, 10.5, 100.0, True, "100"])
def test_budgets_must_be_integers_at_least_zero(name, value):
    with pytest.raises(ConfigurationError):
        TerminationCriteria(**{name: value})


def test_budget_of_zero_and_numpy_integers_accepted():
    assert TerminationCriteria(max_evals=0).max_evals == 0
    assert TerminationCriteria(max_generations=np.int64(3)).max_generations == 3


def test_integer_rel_tol_delta_accepted():
    crit = TerminationCriteria(rel_tol=(1e-6, 5, 0))
    best = [1e9 - g for g in range(7)]
    assert should_terminate(history(best), crit) == "rel_tol"


def test_rel_tol_zero_delta_at_exact_zero():
    # |f_best| + delta == 0: a drop onto zero keeps running, a flat zero stops
    crit = TerminationCriteria(rel_tol=(1e-6, 1, 0))
    assert should_terminate(history([1.0, 0.0]), crit) is None
    assert should_terminate(history([0.0, 0.0]), crit) == "rel_tol"


# ---------------------------------------------------------------------------
# The full-history implementation the windowed should_terminate replaced,
# kept verbatim as the reference oracle.


def _consecutive_tail(flags) -> int:
    count = 0
    for ok in reversed(flags):
        if not ok:
            break
        count += 1
    return count


def reference_should_terminate(history, criteria):
    if not history:
        return None
    cur = history[-1]

    if criteria.max_evals is not None and cur.cum_evals >= criteria.max_evals:
        return "max_evals"
    if criteria.max_generations is not None and cur.generation >= criteria.max_generations:
        return "max_generations"

    best = [rec.f_best for rec in history]
    improvements = [abs(best[i] - best[i - 1]) for i in range(1, len(best))]

    if criteria.abs_tol is not None:
        eps, n_tol = criteria.abs_tol
        flags = [imp < eps for imp in improvements]
        if len(flags) >= n_tol and _consecutive_tail(flags) >= n_tol:
            return "abs_tol"

    if criteria.rel_tol is not None:
        eps, n_tol, delta = criteria.rel_tol
        flags = [
            improvements[i] / (abs(best[i + 1]) + delta) < eps
            for i in range(len(improvements))
        ]
        if len(flags) >= n_tol and _consecutive_tail(flags) >= n_tol:
            return "rel_tol"

    if criteria.running_mean is not None:
        eps, n_mean, n_tol = criteria.running_mean
        flags = []
        for g in range(len(improvements)):
            if g + 1 < n_mean:
                flags.append(False)  # window not yet full
                continue
            window = improvements[g - n_mean + 1 : g + 1]
            flags.append(sum(window) / n_mean < eps)
        if len(flags) >= n_tol and _consecutive_tail(flags) >= n_tol:
            return "running_mean"

    if criteria.best_worst is not None:
        eps, n_tol = criteria.best_worst
        flags = [abs(rec.f_worst - rec.f_best) < eps for rec in history]
        if len(flags) >= n_tol and _consecutive_tail(flags) >= n_tol:
            return "best_worst"

    return None


def random_history(rng, length):
    """Non-increasing best fitness with exact plateaus and steps spanning 1e-12..1e-1."""
    best = [float(rng.uniform(-2.0, 2.0))]
    for _ in range(length - 1):
        step = 0.0 if rng.random() < 0.4 else float(10.0 ** rng.uniform(-12, -1))
        best.append(best[-1] - step)
    worst = [
        b if rng.random() < 0.3 else b + float(10.0 ** rng.uniform(-12, 0)) for b in best
    ]
    return history(best, worst)


def random_criteria(rng, length):
    """A random non-empty subset of the six criteria; windows up to past the history."""
    eps = lambda: float(10.0 ** rng.uniform(-12, -1))  # noqa: E731
    window = lambda: int(rng.integers(1, length + 4))  # noqa: E731
    options = {
        "max_evals": lambda: int(rng.integers(1, 10 * (length + 2))),
        "max_generations": lambda: int(rng.integers(0, length + 2)),
        "abs_tol": lambda: (eps(), window()),
        "rel_tol": lambda: (eps(), window(), [0, 1e-12, 1.0][int(rng.integers(3))]),
        "running_mean": lambda: (eps(), window(), window()),
        "best_worst": lambda: (eps(), window()),
    }
    chosen = [name for name in options if rng.random() < 0.4]
    chosen = chosen or [list(options)[int(rng.integers(len(options)))]]
    return TerminationCriteria(**{name: options[name]() for name in chosen})


def test_windowed_check_matches_full_history_oracle():
    rng = np.random.default_rng(20250913)
    fired = {reason: 0 for reason in STOP_REASONS}
    for _ in range(400):
        length = int(rng.integers(1, 30))
        hist = random_history(rng, length)
        crit = random_criteria(rng, length)
        for end in range(1, length + 1):  # every prefix, as a run grows
            expected = reference_should_terminate(hist[:end], crit)
            assert should_terminate(hist[:end], crit) == expected
            if expected is not None:
                fired[expected] += 1
    assert all(count > 0 for count in fired.values()), fired
