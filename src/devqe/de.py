"""Differential Evolution engine.

Population lifecycle, the eight classic mutation strategies, binomial and
exponential crossover, three box-constraint repairs, greedy selection and
composable termination criteria.  One counter-based RNG stream (Philox) drives
a run; every stochastic draw for a generation happens serially before any
objective evaluation, so results are reproducible regardless of how the
evaluations themselves are scheduled.

That is what the batch protocol rests on: an objective with a `batch(xs)`
method gets the initial population and then each generation's trials as one
(np, D) block and returns one value per row; any other callable is called
once per row (`local.evaluate_rows` makes that choice).  One row counts as
one evaluation, and a batch-capable objective gives the same run, value for
value, as calling it row by row.

`de_minimize` builds each generation's trials as one block too.  After the
initial population, `_PhiloxDraws` reads the raw Philox words and replays
numpy's algorithms on them: `Generator.random()` is `(word >> 11) * 2**-53`,
and `Generator.integers(n)` is Lemire's bounded method on 32-bit halves (low
half first, the high half kept for the next 32-bit draw) with numpy's
rejection threshold `(2**32 - n) % n`.  With each read-ahead it also tabulates
`integers(n)` and `integers(D)` on every half, -1 where the product falls in
Lemire's rejection zone.  One serial pass makes the draws whose count depends
on the data, on the read-ahead with a local position and pending half: the
distinct picks and j_rand (table reads), the p-best pick, the binomial
random(D) (a position bump) and the exponential window length.  Each member
leaves one index row: its donor's rows, j_rand and its crossing.  Only rare
paths go back to `_PhiloxDraws`' scalar code: a draw in the rejection zone is
redone by `integers`, and a member that runs past the read-ahead is refilled
and redone.  Donors, masks and all three repairs are row-block operations on
the rows of the index block.  Reinit redraws depend on the trial rows, so under
reinit the pass keeps each member's draw state: the first member whose trial
leaves the box rewinds to it, draws its redraws, and the pass is redone from
the next member.  Every run is bitwise the classic per-member run (donor,
crossover, repair, one member at a time on a `Generator`), which
tests/de_oracle.py keeps as the oracle.  Tests in tests/test_de_minimize.py
guard this: the draw oracle compares the scalar replay with the Generator
over interleaved draws, the run oracle compares whole runs with the
per-member loop (also with read-aheads of 3 words, and as a property over
strategies, crossovers, repairs, population sizes and dimensions), and
scripted words force each rare path of the pass inside one generation.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass, field, fields

import numpy as np

from .local import evaluate_rows
from .trace import SCOPE_STEP, OptimizationTrace, TraceEvent

STRATEGIES = (
    "rand1",
    "rand2",
    "best1",
    "best2",
    "current_to_rand1",
    "current_to_best1",
    "current_to_pbest1",
    "rand_to_best1",
)
CROSSOVERS = ("binomial", "exponential")
BOUNDARY_MODES = ("clamp", "toroidal", "reinit")

STOP_REASONS = (
    "max_evals",
    "max_generations",
    "abs_tol",
    "rel_tol",
    "running_mean",
    "best_worst",
)


class ConfigurationError(ValueError):
    """Invalid optimizer configuration (population size, strategy name, ...)."""


class BoundsError(ValueError):
    """Lower bound exceeds upper bound, or bound shapes disagree."""


class DegenerateRangeError(ValueError):
    """Toroidal repair requested on a zero-width interval."""


class ObjectiveError(RuntimeError):
    """The objective raised; `.partial` carries the result accumulated so far."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based stream so draw order, not thread count, fixes the run."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class Bounds:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape:
            raise BoundsError("lower and upper bounds must have the same shape")
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise BoundsError("bounds must not be NaN")
        if np.any(self.lower > self.upper):
            raise BoundsError("lower bound exceeds upper bound")

    @classmethod
    def box(cls, lower: float, upper: float, dim: int) -> "Bounds":
        return cls(np.full(dim, float(lower)), np.full(dim, float(upper)))

    @classmethod
    def unbounded(cls, dim: int) -> "Bounds":
        # absent user bounds fall back to the extreme finite floats
        big = np.finfo(float).max
        return cls(np.full(dim, -big), np.full(dim, big))

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


@dataclass
class Population:
    generation: int
    members: np.ndarray
    fitnesses: np.ndarray

    def __post_init__(self):
        if len(self.members) != len(self.fitnesses):
            raise ConfigurationError("members and fitnesses must align")
        if len(self.members) < 4:
            raise ConfigurationError("population size must be at least 4")

    @property
    def size(self) -> int:
        return len(self.members)

    def best_index(self) -> int:
        return int(self.fitnesses.argmin())


# what each tolerance tuple holds, position by position
_TOLERANCE_LAYOUTS = {
    "abs_tol": ("eps", "window"),
    "rel_tol": ("eps", "window", "delta"),
    "running_mean": ("eps", "window", "window"),
    "best_worst": ("eps", "window"),
}


@dataclass
class TerminationCriteria:
    """Stop rules; the first satisfied one (in field order) wins.

    max_evals:     FE_max
    max_generations: g_max
    abs_tol:       (eps_tol, n_tol)
    rel_tol:       (eps_rtol, n_tol, delta)
    running_mean:  (eps_mean, n_mean, n_tol)
    best_worst:    (eps_bw, n_tol)
    """

    max_evals: int | None = None
    max_generations: int | None = None
    abs_tol: tuple | None = None
    rel_tol: tuple | None = None
    running_mean: tuple | None = None
    best_worst: tuple | None = None

    def __post_init__(self):
        if all(getattr(self, f.name) is None for f in fields(self)):
            raise ConfigurationError("at least one termination criterion must be set")
        for name in ("max_evals", "max_generations"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise ConfigurationError(f"{name} must be an integer >= 0")
        for name, layout in _TOLERANCE_LAYOUTS.items():
            tup = getattr(self, name)
            if tup is None:
                continue
            if len(tup) != len(layout):
                raise ConfigurationError(f"{name} takes {len(layout)} values")
            for kind, value in zip(layout, tup):
                if kind == "eps" and not value > 0:
                    raise ConfigurationError(f"{name} tolerance must be positive")
                if kind == "window" and not (isinstance(value, numbers.Integral) and value >= 1):
                    raise ConfigurationError(f"{name} window lengths must be integers >= 1")
                if kind == "delta" and not value >= 0:
                    raise ConfigurationError(f"{name} delta must be >= 0")


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    cum_evals: int
    f_best: float
    f_worst: float


def _improvement(history, g) -> float:
    """Absolute change of the best fitness from generation g - 1 to g."""
    return abs(history[g].f_best - history[g - 1].f_best)


def _tail_holds(history, n_tol, flag, first=1) -> bool:
    """`flag(g)` holds for each of the last n_tol generations, all >= first."""
    start = len(history) - n_tol
    return start >= first and all(flag(g) for g in range(start, len(history)))


def should_terminate(history, criteria: TerminationCriteria) -> str | None:
    """First satisfied stop criterion for a per-generation history, or None.

    `history` is the ordered list of GenerationRecord entries, one per
    completed generation (generation 0 is the evaluated initial population).
    The improvement-based criteria need n_tol improvements, so n_tol + 1
    generations; only the generations inside their windows are read.
    """
    if not history:
        return None
    cur = history[-1]

    if criteria.max_evals is not None and cur.cum_evals >= criteria.max_evals:
        return "max_evals"
    if criteria.max_generations is not None and cur.generation >= criteria.max_generations:
        return "max_generations"

    if criteria.abs_tol is not None:
        eps, n_tol = criteria.abs_tol
        if _tail_holds(history, n_tol, lambda g: _improvement(history, g) < eps):
            return "abs_tol"

    if criteria.rel_tol is not None:
        eps, n_tol, delta = criteria.rel_tol

        def rel_flag(g):
            scale = abs(history[g].f_best) + delta
            if scale == 0:  # delta = 0 at an exact zero: only no change counts
                return _improvement(history, g) == 0
            return _improvement(history, g) / scale < eps

        if _tail_holds(history, n_tol, rel_flag):
            return "rel_tol"

    if criteria.running_mean is not None:
        eps, n_mean, n_tol = criteria.running_mean

        def mean_flag(g):
            if g < n_mean:
                return False  # window not yet full
            window = [_improvement(history, j) for j in range(g - n_mean + 1, g + 1)]
            return sum(window) / n_mean < eps

        if _tail_holds(history, n_tol, mean_flag):
            return "running_mean"

    if criteria.best_worst is not None:
        eps, n_tol = criteria.best_worst

        def spread_flag(g):
            return abs(history[g].f_worst - history[g].f_best) < eps

        if _tail_holds(history, n_tol, spread_flag, first=0):
            return "best_worst"

    return None


@dataclass(frozen=True)  # checked once, in __post_init__
class DEConfig:
    np_size: int | None = None  # population size; default max(15, 5*D)
    f: float = 0.5
    cr: float = 0.9
    strategy: str = "rand1"
    crossover: str = "binomial"
    boundary: str = "clamp"
    p_best_fraction: float = 0.11
    seed: int = 0
    termination: TerminationCriteria = field(
        default_factory=lambda: TerminationCriteria(max_generations=1000)
    )

    def __post_init__(self):
        if not (math.isfinite(self.f) and self.f > 0):
            raise ConfigurationError("scale factor F must be positive and finite")
        if not 0.0 <= self.cr <= 1.0:
            raise ConfigurationError("crossover rate Cr must lie in [0, 1]")
        if not 0.0 < self.p_best_fraction <= 1.0:
            raise ConfigurationError("p_best_fraction must lie in (0, 1]")
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; valid: {', '.join(STRATEGIES)}"
            )
        if self.np_size is not None:
            smallest = _smallest_population(self.strategy)
            if self.np_size < smallest:
                raise ConfigurationError(
                    f"population of {self.np_size} too small for {self.strategy}; "
                    f"it needs {smallest}"
                )
        if self.crossover not in CROSSOVERS:
            raise ConfigurationError(
                f"unknown crossover {self.crossover!r}; valid: {', '.join(CROSSOVERS)}"
            )
        if self.boundary not in BOUNDARY_MODES:
            raise ConfigurationError(
                f"unknown boundary mode {self.boundary!r}; valid: {', '.join(BOUNDARY_MODES)}"
            )

    def population_size(self, dim: int) -> int:
        """Members per generation for a dim-dimensional search."""
        return self.np_size if self.np_size is not None else max(15, 5 * dim)


@dataclass
class DEResult:
    best_vector: np.ndarray
    best_fitness: float
    evaluations: int
    generations: int
    trace: OptimizationTrace
    stop_reason: str


def initialize_population(bounds: Bounds, np_size: int, rng) -> Population:
    """Draw the generation-0 population uniformly inside the box.  Fitnesses
    start as NaN sentinels."""
    if np_size < 4:
        raise ConfigurationError("population size must be at least 4")
    r = rng.random((np_size, bounds.dim))
    with np.errstate(over="ignore"):
        width = bounds.upper - bounds.lower
        members = r * width + bounds.lower
    overflow = ~np.isfinite(width)
    if np.any(overflow):
        # extreme default bounds: r*width overflows, use the split form
        alt = r * bounds.upper + (1.0 - r) * bounds.lower
        members[:, overflow] = np.clip(
            alt[:, overflow], bounds.lower[overflow], bounds.upper[overflow]
        )
    return Population(
        generation=0, members=members, fitnesses=np.full(np_size, np.nan)
    )


_U32_MASK = 0xFFFFFFFF
_DOUBLE_SCALE = 2.0**-53
_RAW_CHUNK = 1024  # Philox words read ahead at a time (8 KB)


def _lemire(u, bound: int) -> int:
    """`integers(bound)` on one 32-bit value u: u * bound >> 32, or -1 when
    u * bound falls in Lemire's rejection zone and the draw must be redone."""
    m = u * bound
    return -1 if m & _U32_MASK < bound else m >> 32


def _lemire_halves(words: np.ndarray, bound: int) -> tuple:
    """`_lemire` on the low and on the high half of every word, as the bytes
    of two int64 arrays."""
    tables = []
    for u in (words & _U32_MASK, words >> 32):
        m = u * np.uint64(bound)
        draw = (m >> 32).astype(np.int64)
        draw[(m & _U32_MASK) < bound] = -1
        tables.append(draw.tobytes())
    return tables


class _PhiloxDraws:
    """`Generator.integers(n)` and `Generator.random(count)` replayed from the
    raw Philox words of the same stream.

    Takes over a Generator: from then on every draw of the run comes from
    here, with the values and in the order the Generator calls would give.
    A uniform is the top 53 bits of a 64-bit word, `(word >> 11) * 2**-53`.
    `integers(n)` is numpy's bounded 32-bit Lemire method with its rejection
    threshold `(2**32 - n) % n`, on 32-bit halves taken low half first; the
    high half waits for the next 32-bit draw (Philox's `has_uint32` buffer),
    and uniforms leave it waiting.  `integers(1)` consumes nothing.  Words are
    read ahead in chunks, so the Generator itself must not be drawn from again.

    `_generation_trials` reads the words of `_values` itself, from `_pos`,
    and the draws of their halves from `tables(bound)`; it calls back in here
    only on its rare paths.  A read-ahead extends the words and the tables in
    place, so a position stays valid until the next `mark`.
    """

    def __init__(self, rng, chunk=_RAW_CHUNK):
        bit_generator = rng.bit_generator
        state = bit_generator.state
        self._raw = bit_generator.random_raw
        self._chunk = chunk
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._values = array("Q")  # the words
        self._uniforms = np.empty(0)  # the uniform of each word
        self._tables = {}  # bound: (low, high), the _lemire draws of the halves
        self._pos = 0  # next unread word
        self._mark = 0  # positions count from here

    def mark(self):
        """Start a block: positions count from the next word.  The words
        before it are dropped once a read-ahead's worth of them is used."""
        if self._pos >= self._chunk:
            start = self._pos
            self._values = self._values[start:]
            self._uniforms = self._uniforms[start:]
            self._tables = {bound: (low[start:], high[start:])
                            for bound, (low, high) in self._tables.items()}
            self._pos = 0
        self._mark = self._pos

    def restore(self, state):
        """Go to `state` = (position from the mark, pending 32-bit half), as
        it stood at some point since the last `mark`."""
        offset, self._half = state
        self._pos = self._mark + offset

    def tables(self, bound: int) -> tuple:
        """The draws of `integers(bound)` (1 < bound < 2**32) on the low and
        on the high half of each word, -1 in Lemire's rejection zone, as two
        int64 arrays.  The high one has one slot more, after the words, that
        a caller may fill with the draw of a half pending from before them."""
        if bound not in self._tables:
            low, high = array("q"), array("q")
            words = np.array(self._values, dtype=np.uint64)  # a copy: the words grow in place
            for table, draws in zip((low, high), _lemire_halves(words, bound)):
                table.frombytes(draws)
            high.append(-1)
            self._tables[bound] = low, high
        return self._tables[bound]

    def _refill(self, count):
        """Read ahead so that `count` words follow the current position."""
        fresh = self._raw(max(self._chunk, self._pos + count - len(self._values)))
        self._values.frombytes(fresh.tobytes())
        fresh_uniforms = (fresh >> 11) * _DOUBLE_SCALE
        self._uniforms = np.concatenate((self._uniforms, fresh_uniforms))
        for bound, (low, high) in self._tables.items():
            fresh_low, fresh_high = _lemire_halves(fresh, bound)
            low.frombytes(fresh_low)
            carried = high.pop()  # the slot after the words stays last
            high.frombytes(fresh_high)
            high.append(carried)

    def _uint32(self):
        half = self._half
        if half is not None:
            self._half = None
            return half
        if self._pos == len(self._values):
            self._refill(1)
        word = self._values[self._pos]
        self._pos += 1
        self._half = word >> 32
        return word & _U32_MASK

    def integers(self, n: int) -> int:
        """One draw from [0, n), for 1 <= n < 2**32."""
        if n == 1:
            return 0
        m = self._uint32() * n
        if m & _U32_MASK < n:
            threshold = (0x100000000 - n) % n
            while m & _U32_MASK < threshold:
                m = self._uint32() * n
        return m >> 32

    def redo_integers(self, pos, half, m, n):
        """`integers(n)` for a caller that read the words itself and, at
        (pos, half), has just drawn the product m = u * n of a 32-bit value u
        in Lemire's rejection zone.  Gives u back and redraws from the scalar
        code; returns the draw and the new (pos, half)."""
        if half is None:  # u was the pending half
            self._pos, self._half = pos, m // n
        else:  # u was the low half of the word before pos
            self._pos, self._half = pos - 1, None
        r = self.integers(n)
        return r, self._pos, self._half

    def take(self, count: int) -> int:
        """Consume the words of `random(count)`; returns their position from
        the mark, for `uniforms`."""
        if self._pos + count > len(self._values):
            self._refill(count)
        start = self._pos - self._mark
        self._pos += count
        return start

    def uniforms(self, starts, count: int) -> np.ndarray:
        """The `random(count)` whose `count` words start at position `starts`
        from the mark, or one such row per entry of an array of positions."""
        if isinstance(starts, np.ndarray):
            return self._uniforms[self._mark + starts[:, None] + np.arange(count)]
        first = self._mark + starts
        return self._uniforms[first : first + count]


# how many distinct indices each strategy draws, besides the target and p-best
_DISTINCT_DRAWS = {
    "rand1": 3,
    "rand2": 5,
    "best1": 2,
    "best2": 4,
    "current_to_rand1": 2,
    "current_to_best1": 2,
    "current_to_pbest1": 2,
    "rand_to_best1": 3,
}


def _smallest_population(strategy: str) -> int:
    """Fewest members from which a strategy can draw its distinct indices:
    the draws, the target and, for current_to_pbest1, the p-best pick."""
    return max(4, _DISTINCT_DRAWS[strategy] + 1 + (strategy == "current_to_pbest1"))


def _donors(strategy, rows, best, f) -> np.ndarray:
    """A strategy's donor expression, in the oracle's operand order, on one
    target or on a block of targets.  rows[0] holds the targets; then come
    the p-best picks (current_to_pbest1 only) and the distinct picks in draw
    order."""
    current, r = rows[0], rows[1:]
    if strategy == "rand1":
        return r[0] + f * (r[1] - r[2])
    if strategy == "rand2":
        return r[0] + f * (r[1] - r[2]) + f * (r[3] - r[4])
    if strategy == "best1":
        return best + f * (r[0] - r[1])
    if strategy == "best2":
        return best + f * (r[0] - r[1]) + f * (r[2] - r[3])
    if strategy == "current_to_rand1":
        return current + f * (r[0] - r[1])
    if strategy == "current_to_best1":
        return current + f * (best - current) + f * (r[0] - r[1])
    if strategy == "current_to_pbest1":
        return current + f * (r[0] - current) + f * (r[1] - r[2])
    return r[0] + f * (best - r[0]) + f * (r[1] - r[2])  # rand_to_best1


def _toroidal_block(v, bounds: Bounds) -> np.ndarray:
    """Toroidal repair of every row of v, in place: an out-of-box component
    re-enters from the opposite bound by `fmod` of its excess over the width.
    Raises what the oracle's per-component `math.fmod` loop raises at the first
    failing component in row-major order."""
    lo, hi = bounds.lower, bounds.upper
    below = v < lo
    rows, cols = np.nonzero(below | (v > hi))
    if not len(rows):
        return v
    x, width, low = v[rows, cols], (hi - lo)[cols], below[rows, cols]
    excess = np.where(low, lo[cols] - x, x - hi[cols])
    # math.fmod raises where C fmod gives NaN: a zero width or an infinite excess
    failing = (width == 0.0) | np.isinf(excess)
    if failing.any():
        first = int(np.argmax(failing))
        if width[first] == 0.0:
            raise DegenerateRangeError(f"zero-width interval at component {cols[first]}")
        raise ValueError("math domain error")
    wrapped = np.fmod(excess, width)
    v[rows, cols] = np.where(low, hi[cols] - wrapped, lo[cols] + wrapped)
    return v


def _redo(draws, pos, u, pending, bound):
    """`integers(bound)` on the scalar code, for the pass of
    `_generation_trials`: the 32-bit value u it just drew (the pending half
    if `pending`, else the low half of the word before pos) fell in Lemire's
    rejection zone.  Returns the draw, the position and the pending half as
    the pass holds it: None, or the index of the word whose high half waits,
    which after `integers` is always the word before the position."""
    r, pos, half = draws.redo_integers(pos, None if pending else 0, u * bound, bound)
    return r, pos, (None if half is None else pos - 1)


def _generation_trials(pop: Population, bounds: Bounds, config: DEConfig, draws) -> np.ndarray:
    """One generation's (np, D) trial block, bit for bit what the per-member
    oracle chain (donor, crossover, repair) gives on the Generator that
    `draws` replays.

    A serial pass makes only the draws whose count depends on the data:
    distinct indices with rejection, the p-best pick, j_rand and the
    exponential window length.  It reads the Philox words itself, with a
    local position and pending half, and reads each distinct pick and j_rand
    from the draw tables of n and D; only a Lemire rejection calls back into
    `draws.integers`, and a read-ahead that runs out inside a member is
    refilled and the member redone.  Each member leaves one index row (its
    donor's rows, j_rand, the crossing); donors, crossover masks and the
    repair are row-block operations on them.

    A member's reinit redraws come between its crossover draws and the next
    member's picks, so under reinit the pass keeps each member's draw state.
    The first member whose trial leaves the box rewinds to that state and
    draws its redraws; the pass and the block are then redone from the next
    member on, until no later row leaves the box.
    """
    x = pop.members
    n, dim = x.shape
    strategy, f, cr = config.strategy, config.f, config.cr
    binomial = config.crossover == "binomial"
    reinit = config.boundary == "reinit"
    p_best = strategy == "current_to_pbest1"
    need = 1 + p_best + _DISTINCT_DRAWS[strategy]  # rows of a donor
    if p_best:  # the top p*100% block, from one stable sort per generation
        order = np.argsort(pop.fitnesses, kind="stable").tolist()
        top = order[: max(1, int(round(config.p_best_fraction * n)))]
    best = x[pop.best_index()]
    lo, hi = bounds.lower, bounds.upper
    # random() <= cr is (word >> 11) * 2**-53 <= cr, so word < this on the integers
    window_goes_on = (math.floor(cr * 2.0**53) + 1) << 11
    mask = _U32_MASK
    draws.mark()
    # a read-ahead extends these arrays in place, so they hold for the generation
    values, mark, pos = draws._values, draws._mark, draws._pos
    low_n, high_n = draws.tables(n)
    low_d, high_d = draws.tables(dim) if dim > 1 else (None, None)
    # the pending half h: None, the index of the word whose high half waits,
    # or -1 for the half `carried` from before the pass, whose draws go in
    # the high tables' last slot
    carried, h = draws._half, None
    if carried is not None:
        h = -1
        high_n[-1] = _lemire(carried, n)
        if dim > 1:
            high_d[-1] = _lemire(carried, dim)

    # per member, one index row: the rows its donor reads (_donors' order,
    # `need` of them), then j_rand and the binomial uniforms' position or the
    # exponential window length; under reinit also the draw state after them
    width = need + 2
    flat, states = [], [None] * n
    trials = x.copy() if reinit else None
    begin = 0  # the pass and the block start at this member
    while True:
        i = begin
        while i < n:
            member_state = pos, h
            try:
                # each bounded draw below is `integers(bound)` inline on a
                # 32-bit value u, the pending half, else the low half of the
                # next word; a draw of -1 (u * bound in Lemire's rejection
                # zone) is redone on the scalar code
                taken = [i] * need  # slots past k repeat the target, never a pick
                k = 1
                if p_best:
                    candidates = top
                    if i in top:
                        candidates = [c for c in top if c != i] or order[1:2]
                    bound = len(candidates)
                    r = 0
                    if bound > 1:
                        if h is None:
                            u = values[pos] & mask
                            h = pos
                            pos += 1
                        else:
                            u = carried if h < 0 else values[h] >> 32
                            h = None
                        m = u * bound
                        if m & mask < bound:
                            r, pos, h = _redo(draws, pos, u, h is None, bound)
                        else:
                            r = m >> 32
                    taken[1] = candidates[r]
                    k = 2
                while k < need:
                    if h is None:
                        r = low_n[pos]
                        h = pos
                        pos += 1
                        if r < 0:
                            r, pos, h = _redo(draws, pos, values[pos - 1] & mask, False, n)
                    else:
                        r = high_n[h]
                        if r < 0:
                            u = carried if h < 0 else values[h] >> 32
                            r, pos, h = _redo(draws, pos, u, True, n)
                        else:
                            h = None
                    if r not in taken:
                        taken[k] = r
                        k += 1
                if binomial:  # random(dim): only its position is kept
                    crossing = pos - mark
                    pos += dim
                    if pos > len(values):
                        raise IndexError("read-ahead ran out")
                j_rand = 0
                if dim > 1:
                    if h is None:
                        j_rand = low_d[pos]
                        h = pos
                        pos += 1
                        if j_rand < 0:
                            j_rand, pos, h = _redo(draws, pos, values[pos - 1] & mask, False, dim)
                    else:
                        j_rand = high_d[h]
                        if j_rand < 0:
                            u = carried if h < 0 else values[h] >> 32
                            j_rand, pos, h = _redo(draws, pos, u, True, dim)
                        else:
                            h = None
                if not binomial:  # the window grows while random() <= cr
                    length = 1
                    while length < dim:
                        word = values[pos]
                        pos += 1
                        if word >= window_goes_on:
                            break
                        length += 1
                    crossing = length
            except IndexError:  # the read-ahead ran out inside this member
                pos, h = member_state
                draws._pos = pos
                draws._refill(1)
                continue
            flat += taken
            flat += j_rand, crossing
            if reinit:
                states[i] = pos, h
            i += 1
        draws._pos = pos
        draws._half = None if h is None else carried if h < 0 else values[h] >> 32

        index = np.fromiter(flat[begin * width :], dtype=np.intp).reshape(-1, width)
        j_rand, crossed = index[:, need], index[:, need + 1]
        if binomial:
            from_donor = draws.uniforms(crossed, dim) <= cr
            from_donor[np.arange(len(index)), j_rand] = True
        else:
            from_donor = (np.arange(dim) - j_rand[:, None]) % dim < crossed[:, None]
        donors = _donors(strategy, x.take(index[:, :need].T, axis=0), best, f)
        if not reinit:
            trials = np.where(from_donor, donors, x)
            break
        np.copyto(trials[begin:], donors, where=from_donor)
        outside = (trials[begin:] < lo) | (trials[begin:] > hi)
        leaving = np.flatnonzero(outside.any(axis=1))
        if not len(leaving):
            return trials
        member, out = begin + int(leaving[0]), outside[leaving[0]]
        pos, h = states[member]
        draws._pos = pos
        draws._half = None if h is None else carried if h < 0 else values[h] >> 32
        redraws = int(np.count_nonzero(out))
        uniforms = draws.uniforms(draws.take(redraws), redraws)
        pos = draws._pos
        trials[member, out] = uniforms * (hi - lo)[out] + lo[out]
        begin = member + 1
        if begin == n:
            return trials
        trials[begin:] = x[begin:]
        del flat[begin * width :]

    if config.boundary == "clamp":
        np.maximum(trials, lo, out=trials)
        return np.minimum(trials, hi, out=trials)
    return _toroidal_block(trials, bounds)


def select(current: Population, trials, trial_fitnesses) -> Population:
    """Greedy one-to-one selection; ties go to the trial vector."""
    trials = np.asarray(trials, dtype=float)
    trial_fitnesses = np.asarray(trial_fitnesses, dtype=float)
    keep_trial = trial_fitnesses <= current.fitnesses
    members = np.where(keep_trial[:, None], trials, current.members)
    fitnesses = np.where(keep_trial, trial_fitnesses, current.fitnesses)
    return Population(
        generation=current.generation + 1, members=members, fitnesses=fitnesses
    )


def de_minimize(objective, bounds: Bounds, config: DEConfig, callback=None) -> DEResult:
    """Run the full DE loop; see module docstring for the reproducibility rules.

    Non-finite objective values are treated as +inf fitness.  The initial
    population and each generation's trials go to the objective as one block:
    to its `batch(xs)` method (one value per row of an (R, D) block, each
    equal to a call on that row) when it has one, otherwise one call per
    row.  Either way one row is one evaluation, so the result is the same.
    If the objective raises, the run aborts with an ObjectiveError carrying
    the partial result, whose `evaluations` counts every row handed to the
    objective so far, the whole failing block included.
    `callback(population, cum_evals)` fires after the initial evaluation and
    after every completed generation.
    """
    np_size = config.population_size(bounds.dim)
    if config.boundary in ("toroidal", "reinit"):  # both repair with the box width
        with np.errstate(over="ignore"):
            widths = bounds.upper - bounds.lower
        if not np.isfinite(widths).all():
            raise ConfigurationError(
                f"boundary mode {config.boundary!r} needs finite bound widths"
            )
    rng = make_rng(config.seed)
    history: list[GenerationRecord] = []
    evals = 0

    def evaluate(xs):
        nonlocal evals
        evals += len(xs)
        try:
            values = evaluate_rows(objective, xs)
        except Exception as exc:
            partial = _result(history, pop, evals, "aborted")
            raise ObjectiveError(f"objective raised: {exc}", partial=partial) from exc
        return np.where(np.isfinite(values), values, math.inf)

    def record(population):
        history.append(
            GenerationRecord(
                generation=population.generation,
                cum_evals=evals,
                f_best=float(population.fitnesses.min()),
                f_worst=float(population.fitnesses.max()),
            )
        )
        if callback is not None:
            callback(population, evals)

    pop = initialize_population(bounds, np_size, rng)
    pop.fitnesses = evaluate(pop.members)
    record(pop)

    draws = _PhiloxDraws(rng)  # every later draw of the run
    stop_reason = should_terminate(history, config.termination)
    while stop_reason is None:
        # all stochastic draws happen serially here, before any evaluation
        trials = _generation_trials(pop, bounds, config, draws)
        pop = select(pop, trials, evaluate(trials))
        record(pop)
        stop_reason = should_terminate(history, config.termination)
    return _result(history, pop, evals, stop_reason)


def _result(history, pop, evals, stop_reason) -> DEResult:
    """The run so far: its best member (the first one at +inf if the initial
    population was never evaluated) and its per-generation trace."""
    best = pop.best_index()
    return DEResult(
        best_vector=pop.members[best].copy(),
        best_fitness=float(pop.fitnesses[best]) if history else math.inf,
        evaluations=evals,
        generations=pop.generation,
        trace=_history_trace(history),
        stop_reason=stop_reason,
    )


def _history_trace(history) -> OptimizationTrace:
    """One optimizer_step event per generation: the best fitness so far."""
    return OptimizationTrace(
        events=[
            TraceEvent(cum_evals=rec.cum_evals, scope=SCOPE_STEP, macro_index=0, e_sa=rec.f_best)
            for rec in history
        ]
    )
