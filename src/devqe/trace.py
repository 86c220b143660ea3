"""Shared optimization-trace records.

Every run maintained by this package logs progress as a flat event list so the
three standard convergence views can all be rebuilt afterwards by filtering on
the event scope alone:

1. energy vs. macro-iteration number      -> scope == "sa_oo_vqe_iteration"
2. energy vs. cumulative evaluations at each macro iteration -> same rows
3. energy vs. cumulative evaluations at each optimizer step  -> scope == "optimizer_step"
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

SCOPE_STEP = "optimizer_step"
SCOPE_MACRO = "sa_oo_vqe_iteration"


@dataclass(frozen=True)
class TraceEvent:
    cum_evals: int
    scope: str
    macro_index: int
    e_sa: float
    e_states: tuple = ()


@dataclass
class OptimizationTrace:
    events: list = field(default_factory=list)

    def append(self, event: TraceEvent) -> None:
        if self.events and event.cum_evals < self.events[-1].cum_evals:
            raise ValueError("cumulative evaluations must be nondecreasing")
        if event.scope == SCOPE_MACRO:
            prev = self.last_macro_index()
            if event.macro_index != prev + 1:
                raise ValueError(
                    f"macro_index {event.macro_index} does not follow {prev}"
                )
        self.events.append(event)

    def last_macro_index(self) -> int:
        for ev in reversed(self.events):
            if ev.scope == SCOPE_MACRO:
                return ev.macro_index
        return 0

    def filter(self, scope: str) -> list:
        return [ev for ev in self.events if ev.scope == scope]

    def write_csv(self, path) -> None:
        """One row per event, with one e{k} column per state (at least e0 and
        e1); an event with fewer state energies leaves the rest empty."""
        n_states = max([2] + [len(ev.e_states) for ev in self.events])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            columns = [f"e{k}" for k in range(n_states)]
            writer.writerow(["cum_evals", "scope", "macro_index", "e_sa", *columns])
            for ev in self.events:
                energies = [repr(e) for e in ev.e_states]
                energies += [""] * (n_states - len(energies))
                writer.writerow([ev.cum_evals, ev.scope, ev.macro_index, repr(ev.e_sa), *energies])
