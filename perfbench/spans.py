"""Per-layer tracing of devqe from outside the package.

Each traced layer is a public devqe function.  The tracer replaces it at every
module attribute that refers to it (``devqe.savqe.expectation`` as well as
``devqe.statevector.expectation``), because callers resolve the name in their
own module.  Spans (name, parent, start, end) stay in memory; self time is a
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import csv
import importlib
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "integrals.load_fcidump",
    "jw.jordan_wigner",
    "ansatz.apply_ansatz",
    "statevector.expectation",
    "statevector.measure_rdms",
    "savqe.sa_energy",
    "savqe.run_sa_vqe",
    "local.fd_gradient",
    "local.bfgs_minimize",
    "local.gradient_descent",
    "de.de_minimize",
    "orbitals.run_sa_oo_vqe",
    "orbitals.minimize_orbitals",
    "orbitals.rotate_integrals",
    "bench.cmd_compare",
    "trace.OptimizationTrace.write_csv",
)

DERIVED = (
    ("de.driver_us_per_eval", "us"),
    ("de.select.accept_ratio", "ratio"),
    ("local.fd_gradient.eval_share", "ratio"),
    ("orbitals.macro_iterations", "count"),
    ("orbitals.inner_failures", "count"),
    ("orbitals.minimize_orbitals.line_search_failed", "count"),
    ("trace.overhead_frac", "ratio"),
)


def layer_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update(DERIVED)
    return units


def _resolve(dotted):
    """(owner, attribute) of a layer name relative to the devqe package."""
    module_name, _, rest = dotted.partition(".")
    owner = importlib.import_module(f"devqe.{module_name}")
    *path, attr = rest.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _call_sites(owner, attr):
    """Every (object, attribute) through which callers reach owner.attr."""
    original = getattr(owner, attr)
    sites = [(owner, attr)]
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "devqe" or name.startswith("devqe.")):
            continue
        for key, value in vars(module).items():
            if value is original and (module, key) != (owner, attr):
                sites.append((module, key))
    return original, sites


class Tracer:
    """Spans and counters for one traced pass; use as a context manager."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counters = defaultdict(int)
        self._stack = []
        self._patches = []

    def __enter__(self):
        hooks = {
            "de.de_minimize": self._after_de,
            "orbitals.run_sa_oo_vqe": self._after_saoo,
            "orbitals.minimize_orbitals": self._after_orbitals,
        }
        try:
            for layer in LAYERS:
                self._patch(layer, self._span(layer, hooks.get(layer)))
            self._patch("de.select", self._count_select)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _patch(self, layer, make_wrapper):
        owner, attr = _resolve(layer)
        original, sites = _call_sites(owner, attr)
        wrapper = make_wrapper(original)
        for obj, key in sites:
            self._patches.append((obj, key, original))
            setattr(obj, key, wrapper)

    def _restore(self):
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)

    def _span(self, name, on_return):
        spans, stack = self.spans, self._stack

        def make_wrapper(fn):
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
                stack.append(index)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[index][2] = start
                    spans[index][3] = end
                if on_return is not None:
                    on_return(result)
                return result

            return traced

        return make_wrapper

    def _count_select(self, fn):
        counters = self.counters

        def counted(current, trials, trial_fitnesses):
            result = fn(current, trials, trial_fitnesses)
            counters["select.evaluated"] += len(trial_fitnesses)
            counters["select.kept"] += int((trial_fitnesses <= current.fitnesses).sum())
            return result

        return counted

    def _after_de(self, result):
        self.counters["de.evaluations"] += result.evaluations

    def _after_saoo(self, result):
        self.counters["orbitals.macro_iterations"] += result.macro_iterations
        self.counters["orbitals.inner_failures"] += len(result.inner_failures)

    def _after_orbitals(self, result):
        self.counters["orbitals.line_search_failed"] += int(result.line_search_failed)

    def layer_metrics(self, evaluations) -> dict:
        """Per-layer metrics of the pass; `evaluations` is the pass total."""
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        stencil_evals = 0
        for index, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child_time[index]
            if name == "savqe.sa_energy" and parent >= 0:
                stencil_evals += self.spans[parent][0] == "local.fd_gradient"
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = calls[layer]
            metrics[f"{layer}.busy_s"] = busy[layer]
            metrics[f"{layer}.self_s"] = own[layer]
        c = self.counters
        de_evals = c["de.evaluations"]
        metrics["de.driver_us_per_eval"] = (
            own["de.de_minimize"] / de_evals * 1e6 if de_evals else 0.0
        )
        evaluated = c["select.evaluated"]
        metrics["de.select.accept_ratio"] = c["select.kept"] / evaluated if evaluated else 0.0
        metrics["local.fd_gradient.eval_share"] = stencil_evals / evaluations if evaluations else 0.0
        metrics["orbitals.macro_iterations"] = c["orbitals.macro_iterations"]
        metrics["orbitals.inner_failures"] = c["orbitals.inner_failures"]
        metrics["orbitals.minimize_orbitals.line_search_failed"] = c["orbitals.line_search_failed"]
        return metrics

    def write_spans(self, writer, pass_index):
        for index, (name, parent, start, end) in enumerate(self.spans):
            writer.writerow([pass_index, index, name, parent, repr(start), repr(end)])


def write_span_file(path, tracers):
    """All spans of a run, one row each; `pass` identifies the request."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pass", "span", "name", "parent", "start", "end"])
        for pass_index, tracer in enumerate(tracers):
            tracer.write_spans(writer, pass_index)
