#!/usr/bin/env python3
"""devqe benchmark: one workload, one client, one process, no extra threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a devqe checkout.  The workload runs as a closed loop:
each pass starts when the previous one has ended, until the next pass would
end after --seconds.  Every optimizer run of every pass is checked against the
goldens in goldens.json.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0 (timings in reference seconds, see hostspeed.py), the
per-layer metrics of spans.py with --trace 1.

The seed generates the DE seeds of the workload and nothing else; each pass of
an untraced run takes fresh ones.  Pass 0 of seed 0 has the default DE seeds,
for which goldens were taken.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import NamedTuple

# numpy and devqe are imported inside functions: prepare() has to set the BLAS
# thread count and the import path before either loads.
from goldens import DEFAULT_SEED, check_pass, load_goldens
from spans import Tracer, layer_units, write_span_file

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
OUT = os.path.join(ROOT, ".perfbench_out")
PROBE = os.path.join(HERE, "probe.py")
SETUP_PROBES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# The gated end-to-end metrics.  Both timings are in reference seconds
# (hostspeed.py), the host's speed of the moment divided out:
# evals_per_ref_s at the speed sampled all through the passes, setup_s at the
# run's mean speed, since its probes run between the passes.  evals_per_s and
# setup_wall_s (the same per wall second), wall_s and failed_frac are printed
# as well but not gated: wall-clock timings follow the host's speed, which
# drifts by 20-50% over minutes with the same code; an h2_compare pass makes
# 8,957 to 15,199 evaluations depending on the DE seeds, so its wall time
# spreads with the seed; failures are gated through "failed".
END_TO_END_UNITS = {"evals_per_ref_s": "1/ref_s", "setup_s": "s", "peak_rss_mb": "MB"}


PASSES_PER_SEED = 1000  # room for the DE seeds of this many passes per workload seed


def de_seeds(seed, count, pass_index=0):
    """The DE seeds of one pass, generated from the workload seed.  Each pass
    of a run takes fresh ones, so a run averages over many DE seeds; pass 0 of
    seed 0 gives 0 .. count-1."""
    first = (seed * PASSES_PER_SEED + pass_index) * count
    return list(range(first, first + count))


def failed_record(key, error):
    return {"key": key, "counts": {}, "energies": {}, "bounded": None, "error": error}


def read_rows(path):
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def molecule_record(key, row, trace_path):
    """Record of one molecule run from its result row and trace file."""
    from devqe.trace import SCOPE_MACRO

    macro = sum(1 for ev in read_rows(trace_path) if ev["scope"] == SCOPE_MACRO)
    e_sa = float(row["e_sa"])
    return {
        "key": key,
        "counts": {"evaluations": int(row["evaluations"]), "macro_iterations": macro},
        "energies": {"e_sa": e_sa, "e0": float(row["e0"]), "e1": float(row["e1"])},
        "bounded": e_sa,
        "error": None,
    }


class Molecule:
    """Shared parts of the workloads that run SA-OO-VQE on an FCIDUMP fixture."""

    fixture = ""

    @property
    def molecule(self):
        return os.path.join(FIXTURES, self.fixture)

    def probe_args(self):
        return [self.molecule]

    def floor(self):
        from devqe import fock
        from devqe.integrals import load_fcidump

        return fock.ensemble_floor(load_fcidump(self.molecule))


class H2Compare(Molecule):
    name = "h2_compare"
    fixture = "h2_sto3g.fcidump"
    methods = ("bfgs", "gd", "de_rand1_bin", "de_best2_bin", "de_current_to_pbest1_exp")

    def config(self, seed, pass_index=0):
        return {
            "molecule": self.molecule,
            "optimizer": ",".join(self.methods),
            "seeds": ",".join(str(s) for s in de_seeds(seed, 3, pass_index)),
        }

    def execute(self, config, out_dir):
        from devqe import bench

        bench.cmd_compare(config, out_dir)

    @staticmethod
    def run_key(method, seed):
        """Golden key: seed-independent methods are pinned on every seed."""
        from devqe.bench import LOCAL_METHODS

        return method if method in LOCAL_METHODS else f"{method}@{seed}"

    def collect(self, config, out_dir, raw, error):
        runs = {(r["method"], r["seed"]): r for r in read_rows(os.path.join(out_dir, "runs.csv"))}
        failures = {
            (r["method"], r["seed"]): r["error"]
            for r in read_rows(os.path.join(out_dir, "failures.csv"))
        }
        records = []
        for method in self.methods:
            for seed in config["seeds"].split(","):
                key = self.run_key(method, seed)
                if (method, seed) in failures:
                    records.append(failed_record(key, failures[(method, seed)]))
                elif (method, seed) not in runs:
                    records.append(failed_record(key, error or "missing from runs.csv"))
                else:
                    trace_path = os.path.join(out_dir, f"trace_{method}_{seed}.csv")
                    records.append(molecule_record(key, runs[(method, seed)], trace_path))
        return records

    def inputs(self, sizes):
        return {"population": max(15, 5 * sizes["ansatz_params"])}  # the DEConfig default


class H4Saoo(Molecule):
    name = "h4_saoo"
    fixture = "h4_sto3g.fcidump"

    def config(self, seed, pass_index=0):
        return {"molecule": self.molecule, "optimizer": "bfgs"}

    def execute(self, config, out_dir):
        from devqe import bench

        bench.cmd_single(config, out_dir, "saoo")

    def collect(self, config, out_dir, raw, error):
        rows = read_rows(os.path.join(out_dir, "result.csv"))
        if not rows:
            return [failed_record("bfgs", error or "result.csv missing")]
        trace_path = os.path.join(out_dir, "trace_bfgs_0.csv")
        return [molecule_record("bfgs", rows[0], trace_path)]

    def inputs(self, sizes):
        return {}


class DESphere:
    name = "de_sphere"
    variants = (
        ("rand1", "binomial", "clamp"),
        ("best2", "exponential", "toroidal"),
        ("current_to_pbest1", "binomial", "reinit"),
    )
    dim = 5
    np_size = 20
    max_evals = 30000
    checkpoint = 10  # generation whose best fitness is pinned as well

    def probe_args(self):
        return []

    def floor(self):
        return 0.0

    def config(self, seed, pass_index=0):
        return {"seeds": de_seeds(seed, 2, pass_index)}

    def execute(self, config, out_dir):
        from devqe import bench, de

        bounds = de.Bounds.box(-5.0, 5.0, self.dim)
        outcomes = []
        for strategy, crossover, boundary in self.variants:
            for seed in config["seeds"]:
                de_config = de.DEConfig(
                    np_size=self.np_size,
                    strategy=strategy,
                    crossover=crossover,
                    boundary=boundary,
                    seed=seed,
                    termination=de.TerminationCriteria(max_evals=self.max_evals),
                )
                key = f"{strategy}-{crossover}-{boundary}@{seed}"
                try:
                    outcomes.append((key, de.de_minimize(bench.sphere, bounds, de_config)))
                except Exception as exc:  # counted as a failed run, the pass goes on
                    outcomes.append((key, f"{type(exc).__name__}: {exc}"))
        return outcomes

    def collect(self, config, out_dir, raw, error):
        if raw is None:
            return [failed_record(f"{'-'.join(v)}@{s}", error)
                    for v in self.variants for s in config["seeds"]]
        records = []
        for key, result in raw:
            if isinstance(result, str):
                records.append(failed_record(key, result))
                continue
            # max_evals is the only stop rule, so the budget is spent exactly
            if result.evaluations != self.max_evals or result.stop_reason != "max_evals":
                records.append(failed_record(
                    key, f"stopped by {result.stop_reason} after {result.evaluations} evaluations"))
                continue
            records.append({
                "key": key,
                "counts": {"evaluations": result.evaluations, "generations": result.generations},
                "energies": {
                    "best_f": result.best_fitness,
                    f"f_best_gen{self.checkpoint}": result.trace.events[self.checkpoint].e_sa,
                },
                "bounded": result.best_fitness,
                "error": None,
            })
        return records

    def inputs(self, sizes):
        return {"dimension": self.dim, "population": self.np_size}


WORKLOADS = {w.name: w for w in (H2Compare(), H4Saoo(), DESphere())}


class Pass(NamedTuple):
    wall_s: float  # the workload's own wall time, reference slices left out
    ref_s: float  # the same time in reference seconds (hostspeed.py); traced passes: nan
    evaluations: int
    records: list
    failures: list


def run_pass(workload, config, goldens, floor, tracer=None):
    """One pass of the workload.  An untraced pass samples the host's speed
    throughout; a traced pass does not, so that its spans hold devqe alone."""
    from hostspeed import HostSpeedSampler

    work_dir = tempfile.mkdtemp(prefix="pass-", dir=OUT)
    try:
        raw, error = None, None
        context = HostSpeedSampler() if tracer is None else tracer
        start = perf_counter()
        try:
            with context:
                raw = workload.execute(config, work_dir)
        except Exception as exc:  # the whole pass failed; its runs count as failed
            error = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        records = workload.collect(config, work_dir, raw, error)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    ref = math.nan
    if tracer is None:
        wall -= context.handler_s
        ref = context.reference_seconds(wall)
    evaluations = sum(r["counts"]["evaluations"] for r in records if not r["error"])
    return Pass(wall, ref, evaluations, records, check_pass(records, goldens, floor))


def probe_setup(workload):
    """Seconds from a fresh process's start until it is ready to evaluate."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, PROBE, *workload.probe_args()],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed, json.loads(line)


def environment():
    import numpy
    import scipy

    digest = hashlib.sha256()
    package = os.path.join(SRC, "devqe")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            git_sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure(workload, seed, seconds, trace):
    goldens = load_goldens()["workloads"][workload.name]
    floor = workload.floor()
    # An untraced run gives each pass fresh DE seeds, so that it averages the
    # work per evaluation over many of them; a traced run repeats pass 0, so
    # that its counts are those of one fixed pass.
    plain, traced, tracers, setups = [], [], [], []
    probes = SETUP_PROBES if not trace else 1
    start = perf_counter()
    while True:
        config = workload.config(seed, 0 if trace else len(plain))
        plain.append(run_pass(workload, config, goldens, floor))
        if trace:
            tracers.append(Tracer())
            traced.append(run_pass(workload, config, goldens, floor, tracers[-1]))
        # set-up probes run between passes, so that they sample the host's
        # speed over the whole run
        if len(setups) < probes:
            setups.append(probe_setup(workload))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break
    setups += [probe_setup(workload) for _ in range(probes - len(setups))]
    sizes = dict(setups[0][1])
    passes = plain + traced
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.records) for p in passes)
    sizes.update(workload.inputs(sizes), runs_per_pass=len(plain[0].records),
                 evaluations_per_pass=[p.evaluations for p in plain])
    evaluations = sum(p.evaluations for p in plain)
    host_speed = sum(p.ref_s for p in plain) / sum(p.wall_s for p in plain)
    setup_wall = statistics.median(s[0] for s in setups)

    if trace:
        per_pass = [t.layer_metrics(p.evaluations) for t, p in zip(tracers, traced)]
        values = {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_frac"] = (
            statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in plain)
            - 1.0
        )
        units = layer_units()
    else:
        values = {
            "evals_per_ref_s": evaluations / sum(p.ref_s for p in plain),
            "setup_s": setup_wall * host_speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "environment": environment(),
        "inputs": sizes,
        "wall_s": statistics.median(p.wall_s for p in plain),
        "evals_per_s": evaluations / sum(p.wall_s for p in plain),
        "setup_wall_s": setup_wall,
        "host_speed": host_speed,
        "pass_walls_s": [p.wall_s for p in plain],
        "pass_ref_s": [p.ref_s for p in plain],
        "traced_pass_walls_s": [p.wall_s for p in traced],
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "metrics": metrics,
    }
    stem = os.path.join(OUT, f"{workload.name}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    if trace:
        write_span_file(stem + "-spans.csv", tracers)
    return report, attempted, len(failures)


def prepare():
    """Make devqe importable with one BLAS thread; the paths that are missing."""
    needed = [os.path.join(SRC, "devqe", "__init__.py"), FIXTURES]
    missing = [path for path in needed if not os.path.exists(path)]
    if not missing:
        for var in THREAD_VARS:
            os.environ[var] = "1"  # before numpy loads; inherited by the probes
        sys.path.insert(0, SRC)
        os.makedirs(OUT, exist_ok=True)
    return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    missing = prepare()
    if missing:
        print(f"perfbench: not a devqe checkout, missing {missing}", file=sys.stderr)
        return 2
    report, attempted, failed = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(f"perfbench {report['workload']} seed={args.seed} trace={args.trace} "
          f"passes={len(report['pass_walls_s'])}")
    print("environment " + json.dumps(report["environment"]))
    print("inputs " + json.dumps(report["inputs"]))
    for name, metric in report["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"evals_per_s {report['evals_per_s']!r} 1/s "
          f"(host speed {report['host_speed']!r} ref_s/s)")
    print(f"setup_wall_s {report['setup_wall_s']!r} s")
    print(f"wall_s {report['wall_s']!r} s (median pass)")
    print(f"failed_frac {report['failed_frac']!r} ratio ({failed} of {attempted} runs)")
    for key, reason in report["failures"]:
        print(f"FAILED {key}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
