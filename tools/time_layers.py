#!/usr/bin/env python3
"""Milliseconds per objective evaluation of the SA-VQE energy, point by point
and in blocks, the per-macro-iteration layers of SA-OO-VQE, the DE driver's
own cost per evaluation, and the start-up cost of a fresh interpreter.

Run from the repository root:

    python tools/time_layers.py                      # all cases, all systems
    python tools/time_layers.py --cases point        # one point only
    python tools/time_layers.py --cases macro        # the per-macro layers only
    python tools/time_layers.py --cases de_driver    # the DE driver only
    python tools/time_layers.py --cases startup      # import and first rotation

Systems: H2 (4 qubits), H4 (8), LiH with a frozen core (10) and full LiH (12),
each with its default ansatz and the two SA-VQE references.  For each system
the header line gives the active basis size S and the number of Givens sets
of its Sector.  Cases:

- point:   one sa_energy call on one theta (a line-search step);
- stencil: the 2D points of one central-difference gradient as one block
           (what fd_gradient hands to the batch protocol);
- de_gen:  one DE generation of max(15, 5D) random thetas as one block;
- macro:   the layers of SA-OO-VQE's macro iterations, in ms per call:
           Sector.build, which a run calls once; Sector.with_integrals,
           which re-contracts the block for every macro iteration after the
           first; minimize_orbitals on the RDMs of the theta = 0.05 states
           (with the number of rotate_integrals calls it makes), and
           rotate_integrals; and the
           RDMs of one such state, in ms per state, from the sector's
           replacement lists (the run path) and from the dense oracle
           measure_rdms on the scattered 2^n state, their repeats
           interleaved;
- de_driver: microseconds per evaluation of whole de_minimize runs of
           DE_DRIVER_EVALS evaluations on bench.sphere, whose batch form makes
           the objective nearly free: the de_sphere benchmark's three variants
           (D=5, np=20) and the DE methods of h2_compare (D=2, np=15, box of
           half-width pi, clamp repair).  No molecule is involved.
- startup: milliseconds from before `import devqe` to after it, and to after
           the first orbitals.rotation, side by side, each the median
           over --repeats fresh interpreters.  scipy loads at that first
           rotation, so the difference is the import a DE-only process
           never pays and an SA-OO process pays in its first orbital stage.

The sa_energy cases evaluate on a Sector built once, as a run does.  A
block case also times the same points evaluated one at a time, and prints
the ratio.  Every figure is the median over repeats of ms per evaluation (one
evaluation = one theta) or per call.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from devqe import bench, de, orbitals, savqe  # noqa: E402
from devqe.ansatz import default_ansatz  # noqa: E402
from devqe.integrals import freeze_core, load_fcidump  # noqa: E402
from devqe.statevector import measure_rdms  # noqa: E402

CASES = ("point", "stencil", "de_gen", "macro", "de_driver", "startup")
DE_DRIVER_EVALS = 6000
# (workload, D, np, box half-width, strategy, crossover, boundary)
DE_DRIVER_RUNS = (
    ("de_sphere", 5, 20, 5.0, "rand1", "binomial", "clamp"),
    ("de_sphere", 5, 20, 5.0, "best2", "exponential", "toroidal"),
    ("de_sphere", 5, 20, 5.0, "current_to_pbest1", "binomial", "reinit"),
    ("h2_compare", 2, 15, np.pi, "rand1", "binomial", "clamp"),
    ("h2_compare", 2, 15, np.pi, "best2", "binomial", "clamp"),
    ("h2_compare", 2, 15, np.pi, "current_to_pbest1", "exponential", "clamp"),
)
WEIGHTS = (0.5, 0.5)
MACRO_THETA = 0.05  # every parameter of the states whose RDMs minimize_orbitals sees
MIN_REPEAT_S = 0.1  # each repeat runs the case at least this long


def systems():
    """(name, integrals) of the four timed systems."""
    fixtures = os.path.join(ROOT, "fixtures")
    lih = load_fcidump(os.path.join(fixtures, "lih_sto3g.fcidump"))
    return [
        ("H2", load_fcidump(os.path.join(fixtures, "h2_sto3g.fcidump"))),
        ("H4", load_fcidump(os.path.join(fixtures, "h4_sto3g.fcidump"))),
        ("LiH-fc", freeze_core(lih, 1)),
        ("LiH", lih),
    ]


def case_points(case, dim, rng):
    """The thetas one case evaluates, as an (R, D) block."""
    if case == "point":
        return rng.uniform(-1.0, 1.0, (1, dim))
    if case == "stencil":
        x = rng.uniform(-1.0, 1.0, dim)
        steps = 1e-6 * np.eye(dim)
        return np.concatenate([x + steps, x - steps])
    return rng.uniform(-np.pi, np.pi, (max(15, 5 * dim), dim))


def repeated_samples(runs, repeats):
    """Seconds per call of each run, `repeats` samples each, the runs' repeats
    interleaved.  A sample loops its run for at least MIN_REPEAT_S."""
    loops = []
    for run in runs:
        start = perf_counter()
        run()
        loops.append(max(1, int(MIN_REPEAT_S / max(perf_counter() - start, 1e-9))))
    samples = [[] for _ in runs]
    for _ in range(repeats):
        for run, count, row in zip(runs, loops, samples):
            start = perf_counter()
            for _ in range(count):
                run()
            row.append((perf_counter() - start) / count)
    return samples


def ms_per_eval(run, n_points, repeats):
    """Median over repeats of milliseconds per evaluated point."""
    (samples,) = repeated_samples([run], repeats)
    return statistics.median(samples) / n_points * 1e3


def time_de_driver(repeats):
    """Print microseconds per evaluation of each DE_DRIVER_RUNS setting.

    The rows' repeats are interleaved (one repeat of every row, then the
    next), so host-speed drift reaches every row alike and the ratios between
    rows hold even when the absolute figures move."""
    print(f"DE driver: us per evaluation over {DE_DRIVER_EVALS} evaluations of "
          f"bench.sphere (batch), median of {repeats} interleaved repeats")
    print(f"{'workload':10s} {'D':>2s} {'np':>3s} {'strategy':17s} {'crossover':11s} "
          f"{'boundary':8s} {'us/eval':>8s}")
    runs = []
    for _, dim, np_size, half_width, strategy, crossover, boundary in DE_DRIVER_RUNS:
        bounds = de.Bounds.box(-half_width, half_width, dim)
        config = de.DEConfig(np_size=np_size, strategy=strategy, crossover=crossover,
                             boundary=boundary,
                             termination=de.TerminationCriteria(max_evals=DE_DRIVER_EVALS))
        runs.append(lambda bounds=bounds, config=config: de.de_minimize(
            bench.sphere, bounds, config))
    samples = repeated_samples(runs, repeats)
    for row, row_samples in zip(DE_DRIVER_RUNS, samples):
        workload, dim, np_size, _, strategy, crossover, boundary = row
        us = 1e6 * statistics.median(row_samples) / DE_DRIVER_EVALS
        print(f"{workload:10s} {dim:2d} {np_size:3d} {strategy:17s} {crossover:11s} "
              f"{boundary:8s} {us:8.2f}", flush=True)


# a fresh interpreter's seconds to `import devqe`, and to its first rotation
STARTUP_PROBE = """
from time import perf_counter
start = perf_counter()
import devqe
imported = perf_counter()
devqe.orbitals.rotation(2, [0.1])
print(imported - start, perf_counter() - start)
"""


def time_startup(repeats):
    """Print the median over `repeats` fresh interpreters of the time to
    import devqe, and to import it and make the first orbital rotation."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", STARTUP_PROBE], env=env, check=True,
                              capture_output=True, text=True)
        samples.append([float(value) for value in done.stdout.split()])
    imported, rotated = (1e3 * statistics.median(column) for column in zip(*samples))
    print(f"start-up, median of {repeats} fresh interpreters: import devqe {imported:.1f} ms, "
          f"import devqe + first orbitals.rotation {rotated:.1f} ms "
          f"(the rotation, scipy's import included, {rotated - imported:.1f} ms)", flush=True)


def time_macro_layers(name, integrals, ansatz, sector, repeats):
    """Print ms per call of the layers of the macro iterations."""
    build_ms = ms_per_eval(lambda: savqe.Sector.build(integrals, ansatz), 1, repeats)
    derive_ms = ms_per_eval(lambda: sector.with_integrals(integrals), 1, repeats)
    theta = np.full(ansatz.parameter_count, MACRO_THETA)
    _, _, rows = savqe.sa_energy(theta, sector, WEIGHTS)
    rdms = tuple(sector.lists.rdms(row) for row in rows)
    states = sector.scatter(rows)
    list_samples, dense_samples = repeated_samples(
        [lambda: [sector.lists.rdms(row) for row in rows],
         lambda: [measure_rdms(state, integrals.n_orb) for state in states]], repeats)
    list_ms, dense_ms = (statistics.median(samples) / len(rows) * 1e3
                         for samples in (list_samples, dense_samples))

    rotations = 0
    rotate = orbitals.rotate_integrals

    def counted_rotate(*args):
        nonlocal rotations
        rotations += 1
        return rotate(*args)

    orbitals.rotate_integrals = counted_rotate
    try:
        orbitals.minimize_orbitals(integrals, rdms, WEIGHTS)
    finally:
        orbitals.rotate_integrals = rotate
    oo_ms = ms_per_eval(lambda: orbitals.minimize_orbitals(integrals, rdms, WEIGHTS), 1, repeats)
    kappa = np.full(len(orbitals.default_pairs(integrals.n_orb)), MACRO_THETA)
    rotate_ms = ms_per_eval(lambda: rotate(integrals, kappa), 1, repeats)
    print(f"{name:7s} {'macro':8s} Sector.build {build_ms:.3f} (once per run), "
          f"with_integrals {derive_ms:.3f}, minimize_orbitals {oo_ms:.3f} ({rotations} "
          f"rotate_integrals calls), rotate_integrals {rotate_ms:.4f} ms per call", flush=True)
    print(f"{name:7s} {'rdms':8s} lists {list_ms:.4f}, dense measure_rdms "
          f"{dense_ms:.4f} ms per state ({dense_ms / list_ms:.1f}x)", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", default=",".join(CASES),
                        help="comma-separated subset of " + ", ".join(CASES))
    parser.add_argument("--systems", default="H2,H4,LiH-fc,LiH")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    cases = args.cases.split(",")
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        parser.error(f"unknown cases {', '.join(unknown)}; valid: {', '.join(CASES)}")
    if "startup" in cases:
        time_startup(args.repeats)
    if "de_driver" in cases:
        time_de_driver(args.repeats)
    cases = [case for case in cases if case not in ("startup", "de_driver")]
    if not cases:
        return 0
    wanted = args.systems.split(",")

    print(f"ms per evaluation (macro: per call), median of {args.repeats} repeats")
    print(f"{'system':7s} {'case':8s} {'points':>6s} {'block':>9s} {'one by one':>10s} "
          f"{'ratio':>6s}")
    rng = np.random.default_rng(0)
    for name, integrals in systems():
        if name not in wanted:
            continue
        ansatz = default_ansatz(integrals.n_orb, integrals.n_elec)
        sector = savqe.Sector.build(integrals, ansatz)
        print(f"{name}: {2 * integrals.n_orb} qubits, S = {sector.basis.size}, "
              f"{len(sector.ansatz.sets)} Givens sets for {ansatz.parameter_count} parameters")

        def evaluate(thetas, sector=sector):
            return savqe.sa_energy(thetas, sector, WEIGHTS)

        for case in cases:
            if case == "macro":
                time_macro_layers(name, integrals, ansatz, sector, args.repeats)
                continue
            points = case_points(case, ansatz.parameter_count, rng)

            def one_by_one(points=points):
                for theta in points:
                    evaluate(theta)

            single = ms_per_eval(one_by_one, len(points), args.repeats)
            if case == "point":
                print(f"{name:7s} {case:8s} {1:6d} {'-':>9s} {single:10.4f} {'-':>6s}")
                continue
            block = ms_per_eval(lambda: evaluate(points), len(points), args.repeats)
            print(f"{name:7s} {case:8s} {len(points):6d} {block:9.4f} {single:10.4f} "
                  f"{single / block:6.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
