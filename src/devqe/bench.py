"""Benchmark harness: multi-seed optimizer comparison on molecular fixtures,
analytic test-function runs, and 1-D potential-energy-surface scans.

All output is plain CSV ('.' decimal, no locale); plotting is external.
"""

from __future__ import annotations

import csv
import itertools
import os
from functools import partial

import numpy as np

from . import de as de_mod
from . import local as local_mod
from .ansatz import default_ansatz
from .integrals import FcidumpError, MolecularIntegrals, load_fcidump
from .orbitals import RUN_FAILURES, MacroConfig, is_run_failure, run_sa_oo_vqe
from .savqe import EnsembleSpec, OptimizerChoice, Sector, closed_shell_problem, run_sa_vqe

N_REFERENCES = 2  # the Hartree-Fock and singlet-excited references of every run


class UsageError(ValueError):
    """Bad configuration or command usage; maps to exit code 2."""


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def rosenbrock(x):
    x = np.asarray(x, dtype=float)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def rastrigin(x):
    x = np.asarray(x, dtype=float)
    return float(10.0 * x.size + np.sum(x**2 - 10.0 * np.cos(2.0 * np.pi * x)))


# The batch protocol (devqe.de): the same expressions row by row over a C-ordered
# (R, D) block, whose rows numpy sums exactly as it sums a single row.
def _sphere_rows(xs):
    return np.sum(np.ascontiguousarray(xs) ** 2, axis=-1)


def _rosenbrock_rows(xs):
    x = np.ascontiguousarray(xs, dtype=float)
    return np.sum(100.0 * (x[:, 1:] - x[:, :-1] ** 2) ** 2 + (1.0 - x[:, :-1]) ** 2, axis=-1)


def _rastrigin_rows(xs):
    x = np.ascontiguousarray(xs, dtype=float)
    return 10.0 * x.shape[-1] + np.sum(x**2 - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


sphere.batch = _sphere_rows
rosenbrock.batch = _rosenbrock_rows
rastrigin.batch = _rastrigin_rows


TEST_FUNCTIONS = {
    "sphere": (sphere, (-5.0, 5.0)),
    "rosenbrock": (rosenbrock, (-5.0, 10.0)),
    "rastrigin": (rastrigin, (-5.12, 5.12)),
}

LOCAL_METHODS = ("bfgs", "gd")
UNAVAILABLE_METHODS = ("cobyla", "slsqp")  # external-library optimizers, not emulated

DE_METHODS = {
    f"de_{strategy}_{tag}": (strategy, crossover)
    for strategy in de_mod.STRATEGIES
    for tag, crossover in (("bin", "binomial"), ("exp", "exponential"))
}


def available_methods():
    return LOCAL_METHODS + tuple(sorted(DE_METHODS))


def method_error(name) -> UsageError:
    message = f"unknown optimizer {name!r}; valid: {', '.join(available_methods())}"
    if name in UNAVAILABLE_METHODS:
        message = (
            f"optimizer {name!r} is not available (external-library method, "
            f"not emulated); valid: {', '.join(available_methods())}"
        )
    return UsageError(message)


# config key -> (constructor keyword, parser) for settings a config may override;
# the method name alone fixes a DE variant's strategy and crossover (DE_METHODS)
DE_SETTINGS = {
    "np": ("np_size", int),
    "f": ("f", float),
    "cr": ("cr", float),
    "boundary": ("boundary", str),
}
MACRO_SETTINGS = {"macro_tol": ("macro_tol", float), "max_macro_iters": ("max_macro_iters", int)}

# the harness's DE stop rule for the keys a config leaves unset
DE_TERMINATION_DEFAULTS = {"max_evals": 3000, "max_generations": None, "abs_tol": 1e-8,
                           "n_tol": 10}

# the settings tables' keys and the keys the commands read themselves
CONFIG_KEYS = {
    "molecule", "optimizer", "seeds", "weights", "function", "dimension",
    *DE_SETTINGS, *MACRO_SETTINGS, *DE_TERMINATION_DEFAULTS,
}


def parse_config(path) -> dict:
    """Flat key=value UTF-8 file; unknown or repeated keys are errors, not warnings."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text: {exc}") from exc
    config, key_lines = {}, {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{line_no}: unknown key {key!r}")
        if key in key_lines:
            raise UsageError(f"{path}:{line_no}: key {key!r} repeats line {key_lines[key]}")
        config[key] = value.strip()
        key_lines[key] = line_no
    return config


def parse_seeds(text) -> list:
    if text is None or str(text).strip() == "":
        return list(range(10))
    try:
        seeds = [int(tok) for tok in str(text).replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"could not parse seed list {text!r}")
    if not seeds:
        raise UsageError(f"seed list {text!r} names no seed")
    if min(seeds) < 0:
        raise UsageError(f"seed list {text!r} names a negative seed")
    return seeds


def parse_seed(text) -> int:
    """The seed of a single-run command (vqe, saoo, scan); 0 when unset."""
    unset = text is None or str(text).strip() == ""
    seeds = parse_seeds("0" if unset else text)
    if len(seeds) > 1:
        raise UsageError(f"this command runs one seed; seed list {text!r} names {len(seeds)}")
    return seeds[0]


def parse_dimension(text) -> int:
    """The dimension of optimize's test function: an integer >= 1."""
    dim = int(text) if str(text).strip().isdecimal() else 0
    if dim < 1:
        raise UsageError(f"dimension must be an integer >= 1, not {text!r}")
    return dim


def _is_set(config: dict, key) -> bool:
    return config.get(key) not in (None, "")


def parse_weights(text) -> EnsembleSpec:
    """Ensemble weights from a config value; unset means the EnsembleSpec default.

    Every run builds the two SA-VQE references (Sector.build), so a weights
    entry needs exactly two.
    """
    if text is None or str(text).strip() == "":
        return EnsembleSpec()
    try:
        spec = EnsembleSpec(tuple(float(tok) for tok in str(text).replace(",", " ").split()))
    except ValueError as exc:
        raise UsageError(f"bad weights {text!r}: {exc}")
    if spec.n_states != N_REFERENCES:
        raise UsageError(
            f"bad weights {text!r}: {spec.n_states} given, one for each of the "
            f"{N_REFERENCES} reference states"
        )
    return spec


def _overrides(config: dict, settings: dict) -> dict:
    """Constructor keywords for the keys the config sets; defaults apply otherwise."""
    return {
        name: parse(config[key])
        for key, (name, parse) in settings.items()
        if _is_set(config, key)
    }


def _de_termination(config: dict) -> de_mod.TerminationCriteria:
    def get(key):
        return config[key] if _is_set(config, key) else DE_TERMINATION_DEFAULTS[key]

    max_generations = get("max_generations")
    return de_mod.TerminationCriteria(
        max_evals=int(get("max_evals")),
        max_generations=None if max_generations is None else int(max_generations),
        abs_tol=(float(get("abs_tol")), int(get("n_tol"))),
    )


def build_optimizer(method: str, config: dict, seed: int) -> OptimizerChoice:
    if method in LOCAL_METHODS:
        return OptimizerChoice(method)
    if method in DE_METHODS:
        strategy, crossover = DE_METHODS[method]
        try:
            de_config = de_mod.DEConfig(
                strategy=strategy,
                crossover=crossover,
                **_overrides(config, DE_SETTINGS),
                seed=seed,
                termination=_de_termination(config),
            )
        except ValueError as exc:
            raise UsageError(f"bad DE settings: {exc}")
        return OptimizerChoice("de", de_config=de_config)
    raise method_error(method)


def parse_macro_config(config: dict) -> MacroConfig:
    """The macro-loop settings a config gives; a bad one is a UsageError."""
    try:
        return MacroConfig(**_overrides(config, MACRO_SETTINGS))
    except ValueError as exc:
        raise UsageError(f"bad macro settings: {exc}")


def _write_csv(path, header, rows) -> str:
    """One CSV file: the header row, then the rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# optimize: analytic test functions


def cmd_optimize(config: dict, out_dir) -> str:
    function_name = config.get("function")
    if function_name not in TEST_FUNCTIONS:
        raise UsageError(
            f"unknown function {function_name!r}; valid: {', '.join(sorted(TEST_FUNCTIONS))}"
        )
    objective, (lo, hi) = TEST_FUNCTIONS[function_name]
    dim = parse_dimension(config.get("dimension", "2"))
    method = config.get("optimizer", "bfgs")
    seeds = parse_seeds(config.get("seeds"))
    choices = [build_optimizer(method, config, seed) for seed in seeds]

    rows, best, evals = [], [], []
    for seed, choice in zip(seeds, choices):
        if choice.kind == "de":
            bounds = de_mod.Bounds.box(lo, hi, dim)
            result = de_mod.de_minimize(objective, bounds, choice.de_config)
            best_f = result.best_fitness
        else:
            x0 = np.full(dim, lo + 0.8 * (hi - lo))
            runner = (
                local_mod.bfgs_minimize if choice.kind == "bfgs" else local_mod.gradient_descent
            )
            result = runner(objective, x0, choice.local_config)
            best_f = result.fun
        rows.append(["run", method, seed, repr(best_f), result.evaluations, result.stop_reason])
        best.append(best_f)
        evals.append(result.evaluations)
    mean_best, mean_evals = float(np.mean(best)), float(np.mean(evals))
    rows.append(["summary", method, "", repr(mean_best), repr(mean_evals), ""])

    os.makedirs(out_dir, exist_ok=True)
    return _write_csv(os.path.join(out_dir, "optimize.csv"),
                      ["row", "method", "seed", "best_f", "evaluations", "stop_reason"], rows)


# ---------------------------------------------------------------------------
# molecule runs


class UnsupportedMolecule(UsageError):
    """An FCIDUMP whose molecule the closed-shell sector cannot represent."""


class AllRunsFailed(RuntimeError):
    """Every run of a compare, or every point of a scan, failed; failures.csv
    holds each failure's message."""


def load_molecule(path) -> MolecularIntegrals:
    """The integrals of an FCIDUMP file, checked where they are loaded: an
    odd NELEC, MS2 != 0 or no virtual orbital is an UnsupportedMolecule."""
    integrals = load_fcidump(path)
    problem = closed_shell_problem(integrals.n_orb, integrals.n_elec, integrals.ms2)
    if problem is not None:
        raise UnsupportedMolecule(f"{path}: {problem}")
    return integrals


def run_molecule(integrals, method: str, seed: int, config: dict, mode: str):
    """One full run on a molecule: mode "saoo" (macro loop, an SAOOVQEResult) or
    "savqe" (fixed orbitals, a single VQE stage, an SAVQEResult)."""
    optimizer = build_optimizer(method, config, seed)
    weights = parse_weights(config.get("weights")).weights
    ansatz = default_ansatz(integrals.n_orb, integrals.n_elec)

    if mode == "savqe":
        return run_sa_vqe(Sector.build(integrals, ansatz), weights, optimizer)
    return run_sa_oo_vqe(integrals, ansatz, weights=weights, inner_optimizer=optimizer,
                         macro_config=parse_macro_config(config))


def _effective_settings(config, methods, n_params) -> dict:
    """The settings the runs use, read back from the objects they are built from."""
    macro = parse_macro_config(config)
    settings = {
        "macro_tol": macro.macro_tol,
        "max_macro_iters": macro.max_macro_iters,
        "weights": " ".join(str(w) for w in parse_weights(config.get("weights")).weights),
    }
    de_methods = [method for method in methods if method in DE_METHODS]
    if de_methods:  # the seed sets no setting shown here
        de_config = build_optimizer(de_methods[0], config, 0).de_config
        stop = de_config.termination
        settings.update(
            np=de_config.population_size(n_params),
            f=de_config.f,
            cr=de_config.cr,
            boundary=de_config.boundary,
            p_best_fraction=de_config.p_best_fraction,
            max_evals=stop.max_evals,
            max_generations=stop.max_generations,  # None is written as ""
            abs_tol=stop.abs_tol[0],
            n_tol=stop.abs_tol[1],
        )
    return settings


def _run_grid(config: dict, out_dir, mode: str, points, methods, seeds, recorded=()):
    """Every (point, method, seed) cell under one mode, points outermost.

    A point is (label, load), load() giving its integrals.  The shared settings
    are checked before out_dir is made, and so is each list: a point label,
    method or seed named twice would run twice and write its files over.
    Returns the cells (label, method, seed, run) and the failures (label,
    method, seed, exc): run is None for a run failure (is_run_failure) or a
    `recorded` error; any other error propagates.
    """
    if mode not in ("savqe", "saoo"):
        raise UsageError(f"unknown mode {mode!r}; valid: savqe, saoo")
    for kind, entries in (("point", [label for label, _ in points]), ("method", methods),
                          ("seed", seeds)):
        repeated = [entry for entry in entries if entries.count(entry) > 1]
        if repeated:
            raise UsageError(f"{kind} {repeated[0]!r} is named more than once")
    for method in methods:
        build_optimizer(method, config, seeds[0])
    parse_weights(config.get("weights"))
    parse_macro_config(config)

    os.makedirs(out_dir, exist_ok=True)
    cells, failures = [], []
    for (label, load), method, seed in itertools.product(points, methods, seeds):
        try:
            run = run_molecule(load(), method, seed, config, mode)
        except (*RUN_FAILURES, *recorded) as exc:
            if not (is_run_failure(exc) or isinstance(exc, recorded)):
                raise
            failures.append((label, method, seed, exc))
            run = None
        cells.append((label, method, seed, run))
    return cells, failures


def cmd_compare(config: dict, out_dir) -> str:
    fcidump_path = config.get("molecule")
    if not fcidump_path:
        raise UsageError("compare requires molecule=<fcidump path> in the config")
    integrals = load_molecule(fcidump_path)
    methods = str(config.get("optimizer", "bfgs")).replace(",", " ").split()
    if not methods:
        raise UsageError(f"optimizer list {config.get('optimizer')!r} names no optimizer")
    seeds = parse_seeds(config.get("seeds"))
    cells, failures = _run_grid(config, out_dir, "saoo", [(fcidump_path, lambda: integrals)],
                                methods, seeds)

    # one key,value row per setting: the config as given, with every setting
    # the runs use replaced by its effective value
    n_params = default_ansatz(integrals.n_orb, integrals.n_elec).parameter_count
    manifest = {"mode": "saoo", "methods": " ".join(methods),
                "seeds": " ".join(str(s) for s in seeds)}
    manifest.update((key, config[key]) for key in sorted(config) if key not in manifest)
    manifest.update(_effective_settings(config, methods, n_params))
    _write_csv(os.path.join(out_dir, "manifest.csv"), ["key", "value"], manifest.items())

    run_rows, summary_rows = [], []
    for index, method in enumerate(methods):  # the cells come method by method
        runs = []
        for _, _, seed, run in cells[index * len(seeds):(index + 1) * len(seeds)]:
            if run is not None:
                run.trace.write_csv(os.path.join(out_dir, f"trace_{method}_{seed}.csv"))
                run_rows.append([method, seed, repr(run.state_energies[0]),
                                 repr(run.state_energies[1]), repr(run.e_sa), run.evaluations])
                runs.append(run)
        if runs:
            evals = [r.evaluations for r in runs]
            energies = [r.e_sa for r in runs]
            summary_rows.append(
                [method, int(min(evals)), int(max(evals)), repr(float(np.mean(evals))),
                 repr(float(min(energies))), repr(float(max(energies))),
                 repr(float(np.mean(energies)))]
            )

    if failures:
        _write_csv(os.path.join(out_dir, "failures.csv"), ["method", "seed", "error"],
                   [(method, seed, str(exc)) for _, method, seed, exc in failures])
    _write_csv(os.path.join(out_dir, "runs.csv"),
               ["method", "seed", "e0", "e1", "e_sa", "evaluations"], run_rows)
    summary_path = _write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["method", "evals_min", "evals_max", "evals_mean", "E_min", "E_max", "E_mean"],
        summary_rows,
    )
    if not summary_rows:
        raise AllRunsFailed("every run failed; see failures.csv")
    return summary_path


def cmd_scan(config: dict, out_dir, mode: str) -> str:
    scan_dir = config.get("molecule")
    if not scan_dir or not os.path.isdir(scan_dir):
        raise UsageError("scan requires molecule=<directory of FCIDUMP files>")
    files = sorted(
        f for f in os.listdir(scan_dir) if not f.startswith(".") and
        os.path.isfile(os.path.join(scan_dir, f)) and not f.lower().endswith(".md")
    )
    if not files:
        raise UsageError(f"no FCIDUMP files found in {scan_dir}")
    # a malformed or unsupported file fails its own point, not the scan
    points = [(os.path.splitext(name)[0], partial(load_molecule, os.path.join(scan_dir, name)))
              for name in files]
    cells, failures = _run_grid(config, out_dir, mode, points, [config.get("optimizer", "bfgs")],
                                [parse_seed(config.get("seeds"))],
                                recorded=(FcidumpError, UnsupportedMolecule))
    rows = [[label, "", "", "", mode, "failed"] if run is None else
            [label, repr(run.state_energies[0]), repr(run.state_energies[1]), repr(run.e_sa),
             mode, "ok"] for label, _, _, run in cells]
    path = _write_csv(os.path.join(out_dir, f"scan_{mode}.csv"),
                      ["coordinate_label", "e0", "e1", "e_sa", "mode", "status"], rows)
    if failures:
        _write_csv(os.path.join(out_dir, "failures.csv"), ["coordinate_label", "error"],
                   [(label, str(exc)) for label, _, _, exc in failures])
    if len(failures) == len(cells):
        raise AllRunsFailed("every point failed; see failures.csv")
    return path


def cmd_single(config: dict, out_dir, mode: str) -> str:
    """One molecule run (the `vqe` and `saoo` subcommands); a run failure ends
    the command."""
    fcidump_path = config.get("molecule")
    if not fcidump_path:
        raise UsageError(f"{mode} requires molecule=<fcidump path> in the config")
    integrals = load_molecule(fcidump_path)
    method = config.get("optimizer", "bfgs")
    seed = parse_seed(config.get("seeds"))
    cells, failures = _run_grid(config, out_dir, mode, [(fcidump_path, lambda: integrals)],
                                [method], [seed])
    if failures:
        raise failures[0][3]

    run = cells[0][3]
    run.trace.write_csv(os.path.join(out_dir, f"trace_{method}_{seed}.csv"))
    e_lo, e_hi = sorted(run.state_energies)
    return _write_csv(
        os.path.join(out_dir, "result.csv"),
        ["method", "seed", "e0", "e1", "e_lo", "e_hi", "e_sa", "evaluations", "mode"],
        [[method, seed, repr(run.state_energies[0]), repr(run.state_energies[1]),
          repr(e_lo), repr(e_hi), repr(run.e_sa), run.evaluations, mode]],
    )
