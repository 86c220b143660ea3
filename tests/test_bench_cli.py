"""Harness commands and the CLI surface: CSV schemas, exit codes, config."""

import csv
import os

import numpy as np
import pytest

from devqe.bench import (
    SUMMARY_HEADER,
    UsageError,
    cmd_compare,
    cmd_optimize,
    cmd_scan,
    cmd_single,
    parse_config,
    parse_seeds,
    parse_weights,
    rastrigin,
    rosenbrock,
    sphere,
)
from devqe import bench as bench_mod
from devqe.cli import main
from devqe.de import DEConfig, ObjectiveError
from devqe.local import GradientError
from devqe.orbitals import MacroConfig, MacroLoopError
from devqe.savqe import EnsembleSpec
from tests.conftest import fixture_path


def write_config(tmp_path, **kwargs):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in kwargs.items()))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def wrapped(cause):
    """The ObjectiveError DE raises when its objective raised `cause`."""
    try:
        raise ObjectiveError(f"objective raised: {cause}") from cause
    except ObjectiveError as exc:
        return exc


# exceptions a run may raise that a harness records as a failed run, and
# programming errors that must end the command instead
RUN_FAILURES = [
    MacroLoopError("no macro iteration completed"),
    GradientError("non-finite stencil value at coordinate 0", 0),
    np.linalg.LinAlgError("Singular matrix"),
    wrapped(np.linalg.LinAlgError("Singular matrix")),
]
PROGRAMMING_ERRORS = [
    TypeError("unsupported operand"),
    AttributeError("no attribute 'rdms'"),
    wrapped(TypeError("unsupported operand")),
    NotImplementedError("stage not written"),  # RuntimeError subclasses
    RecursionError("maximum recursion depth exceeded"),
]

# H2 headers the closed-shell sector cannot represent, with the reason given
UNSUPPORTED_HEADERS = {
    "odd_nelec": ("NORB=2,NELEC=1,MS2=0", "NELEC = 1 is odd"),
    "ms2": ("NORB=2,NELEC=2,MS2=2", "MS2 = 2"),
    "no_virtual": ("NORB=2,NELEC=4,MS2=0", "NELEC = 4 in NORB = 2 orbitals"),
}


def write_unsupported(path, case):
    """The H2 fixture with the header of UNSUPPORTED_HEADERS[case]."""
    text = open(fixture_path("h2_sto3g.fcidump")).read()
    header = UNSUPPORTED_HEADERS[case][0]
    path.write_text(text.replace("NORB=2,NELEC=2,MS2=0", header, 1))
    return str(path)


def write_norb(path, norb):
    """The H2 fixture with NORB = norb in its header."""
    text = open(fixture_path("h2_sto3g.fcidump")).read()
    path.write_text(text.replace("NORB=2", f"NORB={norb}", 1))
    return str(path)


def write_random_bytes(path):
    """200 seeded random bytes that are not UTF-8 text."""
    data = np.random.default_rng(0).bytes(200)
    with pytest.raises(UnicodeDecodeError):
        data.decode("utf-8")
    path.write_bytes(data)
    return str(path)


class TestConfig:
    def test_unknown_key_is_an_error(self, tmp_path):
        path = write_config(tmp_path, optimizer="bfgs", warp_factor="9")
        with pytest.raises(UsageError):
            parse_config(path)

    def test_seeds_default_to_ten(self):
        assert parse_seeds(None) == list(range(10))

    def test_seed_list_parsing(self):
        assert parse_seeds("3, 1,2") == [3, 1, 2]

    def test_weights_checked_where_parsed(self):
        assert parse_weights("").weights == EnsembleSpec().weights
        assert parse_weights("0.2, 0.8").weights == (0.2, 0.8)
        with pytest.raises(UsageError):
            parse_weights("0.5 0.6")

    @pytest.mark.parametrize("text", ["1.0", "0.3,0.3,0.4"])
    def test_weights_count_the_two_references(self, text):
        with pytest.raises(UsageError, match="2 reference states"):
            parse_weights(text)


class TestTestFunctions:
    @pytest.mark.parametrize("fn", [sphere, rosenbrock, rastrigin])
    @pytest.mark.parametrize("dim", [1, 2, 5, 7, 8, 9, 17])  # across numpy's 8-wide sum blocks
    def test_batch_is_the_function_row_by_row(self, fn, dim):
        xs = np.random.default_rng(dim).uniform(-5.0, 5.0, (200, dim))
        expected = np.array([fn(x) for x in xs])
        assert fn.batch(xs).tobytes() == expected.tobytes()


class TestOptimize:
    def test_sphere_bfgs_reference(self, tmp_path):
        config = {"function": "sphere", "dimension": "2", "optimizer": "bfgs",
                  "seeds": "0"}
        path = cmd_optimize(config, str(tmp_path))
        rows = read_rows(path)
        run_rows = [r for r in rows if r[0] == "run"]
        assert len(run_rows) == 1
        assert float(run_rows[0][3]) < 1e-10
        assert int(run_rows[0][4]) > 0

    def test_duplicate_seeds_give_identical_rows(self, tmp_path):
        config = {"function": "rastrigin", "dimension": "3",
                  "optimizer": "de_rand1_bin", "seeds": "1,1",
                  "max_generations": "25", "max_evals": "100000"}
        path = cmd_optimize(config, str(tmp_path))
        rows = [r for r in read_rows(path) if r[0] == "run"]
        assert rows[0][2:] == rows[1][2:]

    def test_unknown_function_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            cmd_optimize({"function": "mystery"}, str(tmp_path))

    def test_unknown_optimizer_names_valid_set(self, tmp_path):
        with pytest.raises(UsageError) as excinfo:
            cmd_optimize(
                {"function": "sphere", "optimizer": "annealing"}, str(tmp_path)
            )
        assert "bfgs" in str(excinfo.value)
        assert "de_rand1_bin" in str(excinfo.value)

    def test_external_library_methods_flagged_unavailable(self, tmp_path):
        with pytest.raises(UsageError) as excinfo:
            cmd_optimize({"function": "sphere", "optimizer": "cobyla"}, str(tmp_path))
        assert "not available" in str(excinfo.value)


class TestCompare:
    def test_bfgs_three_seeds_collapse(self, tmp_path):
        config = {
            "molecule": fixture_path("h2_sto3g.fcidump"),
            "optimizer": "bfgs",
            "seeds": "0,1,2",
        }
        summary = cmd_compare(config, str(tmp_path))
        with open(summary) as fh:
            header = fh.readline().strip()
        assert header == SUMMARY_HEADER
        rows = read_rows(summary)[1:]
        assert len(rows) == 1
        method, evals_min, evals_max, evals_mean = rows[0][:4]
        assert method == "bfgs"
        assert evals_min == evals_max
        assert float(rows[0][4]) == float(rows[0][5])  # E_min == E_max

    def test_trace_files_and_schema(self, tmp_path):
        config = {
            "molecule": fixture_path("h2_sto3g.fcidump"),
            "optimizer": "bfgs",
            "seeds": "0",
        }
        cmd_compare(config, str(tmp_path))
        trace_path = os.path.join(str(tmp_path), "trace_bfgs_0.csv")
        rows = read_rows(trace_path)
        assert rows[0] == ["cum_evals", "scope", "macro_index", "e_sa", "e0", "e1"]
        scopes = {row[1] for row in rows[1:]}
        assert scopes == {"optimizer_step", "sa_oo_vqe_iteration"}
        # the three plot perspectives rebuild by filtering on scope alone
        macro_rows = [r for r in rows[1:] if r[1] == "sa_oo_vqe_iteration"]
        step_rows = [r for r in rows[1:] if r[1] == "optimizer_step"]
        assert macro_rows and step_rows
        assert [int(r[2]) for r in macro_rows] == list(range(1, len(macro_rows) + 1))
        cums = [int(r[0]) for r in rows[1:]]
        assert cums == sorted(cums)

    def test_summary_recomputes_from_per_seed_rows(self, tmp_path):
        config = {
            "molecule": fixture_path("h2_sto3g.fcidump"),
            "optimizer": "bfgs,de_rand1_bin",
            "seeds": "0,1",
            "max_evals": "400",
        }
        summary = cmd_compare(config, str(tmp_path))
        runs = read_rows(os.path.join(str(tmp_path), "runs.csv"))[1:]
        summaries = read_rows(summary)[1:]
        for row in summaries:
            method = row[0]
            seeds_rows = [r for r in runs if r[0] == method]
            evals = [int(r[5]) for r in seeds_rows]
            energies = [float(r[4]) for r in seeds_rows]
            assert int(row[1]) == min(evals)
            assert int(row[2]) == max(evals)
            assert float(row[3]) == pytest.approx(np.mean(evals))
            assert float(row[4]) == pytest.approx(min(energies))
            assert float(row[5]) == pytest.approx(max(energies))
            assert float(row[6]) == pytest.approx(np.mean(energies))

    def test_manifest_written(self, tmp_path):
        config = {
            "molecule": fixture_path("h2_sto3g.fcidump"),
            "optimizer": "bfgs",
            "seeds": "0",
        }
        cmd_compare(config, str(tmp_path))
        manifest = read_rows(os.path.join(str(tmp_path), "manifest.csv"))
        keys = {row[0] for row in manifest[1:]}
        assert {"mode", "methods", "seeds", "molecule"} <= keys

    @pytest.mark.parametrize("overrides, f", [({}, DEConfig().f), ({"f": "0.7"}, 0.7)])
    def test_manifest_holds_effective_settings(self, tmp_path, overrides, f):
        config = {
            "molecule": fixture_path("h2_sto3g.fcidump"),
            "optimizer": "de_rand1_bin",
            "seeds": "0",
            "max_evals": "150",
            "max_macro_iters": "2",
            **overrides,
        }
        cmd_compare(config, str(tmp_path))
        rows = read_rows(os.path.join(str(tmp_path), "manifest.csv"))[1:]
        keys = [row[0] for row in rows]
        assert len(keys) == len(set(keys))  # one row per setting
        manifest = dict(rows)
        assert float(manifest["f"]) == f
        assert float(manifest["cr"]) == DEConfig().cr
        assert int(manifest["np"]) == DEConfig().population_size(2)  # H2: 2 parameters
        assert int(manifest["max_evals"]) == 150
        assert int(manifest["max_macro_iters"]) == 2
        assert float(manifest["macro_tol"]) == MacroConfig().macro_tol
        assert manifest["weights"] == "0.5 0.5"

    def test_per_run_failures_recorded_and_rest_continue(self, tmp_path, monkeypatch):
        # every de_rand2_bin run fails at run time, while bfgs still completes
        # and reaches the summary
        real_run = bench_mod.run_molecule

        def failing_de(integrals, method, seed, config, mode):
            if method == "de_rand2_bin":
                raise MacroLoopError("numerical failure")
            return real_run(integrals, method, seed, config, mode)

        monkeypatch.setattr(bench_mod, "run_molecule", failing_de)
        config = {
            "molecule": fixture_path("h2_sto3g.fcidump"),
            "optimizer": "bfgs,de_rand2_bin",
            "seeds": "0,1",
        }
        summary = cmd_compare(config, str(tmp_path))
        rows = read_rows(summary)[1:]
        assert [r[0] for r in rows] == ["bfgs"]
        failures = read_rows(os.path.join(str(tmp_path), "failures.csv"))
        assert failures[0] == ["method", "seed", "error"]
        assert {(r[0], r[1]) for r in failures[1:]} == {
            ("de_rand2_bin", "0"),
            ("de_rand2_bin", "1"),
        }


    @pytest.mark.parametrize("error", RUN_FAILURES, ids=lambda e: type(e).__name__)
    def test_run_failure_recorded(self, tmp_path, monkeypatch, error):
        real_run = bench_mod.run_molecule

        def failing_seed_one(integrals, method, seed, config, mode):
            if seed == 1:
                raise error
            return real_run(integrals, method, seed, config, mode)

        monkeypatch.setattr(bench_mod, "run_molecule", failing_seed_one)
        config = {"molecule": fixture_path("h2_sto3g.fcidump"), "optimizer": "bfgs",
                  "seeds": "0,1"}
        cmd_compare(config, str(tmp_path))
        failures = read_rows(os.path.join(str(tmp_path), "failures.csv"))
        assert failures[1:] == [["bfgs", "1", str(error)]]

    @pytest.mark.parametrize("error", PROGRAMMING_ERRORS, ids=lambda e: type(e).__name__)
    def test_programming_error_ends_the_command(self, tmp_path, monkeypatch, error):
        calls = []

        def broken(*args):
            calls.append(args)
            raise error

        monkeypatch.setattr(bench_mod, "run_molecule", broken)
        config = write_config(tmp_path, molecule=fixture_path("h2_sto3g.fcidump"),
                              optimizer="bfgs", seeds="0,1")
        out = tmp_path / "out"
        with pytest.raises(type(error)):
            cmd_compare(bench_mod.parse_config(config), str(out))
        assert len(calls) == 1
        assert not (out / "failures.csv").exists()
        with pytest.raises(type(error)):
            main(["compare", "--config", config, "--out", str(out)])


class TestScan:
    def test_savqe_weight_arithmetic(self, tmp_path, h2_scan_dir):
        config = {"molecule": h2_scan_dir, "optimizer": "bfgs"}
        path = cmd_scan(config, str(tmp_path), "savqe")
        rows = read_rows(path)[1:]
        assert len(rows) == 3
        for label, e0, e1, e_sa, mode, status in rows:
            assert status == "ok"
            assert mode == "savqe"
            assert float(e_sa) == pytest.approx(0.5 * (float(e0) + float(e1)))

    def test_saoo_not_above_savqe(self, tmp_path, h2_scan_dir):
        config = {"molecule": h2_scan_dir, "optimizer": "bfgs"}
        fixed = read_rows(cmd_scan(config, str(tmp_path), "savqe"))[1:]
        relaxed = read_rows(cmd_scan(config, str(tmp_path), "saoo"))[1:]
        for fixed_row, relaxed_row in zip(fixed, relaxed):
            assert relaxed_row[0] == fixed_row[0]
            assert float(relaxed_row[1]) <= float(fixed_row[1]) + 1e-8  # E0
            assert float(relaxed_row[3]) <= float(fixed_row[3]) + 1e-8  # E_SA

    def test_failures_recorded_with_their_messages(self, tmp_path, h2_scan_dir):
        import shutil

        scan = tmp_path / "scan"
        shutil.copytree(h2_scan_dir, scan)
        (scan / "h2_r9.99.fcidump").write_text("not an fcidump\n")
        out = tmp_path / "out"
        rows = read_rows(cmd_scan({"molecule": str(scan), "optimizer": "bfgs"}, str(out), "savqe"))
        assert [(r[0], r[5]) for r in rows[1:]] == [
            ("h2_r1.10", "ok"), ("h2_r1.40", "ok"), ("h2_r2.00", "ok"), ("h2_r9.99", "failed"),
        ]
        failures = read_rows(os.path.join(str(out), "failures.csv"))
        assert failures == [
            ["coordinate_label", "error"],
            ["h2_r9.99", "no &END terminator found in header"],
        ]

    def test_non_utf8_point_recorded(self, tmp_path, h2_scan_dir):
        import shutil

        scan = tmp_path / "scan"
        shutil.copytree(h2_scan_dir, scan)
        write_random_bytes(scan / "h2_r9.99.fcidump")
        out = tmp_path / "out"
        rows = read_rows(cmd_scan({"molecule": str(scan), "optimizer": "bfgs"}, str(out), "savqe"))
        assert [(r[0], r[5]) for r in rows[1:]] == [
            ("h2_r1.10", "ok"), ("h2_r1.40", "ok"), ("h2_r2.00", "ok"), ("h2_r9.99", "failed"),
        ]
        failures = read_rows(os.path.join(str(out), "failures.csv"))
        assert [r[0] for r in failures[1:]] == ["h2_r9.99"]
        assert failures[1][1].startswith("not UTF-8 text")

    @pytest.mark.parametrize("error", RUN_FAILURES, ids=lambda e: type(e).__name__)
    def test_run_failure_recorded(self, tmp_path, h2_scan_dir, monkeypatch, error):
        real_run = bench_mod.run_molecule

        def failing_first(integrals, method, seed, config, mode):
            if not calls:
                calls.append(mode)
                raise error
            return real_run(integrals, method, seed, config, mode)

        calls = []
        monkeypatch.setattr(bench_mod, "run_molecule", failing_first)
        rows = read_rows(cmd_scan({"molecule": h2_scan_dir, "optimizer": "bfgs"},
                                  str(tmp_path), "savqe"))
        assert [r[5] for r in rows[1:]] == ["failed", "ok", "ok"]
        failures = read_rows(os.path.join(str(tmp_path), "failures.csv"))
        assert failures[1:] == [["h2_r1.10", str(error)]]

    @pytest.mark.parametrize("error", PROGRAMMING_ERRORS, ids=lambda e: type(e).__name__)
    def test_programming_error_ends_the_command(self, tmp_path, h2_scan_dir, monkeypatch,
                                                error):
        calls = []

        def broken(*args):
            calls.append(args)
            raise error

        monkeypatch.setattr(bench_mod, "run_molecule", broken)
        out = tmp_path / "out"
        with pytest.raises(type(error)):
            cmd_scan({"molecule": h2_scan_dir, "optimizer": "bfgs"}, str(out), "savqe")
        assert len(calls) == 1
        assert not (out / "failures.csv").exists()
        config = write_config(tmp_path, molecule=h2_scan_dir, optimizer="bfgs")
        with pytest.raises(type(error)):
            main(["scan", "--config", config, "--out", str(out)])

    def test_every_point_failing_raises(self, tmp_path, h2_scan_dir, monkeypatch):
        def failing(*args):
            raise MacroLoopError("no macro iteration completed")

        monkeypatch.setattr(bench_mod, "run_molecule", failing)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="every point failed; see failures.csv"):
            cmd_scan({"molecule": h2_scan_dir, "optimizer": "bfgs"}, str(out), "saoo")
        assert [r[5] for r in read_rows(out / "scan_saoo.csv")[1:]] == ["failed"] * 3
        assert len(read_rows(out / "failures.csv")) == 4
        config = write_config(tmp_path, molecule=h2_scan_dir, optimizer="bfgs")
        assert main(["scan", "--config", config, "--out", str(out), "--mode", "saoo"]) == 1

    def test_no_failures_file_when_every_point_runs(self, tmp_path, h2_scan_dir):
        cmd_scan({"molecule": h2_scan_dir, "optimizer": "bfgs"}, str(tmp_path), "savqe")
        assert not os.path.exists(os.path.join(str(tmp_path), "failures.csv"))

    @pytest.mark.parametrize(
        "setting",
        [{"weights": "1 2"}, {"weights": "nan nan"}, {"macro_tol": "nan"},
         {"max_macro_iters": "0"}, {"optimizer": "de_rand1_bin", "f": "nan"}],
        ids=["weights", "nan_weights", "macro_tol", "max_macro_iters", "de_f"],
    )
    def test_shared_settings_checked_before_the_first_point(self, tmp_path, h2_scan_dir,
                                                            setting, monkeypatch):
        def no_run(*args):
            raise AssertionError("a point ran")

        monkeypatch.setattr(bench_mod, "run_molecule", no_run)
        config = {"molecule": h2_scan_dir, "optimizer": "bfgs", **setting}
        with pytest.raises(UsageError):
            cmd_scan(config, str(tmp_path / "out"), "savqe")
        assert not (tmp_path / "out").exists()

    def test_unsupported_molecules_recorded_and_rest_continue(self, tmp_path, h2_scan_dir):
        import shutil

        scan = tmp_path / "scan"
        shutil.copytree(h2_scan_dir, scan)
        for case in UNSUPPORTED_HEADERS:
            write_unsupported(scan / f"h2_{case}.fcidump", case)
        out = tmp_path / "out"
        rows = read_rows(cmd_scan({"molecule": str(scan), "optimizer": "bfgs"}, str(out), "savqe"))
        assert [(r[0], r[5]) for r in rows[1:]] == [
            ("h2_ms2", "failed"), ("h2_no_virtual", "failed"), ("h2_odd_nelec", "failed"),
            ("h2_r1.10", "ok"), ("h2_r1.40", "ok"), ("h2_r2.00", "ok"),
        ]
        failures = dict(read_rows(os.path.join(str(out), "failures.csv"))[1:])
        for case, (_, reason) in UNSUPPORTED_HEADERS.items():
            assert reason in failures[f"h2_{case}"]

    @pytest.mark.parametrize("norb", [0, -1])
    def test_norb_below_one_recorded_and_rest_continue(self, tmp_path, h2_scan_dir, norb):
        import shutil

        scan = tmp_path / "scan"
        shutil.copytree(h2_scan_dir, scan)
        write_norb(scan / "h2_r0.50.fcidump", norb)
        out = tmp_path / "out"
        rows = read_rows(cmd_scan({"molecule": str(scan), "optimizer": "bfgs"}, str(out), "savqe"))
        assert [(r[0], r[5]) for r in rows[1:]] == [
            ("h2_r0.50", "failed"), ("h2_r1.10", "ok"), ("h2_r1.40", "ok"), ("h2_r2.00", "ok"),
        ]
        failures = read_rows(os.path.join(str(out), "failures.csv"))
        assert failures[1] == ["h2_r0.50", f"NORB must be at least 1, got {norb}"]

    def test_empty_directory_is_usage_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(UsageError):
            cmd_scan({"molecule": str(empty)}, str(tmp_path), "savqe")


class TestSingleCommands:
    def test_vqe_result_csv(self, tmp_path):
        config = {
            "molecule": fixture_path("h2_sto3g.fcidump"),
            "optimizer": "bfgs",
            "seeds": "0",
        }
        path = cmd_single(config, str(tmp_path), "savqe")
        rows = read_rows(path)
        assert rows[0] == [
            "method", "seed", "e0", "e1", "e_lo", "e_hi", "e_sa", "evaluations", "mode",
        ]
        assert rows[1][8] == "savqe"
        # lineage and sorted energies coincide here: no root flip on H2
        assert rows[1][2] == rows[1][4]


class TestCliExitCodes:
    def test_success_exit_zero(self, tmp_path):
        config = write_config(
            tmp_path,
            function="sphere",
            dimension="2",
            optimizer="bfgs",
            seeds="0",
        )
        assert main(["optimize", "--config", config, "--out", str(tmp_path)]) == 0

    def test_usage_error_exit_two(self, tmp_path):
        config = write_config(tmp_path, function="sphere", optimizer="nonsense")
        assert main(["optimize", "--config", config, "--out", str(tmp_path)]) == 2

    def test_unknown_config_key_exit_two(self, tmp_path):
        config = write_config(tmp_path, function="sphere", bogus="1")
        assert main(["optimize", "--config", config, "--out", str(tmp_path)]) == 2

    def test_three_weights_exit_two_before_any_run(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path, molecule=fixture_path("h2_sto3g.fcidump"),
                              optimizer="bfgs", seeds="0", weights="0.3,0.3,0.4")
        assert main(["compare", "--config", config, "--out", str(out)]) == 2
        assert not (out / "manifest.csv").exists()

    @pytest.mark.parametrize(
        "setting",
        [{"weights": "nan nan"}, {"macro_tol": "nan"}, {"max_macro_iters": "0"},
         {"max_macro_iters": "-2"}],
        ids=["nan_weights", "nan_macro_tol", "zero_macro_iters", "negative_macro_iters"],
    )
    def test_bad_saoo_setting_exit_two_before_any_run(self, tmp_path, setting, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the macro loop ran")

        monkeypatch.setattr(bench_mod, "run_sa_oo_vqe", no_run)
        out = tmp_path / "out"
        config = write_config(tmp_path, molecule=fixture_path("h2_sto3g.fcidump"),
                              optimizer="bfgs", seeds="0", **setting)
        assert main(["saoo", "--config", config, "--out", str(out)]) == 2
        assert not (out / "result.csv").exists()

    @pytest.mark.parametrize("command", ["optimize", "vqe", "saoo", "compare", "scan"])
    def test_empty_seed_list_exit_two_before_any_run(self, tmp_path, h2_scan_dir, command):
        molecule = h2_scan_dir if command == "scan" else fixture_path("h2_sto3g.fcidump")
        out = tmp_path / "out"
        config = write_config(tmp_path, molecule=molecule, function="sphere",
                              optimizer="bfgs", seeds=",")
        assert main([command, "--config", config, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["vqe", "saoo", "scan"])
    def test_several_seeds_exit_two_before_any_run(self, tmp_path, h2_scan_dir, command,
                                                   monkeypatch):
        # a single-run command would run the first seed only
        def no_run(*args, **kwargs):
            raise AssertionError("a molecule ran")

        monkeypatch.setattr(bench_mod, "run_molecule", no_run)
        molecule = h2_scan_dir if command == "scan" else fixture_path("h2_sto3g.fcidump")
        out = tmp_path / "out"
        config = write_config(tmp_path, molecule=molecule, optimizer="bfgs")
        argv = [command, "--config", config, "--out", str(out), "--seeds", "3,4,5"]
        assert main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("dimension", ["abc", "0", "-1", "1.5", ""])
    def test_bad_dimension_exit_two_before_any_run(self, tmp_path, dimension):
        out = tmp_path / "out"
        config = write_config(tmp_path, function="sphere", dimension=dimension,
                              optimizer="de_rand1_bin", seeds="0")
        assert main(["optimize", "--config", config, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["optimize", "vqe", "compare"])
    def test_negative_seed_exit_two_before_any_run(self, tmp_path, command):
        out = tmp_path / "out"
        config = write_config(tmp_path, molecule=fixture_path("h2_sto3g.fcidump"),
                              function="sphere", optimizer="de_rand1_bin", max_evals="40")
        argv = [command, "--config", config, "--out", str(out), "--seeds=-1"]
        assert main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("np_size", ["2", "0", "-5"])
    def test_population_too_small_for_strategy_exit_two_before_any_run(self, tmp_path,
                                                                       np_size):
        out = tmp_path / "out"
        config = write_config(tmp_path, function="sphere", optimizer="de_rand1_bin",
                              np=np_size, seeds="0")
        assert main(["optimize", "--config", config, "--out", str(out)]) == 2
        assert not out.exists()

    def test_empty_optimizer_list_exit_two_before_any_run(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path, molecule=fixture_path("h2_sto3g.fcidump"),
                              optimizer=",", seeds="0")
        assert main(["compare", "--config", config, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(UNSUPPORTED_HEADERS))
    @pytest.mark.parametrize("command", ["vqe", "saoo", "compare"])
    def test_unsupported_molecule_exit_two_before_any_run(self, tmp_path, command, case,
                                                          monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("a molecule ran")

        monkeypatch.setattr(bench_mod, "run_molecule", no_run)
        molecule = write_unsupported(tmp_path / "mol.fcidump", case)
        out = tmp_path / "out"
        config = write_config(tmp_path, molecule=molecule, optimizer="bfgs", seeds="0")
        assert main([command, "--config", config, "--out", str(out)]) == 2
        assert UNSUPPORTED_HEADERS[case][1] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("norb", [0, -1])
    def test_norb_below_one_is_reported_as_a_header_error(self, tmp_path, norb, capsys):
        molecule = write_norb(tmp_path / "mol.fcidump", norb)
        config = write_config(tmp_path, molecule=molecule, optimizer="bfgs", seeds="0")
        assert main(["saoo", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert f"NORB must be at least 1, got {norb}" in capsys.readouterr().err

    def test_non_utf8_fcidump_exit_two(self, tmp_path, capsys):
        molecule = write_random_bytes(tmp_path / "mol.fcidump")
        config = write_config(tmp_path, molecule=molecule, optimizer="bfgs", seeds="0")
        assert main(["vqe", "--config", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not UTF-8 text") and err.count("\n") == 1

    def test_nan_integral_exit_two(self, tmp_path, capsys):
        lines = open(fixture_path("h2_sto3g.fcidump")).read().splitlines(keepends=True)
        body = next(i for i, line in enumerate(lines) if line.strip().upper() == "&END") + 1
        lines[body] = f"nan {lines[body].split(maxsplit=1)[1]}"
        molecule = tmp_path / "mol.fcidump"
        molecule.write_text("".join(lines))
        config = write_config(tmp_path, molecule=str(molecule), optimizer="bfgs", seeds="0")
        assert main(["saoo", "--config", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: line {body + 1}: value nan is not finite\n"

    def test_missing_config_file_exit_two(self, tmp_path):
        assert main(["optimize", "--config", "/nonexistent.cfg"]) == 2

    def test_molecule_naming_a_directory_is_a_runtime_failure(self, tmp_path, capsys):
        config = write_config(tmp_path, molecule=str(tmp_path), optimizer="bfgs", seeds="0")
        assert main(["saoo", "--config", config, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    def test_out_naming_a_file_is_a_runtime_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        config = write_config(tmp_path, function="sphere", optimizer="bfgs", seeds="0")
        assert main(["optimize", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: ") and err.count("\n") == 1
        assert str(out) in err

    def test_scan_mode_flag(self, tmp_path, h2_scan_dir):
        config = write_config(tmp_path, molecule=h2_scan_dir, optimizer="bfgs")
        code = main(
            ["scan", "--config", config, "--out", str(tmp_path), "--mode", "savqe"]
        )
        assert code == 0
        assert os.path.exists(os.path.join(str(tmp_path), "scan_savqe.csv"))

    def test_seeds_flag_overrides_config(self, tmp_path):
        config = write_config(
            tmp_path,
            function="sphere",
            dimension="2",
            optimizer="bfgs",
            seeds="0,1,2,3",
        )
        out = tmp_path / "out"
        assert (
            main(
                ["optimize", "--config", config, "--out", str(out), "--seeds", "5"]
            )
            == 0
        )
        rows = read_rows(os.path.join(str(out), "optimize.csv"))
        run_rows = [r for r in rows if r[0] == "run"]
        assert len(run_rows) == 1
        assert run_rows[0][2] == "5"


# Every output file of one command set, pinned by sha256 from the harness as it
# stood before its run-and-record code was merged into one path.  Molecule
# paths are relative to the repository root, so manifest.csv does not depend
# on where the repository lives; SCAN is the H2 scan plus one malformed file.
REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
PINNED_COMMANDS = {
    "compare": ("compare", {"molecule": "fixtures/h2_sto3g.fcidump",
                            "optimizer": "bfgs,gd,de_rand1_bin,de_best2_exp",
                            "seeds": "0,1", "max_evals": "400"}, []),
    "compare_failure": ("compare", {"molecule": "fixtures/h2_sto3g.fcidump",
                                    "optimizer": "bfgs", "seeds": "0,1"}, []),
    "scan_savqe": ("scan", {"molecule": "SCAN", "optimizer": "bfgs"}, ["--mode", "savqe"]),
    "scan_saoo_de": ("scan", {"molecule": "SCAN", "optimizer": "de_rand1_bin",
                              "max_evals": "400"}, ["--mode", "saoo"]),
    "saoo_h4": ("saoo", {"molecule": "fixtures/h4_sto3g.fcidump", "optimizer": "bfgs"}, []),
    "vqe_de": ("vqe", {"molecule": "fixtures/h2_sto3g.fcidump", "optimizer": "de_rand1_bin",
                       "max_evals": "400"}, []),
    **{
        f"optimize_{function}_{method}": (
            "optimize", {"function": function, "optimizer": method, "seeds": "0,1",
                         "max_evals": "400"}, [])
        for function in ("sphere", "rosenbrock")
        for method in ("bfgs", "gd", "de_rand1_bin")
    },
}
OUTPUT_PINS = {
    "compare/manifest.csv":
        "4f2832f0bedf1ba84ca486a78925344ea00e864213c9a7d51dc5cdd07b5ca9c7",
    "compare/runs.csv":
        "cf445ae029187558bdb9f2168d0385fec590b1c945cdf87e520c2ba2b3fa4add",
    "compare/summary.csv":
        "26d6de0a9da912e3f7c37b122a772c7c32eda385a91cf0f16ce780606ce3d8a6",
    "compare/trace_bfgs_0.csv":
        "9fcca9ba7e5e422cf2448c76c15fab4c18cf618838a6091bd94fc439fe3e36ec",
    "compare/trace_bfgs_1.csv":
        "9fcca9ba7e5e422cf2448c76c15fab4c18cf618838a6091bd94fc439fe3e36ec",
    "compare/trace_de_best2_exp_0.csv":
        "8277a185f53ac5571ad8e4d68b6df8f917f098f16fdaca032ae5b58f5d71ec35",
    "compare/trace_de_best2_exp_1.csv":
        "9313539026649aa15c1fc216f0823cc35bd7c1f2f7a1c7ff5884d5206e43a112",
    "compare/trace_de_rand1_bin_0.csv":
        "cb25830dcc039f7f352f3b869688e8681d94db76bab8cf644f54860c0c32c9b0",
    "compare/trace_de_rand1_bin_1.csv":
        "aecc72250a0066b1d5b2bc3a3176d4ad49bb688f2fad36b97991c0f40e11824d",
    "compare/trace_gd_0.csv":
        "44b5ce5128296e84492c16985e34e93ac6bbd95c990f6d369264658c1c748f65",
    "compare/trace_gd_1.csv":
        "44b5ce5128296e84492c16985e34e93ac6bbd95c990f6d369264658c1c748f65",
    "compare_failure/failures.csv":
        "ff3f8ccea8e5c3f83cb46bf518a3bb968c50ff9dd2051c571b70a74c0405faac",
    "compare_failure/manifest.csv":
        "b109c37e03016c2987e5aebe4a3a9c6f84b14967deed93756851fc5649ceca39",
    "compare_failure/runs.csv":
        "0c5edd2894b7454ae3934ab582c0640b355fce7c45e6e15dc37de240c0b5c380",
    "compare_failure/summary.csv":
        "df1c1be59bd7add345ce5d59a75a58c4a78182c15fdeec56ed80a5099607749b",
    "compare_failure/trace_bfgs_0.csv":
        "9fcca9ba7e5e422cf2448c76c15fab4c18cf618838a6091bd94fc439fe3e36ec",
    "optimize_rosenbrock_bfgs/optimize.csv":
        "31efca81c83e2afd3f8929846a3da37f54076cce18576e478c3ed91dead41b68",
    "optimize_rosenbrock_de_rand1_bin/optimize.csv":
        "0d7639a16ca8bc0578e5ab66623bfc10138bcedc4a63b2ede0913a186718fd5d",
    "optimize_rosenbrock_gd/optimize.csv":
        "1911bf1df68d895adca5e4cd7f45fb42cd45e24ee3ce530ce00eb47df5d28acf",
    "optimize_sphere_bfgs/optimize.csv":
        "89c9c34e66fa4f67a5a70b76354f123b7563737dac5cc247431870a0545dca5e",
    "optimize_sphere_de_rand1_bin/optimize.csv":
        "8ec3eb2d873f682de18d3d8644e1b427c5ce3daefbcabf450ad680de78ae4372",
    "optimize_sphere_gd/optimize.csv":
        "90452566ff559ec1dbf9b2d4d79cb187ff1cde78222ed4e5ff5d3314cf79986f",
    "saoo_h4/result.csv":
        "6f09e4e2048f71708e695e36e8db743ae207dc32e207fd6e69196a767ec1be80",
    "saoo_h4/trace_bfgs_0.csv":
        "bd3a4889d62b1a574edfcea6e11ff46d5113e6b0783303905f64b4fa9760a69e",
    "scan_saoo_de/failures.csv":
        "f7ec2ff2c32f67eda79f47e6018271fd92319977bec08ad534e4ef8cb7010685",
    "scan_saoo_de/scan_saoo.csv":
        "17b5fe60536e427b042a7d6cf72d94aafc07bec6c562f746b86211476451c6b1",
    "scan_savqe/failures.csv":
        "f7ec2ff2c32f67eda79f47e6018271fd92319977bec08ad534e4ef8cb7010685",
    "scan_savqe/scan_savqe.csv":
        "df6ecdb039b3c08ac8c5ddff1b18a1401138ea1fa917111f6f31258ccaa4a41c",
    "vqe_de/result.csv":
        "18e8fdf0b3eeafef5f9526f8d667ec366a22dcff451739150e1af1408821f42c",
    "vqe_de/trace_de_rand1_bin_0.csv":
        "921caab14b19cb6f5ec5a3f5433b479742e75b51f20f1833c419f877d8ba9e7e",
}


class TestOutputPins:
    @pytest.mark.parametrize("case", sorted(PINNED_COMMANDS))
    def test_output_files_bitwise(self, tmp_path, h2_scan_dir, monkeypatch, case):
        import hashlib
        import shutil

        command, settings, extra = PINNED_COMMANDS[case]
        scan = tmp_path / "scan"
        shutil.copytree(h2_scan_dir, scan)
        (scan / "h2_r9.99.fcidump").write_text("not an fcidump\n")
        if case == "compare_failure":  # seed 1 fails with a numerical failure
            real_run = bench_mod.run_molecule

            def failing_seed_one(integrals, method, seed, config, mode):
                if seed == 1:
                    raise GradientError("non-finite stencil value at coordinate 0", 0)
                return real_run(integrals, method, seed, config, mode)

            monkeypatch.setattr(bench_mod, "run_molecule", failing_seed_one)
        monkeypatch.chdir(REPO_ROOT)
        settings = {k: str(scan) if v == "SCAN" else v for k, v in settings.items()}
        config = write_config(tmp_path, **settings)
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out), *extra]) == 0
        digests = {
            f"{case}/{name}": hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out))
        }
        assert digests == {k: v for k, v in OUTPUT_PINS.items() if k.startswith(f"{case}/")}
