"""Command-line entry point.

Subcommands: optimize, vqe, saoo, compare, scan.  Configuration comes from a
flat key=value UTF-8 file (--config) that names each key once; --seeds
overrides the file's seeds.  A DE method's name fixes its strategy and
crossover, and --mode (default savqe) alone picks scan's mode.  The molecule
commands check every setting their runs share before they create --out.
Exit codes: 0 success; 1 runtime failure (a run's numerical failure, the
macro loop's MacroLoopError, a compare or scan in which every run failed, or
an OSError such as an --out that names a file); 2 usage error (a bad config
or option, a missing file, a malformed FCIDUMP, NORB above
integrals.MAX_NORB included, or an unsupported molecule).  A programming
error is not caught: it ends the command with its traceback.
"""

from __future__ import annotations

import argparse
import sys

from . import bench
from .bench import UsageError
from .integrals import FcidumpError
from .orbitals import RUN_FAILURES, is_run_failure


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="devqe",
        description="Differential-evolution and ensemble-VQE benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("optimize", "minimize a built-in test function over multiple seeds"),
        ("vqe", "single fixed-orbital ensemble VQE run on a molecule"),
        ("saoo", "single orbital-optimized ensemble VQE run on a molecule"),
        ("compare", "multi-seed optimizer comparison with summary statistics"),
        ("scan", "1-D energy scan over a directory of FCIDUMP files"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="key=value config file")
        cmd.add_argument("--out", default="out", help="output directory")
        seeds_help = "one seed" if name in ("vqe", "saoo", "scan") else "comma-separated seed list"
        cmd.add_argument("--seeds", default=None, help=seeds_help)
        if name == "scan":
            cmd.add_argument("--mode", choices=("savqe", "saoo"), default="savqe",
                             help="fixed orbitals (savqe, the default) or the SA-OO macro loop")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        config = bench.parse_config(args.config)
        if args.seeds is not None:
            config["seeds"] = args.seeds
        if args.command == "optimize":
            path = bench.cmd_optimize(config, args.out)
        elif args.command == "vqe":
            path = bench.cmd_single(config, args.out, "savqe")
        elif args.command == "saoo":
            path = bench.cmd_single(config, args.out, "saoo")
        elif args.command == "compare":
            path = bench.cmd_compare(config, args.out)
        else:
            path = bench.cmd_scan(config, args.out, args.mode)
    except (UsageError, FcidumpError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (*RUN_FAILURES, bench.AllRunsFailed, OSError) as exc:
        if isinstance(exc, RUN_FAILURES) and not is_run_failure(exc):
            raise  # a programming error that DE wrapped in its ObjectiveError
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1

    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
