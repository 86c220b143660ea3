"""Write goldens.json from one pass of every workload at the default seed.

    python3 perfbench/capture_goldens.py

Run it only on the commit whose numbers the benchmark pins: the goldens are
what later commits must reproduce.
"""

import json
import sys

import run
from goldens import DEFAULT_SEED, GOLDEN_PATH, golden_entry


def main() -> int:
    missing = run.prepare()
    if missing:
        print(f"capture_goldens: missing {missing}", file=sys.stderr)
        return 2
    workloads = {}
    for name, workload in run.WORKLOADS.items():
        config = workload.config(DEFAULT_SEED)
        done = run.run_pass(workload, config, {}, workload.floor())
        if done.failures:
            print(f"capture_goldens: {name} failed: {done.failures}", file=sys.stderr)
            return 1
        entries = {}
        for record in done.records:
            entry = golden_entry(record)
            if entries.setdefault(record["key"], entry) != entry:
                print(f"capture_goldens: {name} {record['key']} differs between seeds",
                      file=sys.stderr)
                return 1
        workloads[name] = entries
    env = run.environment()
    goldens = {
        "default_seed": DEFAULT_SEED,
        "taken_at": {"git_sha": env["git_sha"], "src_sha256": env["src_sha256"]},
        "workloads": workloads,
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
