"""Record the sha256 digests of every CSV the default-seed schedules write.

    python3 perfbench/record_digests.py

Runs each cycle of each workload's schedule once at the default seed and
writes perfbench/digests.json, keyed by configuration text and command.
A benchmark run at the default seed then fails every operation whose CSV
bytes differ.  Record at the commit the digests are meant to pin, and
only there: the file is the reference for byte-identical output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    geodrev = run.import_program()
    digests = {}
    for workload in run.WORKLOADS:
        workdir = os.path.join(run.WORK_DIR, f"record-{workload}-{os.getpid()}")
        try:
            plan, paths, bundles = run.setup(geodrev, workload, run.DEFAULT_SEED, False, workdir)
            runner = run.Runner(geodrev, plan, paths, bundles, workdir, record=digests)
            for c in range(len(plan.cycles)):
                runner.run_cycle(c)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for failure in runner.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        if runner.failed:
            print(f"{workload}: {runner.failed} operations failed; nothing recorded", file=sys.stderr)
            return 1
        print(f"{workload}: {runner.attempted} operations, {len(digests)} digests so far")
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
