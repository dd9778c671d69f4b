"""Record the reference report digests of every workload's jobs.

Run from the root of a source checkout:

    python3 perfbench/make_reference.py

Runs one pass of each workload on the bundles in their own basis (the
identity permutation) and writes ``perfbench/reference.json``.  A job that
exits nonzero or raises is an error here: the reference holds passing
reports only.  Regenerate only when a change is meant to alter a report.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import jobs
import run


def main() -> int:
    root = Path.cwd()
    cli, paths, _ = run.setup(root, None)
    cache = root / ".perfbench_work" / "cache"
    reference = {}
    try:
        for workload in jobs.WORKLOADS:
            results = jobs.run_pass(lambda argv: cli.main(argv), workload, paths, cache)
            bad = [f"{r.name}: {r.error}" for r in results if r.error is not None]
            if bad:
                print(f"{workload}: jobs failed: {bad}", file=sys.stderr)
                return 1
            reference[workload] = {r.name: r.digest for r in results}
    finally:
        shutil.rmtree(root / ".perfbench_work", ignore_errors=True)
    with open(jobs.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
