"""Benchmark of the cyclotome command line: closed-loop, single client, in-process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload coend_sweep --seed 1 --seconds 40 --trace 0

Each pass runs the workload's fixed job list back to back in this process,
one ``cyclotome.cli.main(argv)`` call per job, each loading its algebra file
afresh as a user's command does.  The seed picks a basis permutation of every
bundled algebra (see bundles.py); the reports are identical for every seed,
so every job's output is checked against one reference.  Passes repeat until
the next one would overrun ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  Between jobs it times a fixed
reference computation (calibrate.py) and reports the pass time corrected
for the host's speed beside each job, ``pass_norm_s``; the raw pass times
are printed and recorded too.  ``--trace 1`` spends the first
part of the time on untraced passes and the rest on passes under the
outside-in tracer (tracer.py), and prints the per-layer metrics, including
the tracing overhead.  The last line of standard output is one JSON object;
the lines before it give every metric with its unit, the pass-time quartiles
and sample count, and the host.  A record of the run, with the spans of the
last traced pass, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bundles  # noqa: E402
import calibrate  # noqa: E402
import jobs  # noqa: E402

PACKAGE = "cyclotome"
SETUP_REPEATS = 9
UNTRACED_SHARE = 0.4   # of --seconds, in a traced run
VERBS = ("hopf_verify", "coend_build", "module_build", "homology", "tqft_verify")
END_TO_END_UNITS = {"pass_norm_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class SetupError(Exception):
    pass


def import_cli(src: Path):
    """Import the package afresh from ``src``, never from an installed copy."""
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} sources under {src}")
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module(f"{PACKAGE}.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"{PACKAGE} was imported from {cli.__file__}, not {src}")
    return cli


def setup(root: Path, seed: int | None):
    """Import the package, write the permuted algebra files and an empty cache
    directory.  Returns the CLI module, the bundle paths and the seconds taken."""
    start = time.perf_counter()
    cli = import_cli(root / "src")
    work = root / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    paths = bundles.write_bundles(root / "src" / PACKAGE / "data", work / "algebras", seed)
    (work / "cache").mkdir(parents=True)
    return cli, paths, time.perf_counter() - start


class Passes:
    """Runs timed passes of one workload and checks every job's report.

    A pass's wall time is the sum of its jobs' times.  With ``normalise``, the
    reference computation of calibrate.py is timed before the first job and
    after every job, and each job's time is divided by the mean of the two
    reference times beside it; ``normalised`` collects, per pass, the sum of
    these quotients scaled back to seconds at ``calibrate.REFERENCE_SECONDS``."""

    def __init__(self, cli, workload: str, paths, cache: Path, expected: dict[str, str]):
        self.main = lambda argv: cli.main(argv)   # looked up per call, so wrappers apply
        self.workload, self.paths, self.cache = workload, paths, cache
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []
        self.job_seconds: dict[str, list[float]] = {}
        self.normalised: list[float] = []
        self.references: list[list[float]] = []

    def run(self, budget: float, on_pass=None, normalise: bool = False) -> list[float]:
        """Passes until the next would overrun ``budget`` seconds; at least one."""
        walls, longest = [], 0.0
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + longest <= budget:
            gc.collect()
            t0 = time.perf_counter()
            refs = [calibrate.reference_seconds()] if normalise else []
            after_job = (lambda: refs.append(calibrate.reference_seconds())) if normalise else None
            results = jobs.run_pass(self.main, self.workload, self.paths, self.cache, after_job)
            longest = max(longest, time.perf_counter() - t0)
            walls.append(sum(r.seconds for r in results))
            if normalise:
                self.references.append(refs)
                self.normalised.append(calibrate.REFERENCE_SECONDS * sum(
                    r.seconds / ((a + b) / 2) for r, a, b in zip(results, refs, refs[1:])))
            self.attempted += len(results)
            self.failures += jobs.failures(results, self.expected)
            for r in results:
                self.job_seconds.setdefault(r.name, []).append(r.seconds)
            if on_pass is not None:
                on_pass(results)
        return walls


def per_layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith(".s") or name.endswith("_s") or ".job_s." in name:
        return "s"
    return "count"


def _traced_metrics(passes: Passes, seconds: float, record: dict) -> dict[str, float]:
    from tracer import Tracer

    start = time.perf_counter()
    walls = passes.run(seconds * UNTRACED_SHARE)
    tracer = Tracer(PACKAGE)
    samples = []

    def collect(results):
        sample = tracer.metrics()
        for v in VERBS:
            sample[f"cli.job_s.{v}"] = sum(r.seconds for r in results if r.verb == v)
        samples.append(sample)
        record["spans"] = tracer.span_records()
        tracer.reset()

    tracer.install()
    try:
        traced = passes.run(seconds - (time.perf_counter() - start), on_pass=collect)
    finally:
        tracer.uninstall()
    # median_low keeps counts exact: every figure is one traced pass's value
    metrics = {k: statistics.median_low(s[k] for s in samples) for k in samples[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(walls) - 1
    record["pass_walls_s"] = walls
    record["traced_pass_walls_s"] = traced
    return metrics


def run(root: Path, workload: str, seed: int | None, seconds: float, trace: bool,
        expected: dict[str, str] | None = None) -> dict:
    """One benchmark run; returns its record, with ``metrics`` as printed."""
    if expected is None:
        expected = jobs.load_reference()[workload]
    setup_seconds = []
    for _ in range(SETUP_REPEATS):   # only the last import stays referenced
        cli, paths, seconds_taken = setup(root, seed)
        setup_seconds.append(seconds_taken)
    passes = Passes(cli, workload, paths, root / ".perfbench_work" / "cache", expected)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                       "implementation": platform.python_implementation(),
                       "machine": platform.machine()}}
    try:
        if trace:
            metrics = _traced_metrics(passes, seconds, record)
            units = {k: per_layer_unit(k) for k in metrics}
        else:
            walls = passes.run(seconds, normalise=True)
            record["pass_walls_s"] = walls
            record["pass_norm_s"] = passes.normalised
            record["reference_s"] = passes.references
            metrics = {
                "pass_norm_s": statistics.median(passes.normalised),
                "setup_s": statistics.median(setup_seconds),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(root / ".perfbench_work", ignore_errors=True)
    record["setup_s"] = setup_seconds
    record["attempted"] = passes.attempted
    record["failures"] = passes.failures
    record["job_seconds"] = passes.job_seconds
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return record


def summary(record: dict) -> dict:
    failed = len(record["failures"])
    return {"correct": failed == 0, "attempted": record["attempted"], "failed": failed,
            "metrics": record["metrics"]}


def report(record: dict, out_dir: Path) -> None:
    """Write the run's record and print the readable lines, then the JSON line."""
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    with open(out_dir / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    host = record["host"]
    print(f"host: {host['cpu_count']} CPUs, {host['implementation']} {host['python']}, "
          f"{host['machine']}")
    for key in ("pass_walls_s", "pass_norm_s"):
        values = record.get(key)
        if values:
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(f"untraced {key}: median {statistics.median(values):.4f}, quartiles "
                  f"{q[0]:.4f} / {q[2]:.4f}, n = {len(values)}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, m in record["metrics"].items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps(summary(record)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path.cwd()
    os.environ.pop("CYCLOTOME_CACHE", None)   # the jobs name their caches explicitly
    try:
        record = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    report(record, root / ".perfbench_out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
