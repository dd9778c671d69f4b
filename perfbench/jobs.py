"""The workloads: fixed lists of CLI jobs over the seed-permuted bundles.

Every job is one ``cyclotome.cli.main(argv)`` call.  Its standard output is
captured and compared, by SHA-256 digest, with the reference recorded at the
identity permutation in ``reference.json``.  A job fails on a nonzero exit,
an exception, or a digest that differs from the reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from bundles import BUNDLES

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]

    @property
    def verb(self) -> str:
        """The command words before the first option, e.g. ``coend_build``."""
        words = []
        for word in self.argv:
            if word.startswith("-"):
                break
            words.append(word)
        return "_".join(words)


def _coend_sweep(paths: dict[str, Path], cache: Path) -> list[Job]:
    jobs = []
    for b in BUNDLES:
        alg = ("--algebra", str(paths[b]))
        jobs += [
            Job(f"{b}/hopf_verify", ("hopf", "verify", *alg)),
            Job(f"{b}/coend_build_cold", ("coend", "build", "--cache", str(cache), *alg)),
            Job(f"{b}/coend_build_warm", ("coend", "build", "--cache", str(cache), *alg)),
            Job(f"{b}/homology_cocyclic", ("homology", "-N", "1", *alg)),
        ]
    return jobs


def _invariant_models(paths: dict[str, Path], cache: Path) -> list[Job]:
    jobs = []
    for b in ("z2_trivial", "sweedler_h4", "double_z2"):
        alg = ("--algebra", str(paths[b]))
        jobs += [
            Job(f"{b}/module_W", ("module", "build", "--which", "W", "-N", "3",
                                  "--no-cache", *alg)),
            Job(f"{b}/module_Wco", ("module", "build", "--which", "Wco", "-N", "3",
                                    "--no-cache", *alg)),
        ]
    for b in ("z2_semion", "double_z2"):
        jobs.append(Job(f"{b}/homology_cyclic", ("homology", "--chirality", "cyclic",
                                                 "-N", "1", "--algebra", str(paths[b]))))
    return jobs


def _state_theorem(paths: dict[str, Path], cache: Path) -> list[Job]:
    alg = ("--algebra", str(paths["double_z2"]))
    return [
        Job("double_z2/tqft_verify", ("tqft", "verify", "-N", "1", *alg)),
        Job("double_z2/module_rtc", ("module", "build", "--which", "rtc", "-N", "1",
                                     "--no-cache", *alg)),
    ]


WORKLOADS = {
    "coend_sweep": _coend_sweep,
    "invariant_models": _invariant_models,
    "state_theorem": _state_theorem,
}


@dataclass
class JobResult:
    name: str
    verb: str
    seconds: float
    digest: str
    error: str | None = None   # the exception, or the first line of a nonzero exit's stderr


def run_job(main, job: Job) -> JobResult:
    """Run one CLI job in-process; exceptions are caught and recorded."""
    out = io.StringIO()
    err = io.StringIO()
    start = time.perf_counter()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(job.argv))
    except Exception as exc:  # a crashing job is a failed job, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip().splitlines()[:1]}"
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return JobResult(job.name, job.verb, seconds, digest, error)


def run_pass(main, workload: str, paths: dict[str, Path], cache: Path,
             after_job=None) -> list[JobResult]:
    """One pass through the workload's job list, starting from an empty cache.
    ``after_job``, if given, is called with no arguments after every job."""
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    results = []
    for job in WORKLOADS[workload](paths, cache):
        results.append(run_job(main, job))
        if after_job is not None:
            after_job()
    return results


def load_reference() -> dict[str, dict[str, str]]:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def failures(results: list[JobResult], expected: dict[str, str]) -> list[str]:
    """Names, with reasons, of the jobs that did not reproduce the reference."""
    bad = []
    for r in results:
        if r.error is not None:
            bad.append(f"{r.name}: {r.error}")
        elif expected.get(r.name) != r.digest:
            bad.append(f"{r.name}: report digest {r.digest[:12]} differs from reference")
    return bad
