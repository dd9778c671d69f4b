"""The benchmark's own tests.

Run from the root of a source checkout (takes about two minutes):

    python3 perfbench/selftest.py

They check that every job passes at the identity permutation and at another
seed with identical report bytes, that tracing does not change a report, that
a wrong reference digest is counted as a failed job, that the printed metrics
are exactly those BENCHMARK.json declares, and that the benchmark refuses to
run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bundles  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

OTHER_SEED = 7


def one_pass(seed, workload, traced=False):
    cli, paths, _ = run.setup(ROOT, seed)
    tracer = Tracer(run.PACKAGE)
    if traced:
        tracer.install()
    try:
        return jobs.run_pass(lambda argv: cli.main(argv), workload, paths,
                             ROOT / ".perfbench_work" / "cache")
    finally:
        tracer.uninstall()
        shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)


class PermutationTest(unittest.TestCase):
    def test_inverse_permutation_restores_every_bundle(self):
        for name in bundles.BUNDLES:
            with open(ROOT / "src" / "cyclotome" / "data" / f"{name}.json") as fh:
                obj = json.load(fh)
            perm = bundles.permutation(obj["dim"], OTHER_SEED)
            inverse = [perm.index(i) for i in range(len(perm))]
            back = bundles.permute_algebra(bundles.permute_algebra(obj, perm), inverse)
            self.assertEqual(back, bundles.permute_algebra(obj, list(range(obj["dim"]))))
            if obj["dim"] > 2:   # a 2-element shuffle is the identity half the time
                self.assertNotEqual(perm, sorted(perm), "seed gave the identity")

    def test_seed_none_is_the_identity(self):
        self.assertEqual(bundles.permutation(4, None), [0, 1, 2, 3])


class JobsTest(unittest.TestCase):
    def test_every_job_passes_with_identical_reports_across_seeds(self):
        reference = jobs.load_reference()
        for workload in jobs.WORKLOADS:
            with self.subTest(workload=workload):
                identity = one_pass(None, workload)
                permuted = one_pass(OTHER_SEED, workload)
                self.assertEqual(jobs.failures(identity, reference[workload]), [])
                self.assertEqual(jobs.failures(permuted, reference[workload]), [])
                self.assertEqual([r.digest for r in identity],
                                 [r.digest for r in permuted])

    def test_traced_and_untraced_reports_are_identical(self):
        for workload in jobs.WORKLOADS:
            with self.subTest(workload=workload):
                plain = one_pass(OTHER_SEED, workload)
                traced = one_pass(OTHER_SEED, workload, traced=True)
                self.assertEqual([r.digest for r in plain], [r.digest for r in traced])
                self.assertTrue(all(r.error is None for r in traced))


class RunTest(unittest.TestCase):
    def test_wrong_reference_digest_is_a_failed_job(self):
        expected = dict(jobs.load_reference()["state_theorem"])
        expected["double_z2/tqft_verify"] = "0" * 64
        record = run.run(ROOT, "state_theorem", OTHER_SEED, 0.01, False, expected)
        summary = run.summary(record)
        self.assertFalse(summary["correct"])
        self.assertEqual(summary["attempted"], 2)
        self.assertEqual(summary["failed"], 1)
        self.assertIn("double_z2/tqft_verify", record["failures"][0])

    def test_printed_metrics_are_those_declared(self):
        with open(ROOT / "BENCHMARK.json") as fh:
            declared = json.load(fh)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            record = run.run(ROOT, "state_theorem", OTHER_SEED, 0.01, trace)
            self.assertTrue(run.summary(record)["correct"])
            self.assertEqual({m["name"]: m["unit"] for m in declared[key]},
                             {k: m["unit"] for k, m in record["metrics"].items()})

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "state_theorem",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
