"""Every benchmark workload replayed once at the identity permutation: each
job's report must hash to its digest in perfbench/reference.json, so a
changed report fails here and not only in the benchmark.  The benchmark's
bundles.py and jobs.py are read and executed here, never imported from their
directory, so this test writes nothing there."""

import sys
import types
from pathlib import Path

import pytest

from cyclotome import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str, monkeypatch) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    mod = types.ModuleType(name)
    mod.__file__ = str(path)
    # jobs.py imports bundles by its plain name, and dataclasses look up the
    # defining module by name
    monkeypatch.setitem(sys.modules, name, mod)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), mod.__dict__)
    return mod


@pytest.fixture(scope="module")
def perfbench():
    with pytest.MonkeyPatch.context() as mp:
        yield _load("bundles", mp), _load("jobs", mp)


@pytest.fixture(scope="module")
def bundle_paths(perfbench, tmp_path_factory):
    bundles, _ = perfbench
    return bundles.write_bundles(ROOT / "src" / "cyclotome" / "data",
                                 tmp_path_factory.mktemp("algebras"), None)


@pytest.mark.parametrize("workload", ["coend_sweep", "invariant_models", "state_theorem"])
def test_workload_reproduces_the_reference_reports(perfbench, bundle_paths, tmp_path,
                                                   workload):
    _, jobs = perfbench
    assert sorted(jobs.WORKLOADS) == ["coend_sweep", "invariant_models", "state_theorem"]
    results = jobs.run_pass(cli.main, workload, bundle_paths, tmp_path / "cache")
    assert results
    assert jobs.failures(results, jobs.load_reference()[workload]) == []
