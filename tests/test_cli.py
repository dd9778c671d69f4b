import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cyclotome.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = SRC / "cyclotome" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hopf_verify_bundled(capsys):
    for name in ("z2_trivial", "z2_semion", "sweedler_h4", "double_z2"):
        code, out, _ = run(capsys, "hopf", "verify",
                           "--algebra", str(DATA / f"{name}.json"))
        assert code == 0, (name, out)


def test_hopf_verify_corrupted(tmp_path, capsys):
    src = json.loads((DATA / "sweedler_h4.json").read_text())
    # corrupt the antipode into the identity
    src["S"] = [[0, 0, "1"], [1, 1, "1"], [2, 2, "1"], [3, 3, "1"]]
    src["S_inv"] = src["S"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(src))
    code, out, _ = run(capsys, "hopf", "verify", "--algebra", str(bad),
                       "--format", "json")
    assert code == 1
    payload = json.loads(out)
    failing = [c["name"] for c in payload["checks"] if not c["ok"]]
    assert any("antipode" in name for name in failing)


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "hopf", "verify", "--algebra", "nope.json")
    assert code == 2
    assert "no such file" in err


@pytest.mark.parametrize("argv", [
    ("module", "build", "--which", "rtc", "-N", "-1"),
    ("module", "build", "--which", "W", "-N", "-1"),
    ("homology", "-N", "-2"),
    ("module", "build", "--which", "rcyclic", "--simple", "9"),
])
def test_bad_level_or_simple_is_input_error(argv):
    # a separate interpreter, so that an uncaught exception shows as a traceback
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, "-m", "cyclotome.cli", *argv, "--no-cache",
         "--algebra", str(DATA / "double_z2.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_coend_build_flags(capsys):
    code, out, _ = run(capsys, "coend", "build",
                       "--algebra", str(DATA / "double_z2.json"),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["factorizable"] is True
    assert payload["factorizability_tests_agree"] is True
    assert payload["dim_B"] == "4"
    code, out, _ = run(capsys, "coend", "build",
                       "--algebra", str(DATA / "z2_trivial.json"),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["factorizable"] is False


def test_module_build_w(capsys):
    code, out, _ = run(capsys, "module", "build",
                       "--algebra", str(DATA / "sweedler_h4.json"),
                       "--which", "W", "-N", "2", "--no-cache",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["relations_ok"] is True
    assert payload["levels"] == {"0": 1, "1": 5, "2": 18}


def test_module_build_rt_rejected_for_nonfactorizable(capsys):
    code, out, _ = run(capsys, "module", "build",
                       "--algebra", str(DATA / "z2_trivial.json"),
                       "--which", "rt", "-N", "1", "--no-cache",
                       "--format", "json")
    assert code == 1
    assert "not factorizable" in json.loads(out)["error"]


def test_cache_roundtrip(tmp_path, capsys):
    args = ("module", "build", "--algebra", str(DATA / "z2_trivial.json"),
            "--which", "W", "-N", "2", "--cache", str(tmp_path),
            "--format", "json")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    p1 = json.loads(out1)
    assert p1["cached"] is False
    code, out2, _ = run(capsys, *args)
    p2 = json.loads(out2)
    assert p2["cached"] is True
    # identical results apart from the cache flag
    p1.pop("cached")
    p2.pop("cached")
    assert p1 == p2
    assert list(tmp_path.glob("module-*.json"))


def test_cache_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CYCLOTOME_CACHE", str(tmp_path))
    code, out, _ = run(capsys, "module", "build",
                       "--algebra", str(DATA / "z2_trivial.json"),
                       "--which", "Wco", "-N", "1", "--format", "json")
    assert code == 0
    assert list(tmp_path.glob("module-*.json"))


def test_coend_cache_roundtrip(tmp_path, capsys):
    args = ("coend", "build", "--algebra", str(DATA / "double_z2.json"),
            "--cache", str(tmp_path), "--format", "json")
    code, out1, _ = run(capsys, *args)
    assert code == 0 and json.loads(out1)["cached"] is False
    code, out2, _ = run(capsys, *args)
    p1, p2 = json.loads(out1), json.loads(out2)
    assert p2["cached"] is True
    assert p1["factorizable"] == p2["factorizable"]
    assert p1["dim_B"] == p2["dim_B"]
    assert list(tmp_path.glob("coend-*.json"))


def test_homology_table(capsys):
    code, out, _ = run(capsys, "homology",
                       "--algebra", str(DATA / "z2_trivial.json"),
                       "-N", "3", "--no-cache", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rows = {row["degree"]: (row["HH"], row["HC"]) for row in payload["table"]}
    k = rows[0][0]
    assert rows[0] == (k, k)
    assert rows[1] == (0, 0)
    assert rows[2] == (0, k)
    assert rows[3] == (0, 0)


def test_homology_json_deterministic(capsys):
    args = ("homology", "--algebra", str(DATA / "z2_trivial.json"),
            "-N", "2", "--no-cache", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_tqft_verify(capsys):
    code, out, _ = run(capsys, "tqft", "verify",
                       "--algebra", str(DATA / "double_z2.json"),
                       "-N", "1", "--no-cache", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["relations_ok"] is True


def test_cat_expressions(capsys):
    code, out, _ = run(capsys, "cat", "count 1 1 cyclic")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "cat", "nf t^2 : 1->1")
    assert code == 0 and out.splitlines()[0] == "id : 1->1"
    code, out, _ = run(capsys, "cat", "L s0^0")
    assert code == 0 and out.strip() == "δ_1^1"
    code, out, _ = run(capsys, "cat", "phi t_3^1")
    assert code == 0 and out.strip() == "τ_3^-1"
    code, out, _ = run(capsys, "cat", "compose t : 2->2 ; d1 : 1->2")
    assert code == 0 and out.splitlines()[0] == "d0^2.t_1 : 1->2"
    code, _, err = run(capsys, "cat", "nf bogus : 1->1")
    assert code == 2
