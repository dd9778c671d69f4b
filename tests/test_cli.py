import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cyclotome import cli, coend
from cyclotome.cli import main
from cyclotome.fields import Cyclotomic
from cyclotome.hopf import drinfeld_double_of_cyclic, group_algebra_simples
from cyclotome.linalg import map_to_json, vector_to_json

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = SRC / "cyclotome" / "data"
# the full build of the coend and the two stages a command may build alone
FULL, COALGEBRA, ALGEBRA = COEND_BUILDS = (
    "build_coend_hopf", "build_coend_coalgebra", "build_coend_algebra")


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


def run_python(*args):
    """A separate interpreter that imports the package from the source tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def run_child(*argv):
    """The command line in a separate interpreter, so that an uncaught exception
    shows as a traceback on stderr."""
    return run_python("-m", "cyclotome.cli", *argv)


@pytest.mark.parametrize("argv", [
    ("module", "build", "--which", "rtc", "-N", "-1"),
    ("module", "build", "--which", "W", "-N", "-1"),
    ("homology", "-N", "-2"),
    ("module", "build", "--which", "rcyclic", "--simple", "9"),
])
def test_bad_level_or_simple_is_input_error(argv):
    proc = run_child(*argv, "--no-cache", "--algebra", str(DATA / "double_z2.json"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("name", ["sweedler_h4", "z2_semion"])  # over Q and over Q(i)
def test_zero_denominator_scalar_is_input_error(tmp_path, name):
    src = json.loads((DATA / f"{name}.json").read_text())
    src["m"][0][2] = "1/0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(src))
    proc = run_child("hopf", "verify", "--algebra", str(bad))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")
    assert len(proc.stderr.strip().splitlines()) == 1


def _drop_counit(src):
    del src["epsilon"]


def _unit_index_out_of_range(src):
    src["u"] = [[src["dim"], "1"]]


def _null_unit(src):
    src["u"] = None


def _zero_dimensional(src):
    """Every map and vector empty at dim 0: consistent, but no Hopf algebra
    (coend build raised IndexError on it)."""
    for key in ("basis", "m", "Delta", "S", "S_inv", "u", "epsilon", "simples",
                "R", "R_inv", "theta", "theta_inv"):
        src[key] = []
    src["dim"] = 0


def _dim(value):
    def edit(src):
        src["dim"] = value
    edit.__name__ = f"_dim_{value}"
    return edit


@pytest.mark.parametrize("edit", [_drop_counit, _unit_index_out_of_range, _null_unit,
                                  _dim(True), _dim(1.5), _dim(-1), _zero_dimensional])
def test_missing_counit_or_bad_vector_is_input_error(tmp_path, edit):
    src = json.loads((DATA / "z2_trivial.json").read_text())
    edit(src)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(src))
    proc = run_child("hopf", "verify", "--algebra", str(bad))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_directory_as_algebra_is_input_error(tmp_path):
    proc = run_child("hopf", "verify", "--algebra", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("coend", "build"),
    ("module", "build", "--which", "W", "-N", "1"),
], ids=["coend", "module"])
def test_unwritable_cache_is_input_error(tmp_path, argv):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("a regular file", encoding="utf-8")
    proc = run_child(*argv, "--cache", str(not_a_dir),
                     "--algebra", str(DATA / "z2_trivial.json"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert str(not_a_dir) in proc.stderr
    assert not_a_dir.read_text(encoding="utf-8") == "a regular file"


@pytest.mark.parametrize("argv", [
    ("coend", "build"),
    ("module", "build", "--which", "W", "-N", "1"),
], ids=["coend", "module"])
def test_cache_that_is_a_file_is_rejected_before_the_build(tmp_path, capsys, monkeypatch,
                                                           argv):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("a regular file", encoding="utf-8")

    def no_build(*_):
        raise AssertionError("the coend was built before the cache was checked")

    monkeypatch.setattr(cli, "build_coend_hopf", no_build)
    code, out, err = run(capsys, *argv, "--cache", str(not_a_dir),
                         "--algebra", str(DATA / "z2_trivial.json"))
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and str(not_a_dir) in err
    assert len(err.strip().splitlines()) == 1


def _first_map_src(text, size):
    """The entry with the "src" of its first map, in sorted key order,
    replaced by size(src); a module entry holds its maps under "gen"."""
    obj = json.loads(text)
    maps = obj.get("gen", obj)
    first = next(maps[k] for k in sorted(maps) if isinstance(maps[k], dict) and "src" in maps[k])
    first["src"] = size(first["src"])
    return json.dumps(obj)


DAMAGE = {"truncated": lambda text: text[:len(text) // 2],
          "schema-only": lambda text: '{"schema": 1}',
          "deeply-nested": lambda text: "[" * 100000 + "]" * 100000,
          "float-src": lambda text: _first_map_src(text, float),
          "wrong-src": lambda text: _first_map_src(text, lambda n: n + 1)}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("argv", [
    ("coend", "build"),
    ("module", "build", "--which", "W", "-N", "1"),
], ids=["coend", "module"])
def test_damaged_cache_entry_is_rebuilt(tmp_path, argv, damage):
    def cached():
        proc = run_child(*argv, "--cache", str(tmp_path), "--format", "json",
                         "--algebra", str(DATA / "z2_trivial.json"))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        return json.loads(proc.stdout)["cached"]

    assert cached() is False
    [entry] = tmp_path.glob("*.json")
    text = entry.read_text(encoding="utf-8")
    entry.write_text(DAMAGE[damage](text), encoding="utf-8")
    assert cached() is False
    assert cached() is True


def test_edited_dim_b_in_coend_cache_is_rebuilt(tmp_path):
    """An entry whose dim(B) is not the counit of its integral is a miss."""
    def build():
        proc = run_child("coend", "build", "--cache", str(tmp_path), "--format", "json",
                         "--algebra", str(DATA / "double_z2.json"))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        return json.loads(proc.stdout)

    assert build()["cached"] is False
    [entry] = tmp_path.glob("*.json")
    obj = json.loads(entry.read_text(encoding="utf-8"))
    assert obj["dim_B"] == "4"
    obj["dim_B"] = "5"
    entry.write_text(json.dumps(obj), encoding="utf-8")
    rebuilt = build()
    assert rebuilt["cached"] is False
    assert rebuilt["dim_B"] == "4"
    assert build()["cached"] is True


def test_cached_module_without_indicator_columns_is_rebuilt(tmp_path, capsys):
    """A cached level space must carry its indicator columns: an entry without
    them is a miss, and the rebuilt report is the first one byte for byte."""
    args = ("module", "build", "--algebra", str(DATA / "z2_semion.json"), "--which", "W",
            "-N", "1", "--cache", str(tmp_path), "--format", "json")
    code, first, _ = run(capsys, *args)
    assert code == 0 and json.loads(first)["cached"] is False
    [entry] = tmp_path.glob("module-*.json")
    obj = json.loads(entry.read_text(encoding="utf-8"))
    for space in obj["spaces"].values():
        del space["indicator_cols"]
    entry.write_text(json.dumps(obj), encoding="utf-8")
    code, rebuilt, _ = run(capsys, *args)
    assert code == 0 and rebuilt == first
    code, hit, _ = run(capsys, *args)
    assert code == 0 and hit == first.replace('"cached": false', '"cached": true')


def test_cached_basis_off_its_indicator_columns_is_rebuilt(tmp_path, capsys):
    """A cached level space whose vector is nonzero at another vector's
    indicator column is not a basis the coordinates can be read in: the
    entry is a miss, and the rebuilt report is the first one byte for byte."""
    args = ("module", "build", "--algebra", str(DATA / "sweedler_h4.json"), "--which", "W",
            "-N", "2", "--cache", str(tmp_path), "--format", "json")
    code, first, _ = run(capsys, *args)
    assert code == 0 and json.loads(first)["cached"] is False
    [entry] = tmp_path.glob("module-*.json")
    obj = json.loads(entry.read_text(encoding="utf-8"))
    space = obj["spaces"]["2"]
    ind = space["indicator_cols"]
    space["vectors"][0].append([ind[1], "5"])
    entry.write_text(json.dumps(obj), encoding="utf-8")
    code, rebuilt, _ = run(capsys, *args)
    assert code == 0 and rebuilt == first
    code, hit, _ = run(capsys, *args)
    assert code == 0 and hit == first.replace('"cached": false', '"cached": true')


@pytest.mark.parametrize("which", ["W", "para"])
def test_module_cache_hit_skips_the_coend(tmp_path, capsys, monkeypatch, which):
    args = ("module", "build", "--algebra", str(DATA / "z2_trivial.json"),
            "--which", which, "-N", "1", "--cache", str(tmp_path),
            "--format", "json")
    code, out1, _ = run(capsys, *args)
    assert code == 0

    def no_coend(*_):
        raise AssertionError("a module cache hit built the coend")

    for build in COEND_BUILDS:
        monkeypatch.setattr(cli, build, no_coend)
    code, out2, _ = run(capsys, *args)
    assert code == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    assert (p1.pop("cached"), p2.pop("cached")) == (False, True)
    assert p1 == p2


BUNDLES = ("z2_trivial", "z2_semion", "sweedler_h4", "double_z2")


class CoendReached(Exception):
    pass


def reach_coend(*_):
    raise CoendReached


@pytest.mark.parametrize("name", BUNDLES)
@pytest.mark.parametrize("argv", [
    ("module", "build", "--which", "W", "-N", "2", "--no-cache"),
    ("module", "build", "--which", "Wco", "-N", "2", "--no-cache"),
    ("homology", "--chirality", "cyclic", "-N", "1"),
], ids=["W", "Wco", "cyclic-homology"])
def test_explicit_model_commands_build_no_coend(capsys, monkeypatch, argv, name):
    """W, Wco and cyclic homology read only the algebra: their reports are
    the same with the coend build made to raise."""
    args = (*argv, "--algebra", str(DATA / f"{name}.json"))
    code, expected, _ = run(capsys, *args)
    assert code == 0
    monkeypatch.setattr(cli, "build_coend_hopf", reach_coend)
    assert run(capsys, *args) == (0, expected, "")


def write_algebra(H, path, simples=()):
    """H as an algebra file, with the given simples."""
    obj = {"name": H.name, "field": H.field.to_json(), "dim": H.dim,
           "basis": H.basis_labels, "u": vector_to_json(H.u),
           "epsilon": [[c, v] for _, c, v in map_to_json(H.epsilon)["entries"]],
           **{key: map_to_json(getattr(H, key))["entries"]
              for key in ("m", "Delta", "S", "S_inv")},
           **{key: vector_to_json(getattr(H, key))
              for key in ("R", "R_inv", "theta", "theta_inv")},
           "simples": [{"name": V.name, "dim": V.dim,
                        "action": map_to_json(V.action)["entries"]} for V in simples]}
    path.write_text(json.dumps(obj), encoding="utf-8")


def test_explicit_models_run_where_the_coend_gates_fail(tmp_path, capsys, monkeypatch):
    """W, Wco and cyclic homology read only the structure constants of H and
    never build the coend: with the coend's carrier stage made to fail, they
    still pass on D(Z3), while every verb that reads the coend exits 1."""
    alg = tmp_path / "double_z3.json"
    H = drinfeld_double_of_cyclic(Cyclotomic(3), 3)
    write_algebra(H, alg, group_algebra_simples(H, [3, 3]))

    def failing_carrier(H):
        raise coend.CoendError("the carrier stage is disabled")

    monkeypatch.setattr(coend, "coend_carrier", failing_carrier)
    for argv in (("module", "build", "--which", "W", "-N", "2"),
                 ("module", "build", "--which", "Wco", "-N", "2"),
                 ("homology", "--chirality", "cyclic", "-N", "1")):
        code, out, err = run(capsys, *argv, "--no-cache", "--format", "json",
                             "--algebra", str(alg))
        assert (code, err) == (0, ""), argv
        assert json.loads(out)["ok"] is True
    for argv in (("coend", "build"), ("homology", "-N", "1"), ("tqft", "verify", "-N", "1"),
                 *[("module", "build", "--which", which, "-N", "1")
                   for which in ("generic", "genericco", "para", "paraco", "rcyclic")]):
        code, out, err = run(capsys, *argv, "--no-cache", "--algebra", str(alg))
        assert code == 1 and "the carrier stage is disabled" in out + err, argv


def test_d_z3_passes_the_coend_build_and_the_theorem(tmp_path, capsys):
    """With the antipode on leg 0 of the integral formula, D(Z3), whose
    antipode does not fix its basis, passes every coend gate and the
    comparison theorem at level 1."""
    alg = tmp_path / "double_z3.json"
    H = drinfeld_double_of_cyclic(Cyclotomic(3), 3)
    write_algebra(H, alg, group_algebra_simples(H, [3, 3]))
    for argv in (("coend", "build"), ("tqft", "verify", "-N", "1")):
        code, out, err = run(capsys, *argv, "--no-cache", "--format", "json",
                             "--algebra", str(alg))
        assert (code, err) == (0, ""), argv
        assert json.loads(out)["ok"] is True, argv


@pytest.mark.parametrize("argv,where", [
    (("module", "build", "--which", "W"), "out"),
    (("module", "build", "--which", "Wco"), "out"),
    (("homology", "--chirality", "cyclic"), "err"),
], ids=["W", "Wco", "cyclic-homology"])
def test_explicit_model_without_ribbon_data_is_a_verification_failure(tmp_path, capsys,
                                                                      argv, where):
    src = json.loads((DATA / "z2_trivial.json").read_text())
    for key in ("R", "R_inv", "theta", "theta_inv"):
        del src[key]
    alg = tmp_path / "no_ribbon.json"
    alg.write_text(json.dumps(src))
    code, out, err = run(capsys, *argv, "-N", "1", "--no-cache", "--algebra", str(alg))
    assert code == 1
    assert "needs ribbon data" in {"out": out, "err": err}[where]


def module_build(which):
    return ("module", "build", "--which", which, "-N", "1", "--no-cache")


# the coend build each command reads: cocyclic homology and the builders on
# the coalgebra object read Delta and eps, those on the algebra object m and
# the unit, and the state modules the pairing of the full build
BUILD_OF = [
    (("homology", "-N", "1"), COALGEBRA),
    (("tqft", "verify", "-N", "1"), FULL),
    *[(module_build(which), build) for which, build in (
        ("generic", ALGEBRA), ("genericco", COALGEBRA), ("para", COALGEBRA),
        ("paraco", ALGEBRA), ("rcyclic", COALGEBRA), ("rt", FULL), ("rtc", FULL))],
]


@pytest.mark.parametrize("argv,build", [
    pytest.param(argv, build, id=" ".join(argv[:4])) for argv, build in BUILD_OF])
def test_coend_commands_build_the_coend(monkeypatch, argv, build):
    """Each command reaches its own build of the coend and no other."""
    def other_build(*_):
        raise AssertionError(f"{' '.join(argv)} reached a build other than {build}")

    for name in COEND_BUILDS:
        monkeypatch.setattr(cli, name, reach_coend if name == build else other_build)
    with pytest.raises(CoendReached):
        main([*argv, "--algebra", str(DATA / "double_z2.json")])


@pytest.mark.parametrize("name", BUNDLES)
@pytest.mark.parametrize("argv", [argv for argv, build in BUILD_OF if build != FULL],
                         ids=lambda argv: " ".join(argv[:4]))
def test_stage_commands_report_as_from_the_full_build(capsys, monkeypatch, argv, name):
    """A command that reads one stage reports byte for byte what it reported
    when it read that stage's maps from the full build, and it still does so
    with the full build made to raise."""
    args = (*argv, "--format", "json", "--algebra", str(DATA / f"{name}.json"))
    full = cli.build_coend_hopf
    with monkeypatch.context() as patched:
        for stage in (COALGEBRA, ALGEBRA):
            patched.setattr(cli, stage, lambda H: full(H))
        expected = run(capsys, *args)
    monkeypatch.setattr(cli, FULL, reach_coend)
    assert run(capsys, *args) == expected


def test_failed_coalgebra_gate_fails_cocyclic_homology(capsys, monkeypatch):
    """A coproduct solved wrong (twice the true one, still equivariant) fails
    the duality oracle of the coalgebra stage, and homology names that gate."""
    factor = coend.factor_through_coend

    def doubled_coproduct(stage, rhs, arity):
        phi = factor(stage, rhs, arity)
        if arity == 1 and phi.codomain == stage.carrier.dim ** 2:
            return phi.scaled(phi.field.from_int(2))
        return phi

    monkeypatch.setattr(coend, "factor_through_coend", doubled_coproduct)
    code, out, err = run(capsys, "homology", "-N", "1",
                         "--algebra", str(DATA / "double_z2.json"))
    assert (code, out) == (1, "")
    assert err.splitlines() == ["verification error: coend gates failed: "
                                "['dual of the coproduct is the multiplication']"]


@pytest.mark.parametrize("kind", ["directory", "file"])
@pytest.mark.parametrize("argv", [
    ("hopf", "verify"),
    ("homology",),
    ("tqft", "verify"),
    ("module", "build", "--which", "rcyclic"),
    ("module", "build", "--which", "rt"),
    ("module", "build", "--which", "rtc"),
], ids=" ".join)
def test_cache_on_a_verb_that_reads_none_is_input_error(tmp_path, capsys, monkeypatch,
                                                        argv, kind):
    cache = tmp_path / "cache"
    if kind == "file":
        cache.write_text("a regular file", encoding="utf-8")
    else:
        cache.mkdir()

    def no_load(*_):
        raise AssertionError("the algebra was loaded before --cache was rejected")

    monkeypatch.setattr(cli, "_load", no_load)
    code, out, err = run(capsys, *argv, "--cache", str(cache),
                         "--algebra", str(DATA / "double_z2.json"))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {' '.join(argv)} reads no cache")
    assert len(err.strip().splitlines()) == 1
    assert kind == "file" or list(cache.iterdir()) == []


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
    # the hom-set of the constant map at the largest level: 1000 nested choices
    code, out, _ = run(capsys, "cat", "count 1000 0 simplicial")
    assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize("exponent", ["9999999", "-9999999"])
def test_paracyclic_normal_form_of_a_large_rotation_is_immediate(capsys, exponent):
    """The normal form's window is read off the values, not scanned for, so
    its cost does not grow with the rotation's exponent."""
    start = time.perf_counter()
    code, out, _ = run(capsys, "cat", "--variant", "paracyclic", f"nf t^{exponent} : 3->3")
    assert time.perf_counter() - start < 0.1
    assert code == 0 and out.splitlines()[0] == f"t_3^{exponent} : 3->3"


@pytest.mark.parametrize("argv", [
    ("count 1 2",), ("count a b cyclic",), ("L d2^x",), ("nf t^2 : x->1",),
    ("--variant", "rcyclicX", "nf t"), ("count -1 2 cyclic",),
    ("count 9 9 cyclic",), ("count 1 1 rcyclic(1000000)",), ("nf t : 20000->20000",),
    ("L d0^1001",),
], ids=" ".join)
def test_malformed_cat_expression_is_input_error(argv):
    """Malformed expressions, levels above cyclic_cat.MAX_LEVEL and hom-sets
    larger than cyclic_cat.MAX_HOM_COUNT end in one input-error line, at once."""
    proc = run_child("cat", *argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")
    assert len(proc.stderr.strip().splitlines()) == 1


# small levels only: hom_count enumerates the hom-set
_LEVEL = st.sampled_from(["-1", "0", "1", "2", "3", "4", "x", "", "1.5"])
_VARIANT = st.sampled_from(["simplicial", "cyclic", "paracyclic", "rcyclic", "rcyclic2",
                            "rcyclic(3)", "rcyclic(", "rcyclic0", "rcyclicX", "bogus"])
_HEAD = st.sampled_from(["d", "s", "t", "δ", "σ", "τ", "q", "id", ""])
_PIECE = st.builds(lambda h, i, e: h + i + e, _HEAD, _LEVEL | st.just(""),
                   st.just("") | _LEVEL.map("^{}".format))
_WORD = st.lists(_PIECE, max_size=3).map(".".join)
_TYPED = st.builds("{} : {}->{}".format, _WORD, _LEVEL, _LEVEL) | _WORD
_EXPLICIT = st.lists(st.builds(lambda h, i, l: f"{h}{i}^{l}", _HEAD, _LEVEL, _LEVEL) |
                     st.builds(lambda l, e: f"t_{l}^{e}", _LEVEL, _LEVEL),
                     max_size=3).map(".".join)
_CAT_EXPR = st.one_of(
    st.builds("count {} {} {}".format, _LEVEL, _LEVEL, _VARIANT),
    st.builds("count {} {}".format, _LEVEL, _LEVEL),
    st.builds("nf {}".format, _TYPED),
    st.builds("compose {} ; {}".format, _TYPED, _TYPED),
    st.builds("L {}".format, _EXPLICIT),
    st.builds("phi {}".format, _EXPLICIT),
    st.text(alphabet="countfpahiLdst^_.:->;0123 x", max_size=16),
)


@settings(max_examples=300, deadline=None)
@given(_VARIANT, _CAT_EXPR)
def test_cat_expression_exits_0_or_2(variant, expr):
    """Any cat expression at levels <= 4 prints its answer or ends in one
    input-error line; none raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["cat", "--variant", variant, "--", expr])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("input error:")
        assert len(err.getvalue().strip().splitlines()) == 1


# -- damaged algebra files ---------------------------------------------------------------

BUNDLES = {name: json.loads((DATA / f"{name}.json").read_text())
           for name in ("z2_trivial", "z2_semion")}   # over Q and over Q(i)


def _fields(obj, path=()):
    """Every (path, value) below obj, the root excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _fields(value, path + (key,))


def _damages(obj):
    """(path, kind of damage): a key or list item dropped or given a value of
    the wrong JSON type, an index of a sparse entry out of range, a malformed
    scalar."""
    fields = list(_fields(obj))
    return ([(path, "drop") for path, _ in fields] + [(path, "type") for path, _ in fields]
            + [(path, "index") for path, v in fields
               if type(v) is int and isinstance(path[-1], int) and path[-1] < 2]
            + [(path, "scalar") for path, v in fields if isinstance(v, str)])


DAMAGES = {name: _damages(obj) for name, obj in BUNDLES.items()}
WRONG_TYPES = [None, True, 1.5, "x", [], {}, 7, [[0]], {"kind": "Q"}]
BAD_SCALARS = ["1/0", "abc", "", "1//2", "2^", "1e5", "--1", "0x10", "1/2/3", "nan", "inf"]
FUZZED_VERBS = [("hopf", "verify"), ("coend", "build", "--no-cache"),
                ("module", "build", "--which", "W", "-N", "1", "--no-cache"),
                ("homology", "-N", "1"), ("tqft", "verify", "-N", "1")]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(BUNDLES)), st.sampled_from(FUZZED_VERBS), st.data())
def test_damaged_algebra_file_is_an_input_or_verification_error(name, verb, data):
    """Every verb that reads an algebra file, on z2_trivial.json or
    z2_semion.json with one field damaged, ends in exit 0, 1 or 2, the last
    with one input-error line, and never raises."""
    (*parents, key), kind = data.draw(st.sampled_from(DAMAGES[name]))
    obj = json.loads(json.dumps(BUNDLES[name]))
    holder = obj
    for k in parents:
        holder = holder[k]
    if kind == "drop":
        del holder[key]
    elif kind == "type":
        holder[key] = data.draw(st.sampled_from(
            [w for w in WRONG_TYPES if type(w) is not type(holder[key])]))
    elif kind == "index":
        holder[key] = data.draw(st.sampled_from([-1, 4, 9, 10 ** 6]))
    else:
        holder[key] = data.draw(st.sampled_from(BAD_SCALARS))
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.json"
        bad.write_text(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*verb, "--algebra", str(bad)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("input error:")
        assert len(err.getvalue().strip().splitlines()) == 1


@pytest.mark.parametrize("literal", ["1//2", "z^", "", ["1"], 1])
def test_one_damaged_literal_among_equal_ones_is_input_error(tmp_path, capsys, literal):
    """The last literal "1" of m in z2_semion.json damaged, though the file
    holds 40 more: the one parse per distinct literal still reads each
    occurrence, and hopf verify exits 2 with one input-error line."""
    obj = json.loads((DATA / "z2_semion.json").read_text())
    ones = [entry for entry in obj["m"] if entry[2] == "1"]
    ones[-1][2] = literal
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "hopf", "verify", "--algebra", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("input error: cannot parse")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("damage", ["drop 0", "drop 1", "drop 2", "move 5"])
def test_failed_homology_gate_is_a_verification_error(tmp_path, damage):
    """An entry of R_inv in z2_semion.json dropped, or moved to another
    index, makes the mixed complex of the cocyclic coend module fail its
    identities: homology exits 1 with one verification-error line, not a
    traceback."""
    obj = json.loads((DATA / "z2_semion.json").read_text())
    kind, k = damage.split()
    if kind == "drop":
        del obj["R_inv"][int(k)]
    else:
        obj["R_inv"][0][0] = int(k)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    proc = run_child("homology", "-N", "1", "--algebra", str(bad))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("verification error:")
    assert len(proc.stderr.strip().splitlines()) == 1


# -- one parser per process --------------------------------------------------------------

TRIVIAL = str(DATA / "z2_trivial.json")


@pytest.fixture
def built_parsers(monkeypatch):
    """No parser built yet; collects each parser that build_parser returns."""
    built = []
    build = cli.build_parser

    def counted():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    return built


def test_reused_parser_carries_no_state(built_parsers, capsys):
    """Four main() calls build one parser, and no call leaves a trace in it:
    after --format json, and after a bad flag, the table report is byte for
    byte what a fresh interpreter prints."""
    fresh = run_child("hopf", "verify", "--algebra", TRIVIAL)
    assert fresh.returncode == 0, fresh.stderr
    code, out, _ = run(capsys, "hopf", "verify", "--format", "json", "--algebra", TRIVIAL)
    assert code == 0 and json.loads(out)["ok"] is True
    assert run(capsys, "hopf", "verify", "--algebra", TRIVIAL) == (0, fresh.stdout, "")
    code, out, err = run(capsys, "hopf", "verify", "--bogus", "--algebra", TRIVIAL)
    assert (code, out) == (2, "") and "unrecognized arguments: --bogus" in err
    assert run(capsys, "hopf", "verify", "--algebra", TRIVIAL) == (0, fresh.stdout, "")
    assert len(built_parsers) == 1


def test_import_builds_no_parser():
    """A fresh import of the command line builds no argument parser; the first
    main() call builds it."""
    proc = run_python("-c", "\n".join([
        "import argparse",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "def counted(self, *args, **kwargs):",
        "    built.append(self)",
        "    init(self, *args, **kwargs)",
        "argparse.ArgumentParser.__init__ = counted",
        "from cyclotome import cli",
        "assert cli._parser is None and not built, built",
        "assert cli.main(['cat', 'count', '1', '1', 'cyclic']) == 0",
        "assert cli._parser is not None and built",
    ]))
    assert proc.returncode == 0, proc.stderr


def test_command_replaced_after_the_first_call_runs(built_parsers, monkeypatch, capsys):
    """The parser names each verb's command function and main() looks it up on
    the module at call time, so a cmd_* replaced after the parser was built
    is the one that runs (a tracer wraps them this way)."""
    assert run(capsys, "hopf", "verify", "--algebra", TRIVIAL)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_hopf_verify", lambda args: seen.append(args.algebra) or 7)
    assert run(capsys, "hopf", "verify", "--algebra", TRIVIAL)[0] == 7
    assert seen == [TRIVIAL]
    assert len(built_parsers) == 1


# -- damaged coend cache entries ---------------------------------------------------------

CACHE_ENTRIES = {}


def _cache_entry(argv):
    """The file name and text of the one cache entry that the command argv
    writes with --cache."""
    if argv not in CACHE_ENTRIES:
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--cache", tmp]) == 0
            (entry,) = Path(tmp).glob("*.json")
            CACHE_ENTRIES[argv] = entry.name, entry.read_text(encoding="utf-8")
    return CACHE_ENTRIES[argv]


@st.composite
def _damaged_entry(draw, text):
    """The bytes of a cache entry truncated, with one character edited, with
    one field damaged as in the algebra files above (or a map's size
    changed), or replaced by other bytes, JSON or not."""
    kind = draw(st.sampled_from(["truncate", "edit", "field", "size", "raw"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))].encode()
    if kind == "edit":
        i = draw(st.integers(0, len(text) - 1))
        char = draw(st.sampled_from('0123456789-/z^*,[]{}":n '))
        return (text[:i] + char + text[i + 1:]).encode()
    if kind == "raw":
        return draw(st.sampled_from([b"", b"\x00\xff\xfe", b"{", b"[" * 100000, b"NaN",
                                     b"null", b"[]", b'{"dim": 2}']))
    obj = json.loads(text)
    if kind == "size":
        (*parents, key), _ = draw(st.sampled_from(
            [(path, v) for path, v in _fields(obj) if path[-1] in ("src", "tgt", "dim")]))
        value = draw(st.sampled_from([0, 1, 3, 8, 10 ** 6]))
    else:
        (*parents, key), damage = draw(st.sampled_from(_damages(obj)))
        if damage == "drop":
            value = None
        elif damage == "index":
            value = draw(st.sampled_from([-1, 4, 9, 10 ** 6]))
        elif damage == "scalar":
            value = draw(st.sampled_from(BAD_SCALARS))
    holder = obj
    for k in parents:
        holder = holder[k]
    if kind == "field" and damage == "drop":
        del holder[key]
    elif kind == "field" and damage == "type":
        holder[key] = draw(st.sampled_from(
            [w for w in WRONG_TYPES if type(w) is not type(holder[key])]))
    else:
        holder[key] = value
    return json.dumps(obj).encode()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(BUNDLES)), st.data())
def test_damaged_coend_cache_entry_is_never_a_traceback(name, data):
    """coend build --cache over a damaged coend entry of z2_trivial or
    z2_semion ends in exit 0, 1 or 2, the last with one input-error line, and
    never raises: the entry is read as a miss and rebuilt, or read and its
    maps gated again."""
    _run_over_damaged_entry(("coend", "build", "--algebra", str(DATA / f"{name}.json")),
                            data)


def _run_over_damaged_entry(argv, data):
    """Run argv with --cache over a damaged copy of the entry it writes: the
    exit is 0, 1 or 2, the last with one input-error line, and nothing raises."""
    entry, text = _cache_entry(argv)
    damaged = data.draw(_damaged_entry(text))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / entry).write_bytes(damaged)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--cache", tmp])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("input error:")
        assert len(err.getvalue().strip().splitlines()) == 1


# -- damaged module cache entries --------------------------------------------------------

MODULE_BUILDS = {which: ("module", "build", "--which", which, "-N", "1", "--algebra", TRIVIAL)
                 for which in ("W", "para")}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(MODULE_BUILDS)), st.data())
def test_damaged_module_cache_entry_is_never_a_traceback(which, data):
    """module build --cache over a damaged module entry of z2_trivial, for the
    explicit model W and the paracyclic module, ends in exit 0, 1 or 2 and
    never raises."""
    _run_over_damaged_entry(MODULE_BUILDS[which], data)


@pytest.mark.parametrize("which", sorted(MODULE_BUILDS))
def test_module_entry_lacking_a_generator_or_level_is_a_miss(which, capsys):
    """A module entry with one generator or one level space dropped, with one
    generator too many, or with a generator whose stored size is not its level
    spaces', is read as a miss and rebuilt: the relations are never checked on
    such a module."""
    argv = MODULE_BUILDS[which]
    entry, text = _cache_entry(argv)
    obj = json.loads(text)
    damages = [("drop", part, key) for part in ("gen", "spaces") for key in obj[part]]
    damages += [("extra", "gen", "tau:2"), ("size", "gen", "tau:1")]
    for kind, part, key in damages:
        bad = json.loads(text)
        if kind == "drop":
            del bad[part][key]
        elif kind == "extra":
            bad[part][key] = bad[part]["tau:1"]
        else:
            bad[part][key]["src"] += 1
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / entry).write_text(json.dumps(bad), encoding="utf-8")
            code, out, err = run(capsys, *argv, "--cache", tmp, "--format", "json")
        assert (code, err) == (0, ""), (kind, part, key, err)
        assert json.loads(out)["cached"] is False, (kind, part, key)


@pytest.mark.parametrize("which", sorted(MODULE_BUILDS))
@pytest.mark.parametrize("damage", ["emptied", "literal"])
def test_module_entry_failing_its_checks_is_rebuilt(which, damage, capsys):
    """A module entry that parses but no longer holds, the entries of the
    generator delta:1:0 emptied or one of its literals changed, is a miss: the
    module is rebuilt, its checks pass and the entry is written again."""
    argv = MODULE_BUILDS[which]
    entry, text = _cache_entry(argv)
    bad = json.loads(text)
    gen = bad["gen"]["delta:1:0"]["entries"]
    if damage == "emptied":
        gen.clear()
    else:
        gen[0][2] = "2"
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / entry).write_text(json.dumps(bad), encoding="utf-8")
        code, out, err = run(capsys, *argv, "--cache", tmp, "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["cached"] is False and report["relations_ok"] is True
        assert json.loads((Path(tmp) / entry).read_text(encoding="utf-8")) == json.loads(text)
        code, out, _ = run(capsys, *argv, "--cache", tmp, "--format", "json")
        assert code == 0 and json.loads(out)["cached"] is True


# -- a coproduct with an empty sum -------------------------------------------------------


@pytest.mark.parametrize("k", range(len(BUNDLES["z2_semion"]["Delta"])))
@pytest.mark.parametrize("verb", [("module", "build", "--which", "W", "-N", "1", "--no-cache"),
                                  ("coend", "build", "--no-cache"),
                                  ("module", "build", "--which", "Wco", "-N", "1", "--no-cache"),
                                  ("homology", "--chirality", "cyclic", "-N", "1")])
def test_coproduct_with_an_empty_sum_is_no_traceback(tmp_path, verb, k):
    """z2_semion.json with entry k of Delta dropped; Delta of a group algebra
    has one entry per basis element, so one Delta(e_j) has no terms and its
    action on every tensor product is a kron_sum over none.  Nothing raises:
    the coend build, whose gates read the coproduct, fails them, and the
    explicit models W and Wco, which homology --chirality cyclic reads too,
    fail the Hopf axioms (exit 1)."""
    obj = json.loads(json.dumps(BUNDLES["z2_semion"]))
    del obj["Delta"][k]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*verb, "--algebra", str(bad)])
    if verb[0] == "coend":
        assert code in (1, 2), out.getvalue()
    else:
        assert code == 1 and "Hopf axioms fail" in out.getvalue() + err.getvalue()
    assert "Traceback" not in err.getvalue()
