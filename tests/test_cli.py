import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cyclotome import cli
from cyclotome.cli import main
from cyclotome.fields import Cyclotomic
from cyclotome.hopf import drinfeld_double_of_cyclic
from cyclotome.linalg import map_to_json, vector_to_json

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


def run_child(*argv):
    """The command line in a separate interpreter, so that an uncaught exception
    shows as a traceback on stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "cyclotome.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


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


@pytest.mark.parametrize("edit", [_drop_counit, _unit_index_out_of_range, _null_unit])
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


DAMAGE = {"truncated": lambda text: text[:len(text) // 2],
          "schema-only": lambda text: '{"schema": 1}',
          "deeply-nested": lambda text: "[" * 100000 + "]" * 100000}


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


@pytest.mark.parametrize("which", ["W", "para"])
def test_module_cache_hit_skips_the_coend(tmp_path, capsys, monkeypatch, which):
    args = ("module", "build", "--algebra", str(DATA / "z2_trivial.json"),
            "--which", which, "-N", "1", "--cache", str(tmp_path),
            "--format", "json")
    code, out1, _ = run(capsys, *args)
    assert code == 0

    def no_coend(*_):
        raise AssertionError("a module cache hit built the coend")

    monkeypatch.setattr(cli, "build_coend_hopf", no_coend)
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


def write_algebra(H, path):
    """H as an algebra file, without simples."""
    obj = {"name": H.name, "field": H.field.to_json(), "dim": H.dim,
           "basis": H.basis_labels, "u": vector_to_json(H.u),
           "epsilon": [[c, repr(v)] for (_, c), v in sorted(H.epsilon.entries.items())],
           **{key: map_to_json(getattr(H, key))["entries"]
              for key in ("m", "Delta", "S", "S_inv")},
           **{key: vector_to_json(getattr(H, key))
              for key in ("R", "R_inv", "theta", "theta_inv")}}
    path.write_text(json.dumps(obj), encoding="utf-8")


def test_explicit_models_run_where_the_coend_gates_fail(tmp_path, capsys):
    """D(Z3) fails two gates of the coend's integral formula, so coend build
    exits 1; W, Wco and cyclic homology never build the coend and pass."""
    alg = tmp_path / "double_z3.json"
    write_algebra(drinfeld_double_of_cyclic(Cyclotomic(3), 3), alg)
    code, _, err = run(capsys, "coend", "build", "--no-cache", "--algebra", str(alg))
    assert code == 1 and "integral formula" in err
    for argv in (("module", "build", "--which", "W", "-N", "2"),
                 ("module", "build", "--which", "Wco", "-N", "2"),
                 ("homology", "--chirality", "cyclic", "-N", "1")):
        code, out, err = run(capsys, *argv, "--no-cache", "--format", "json",
                             "--algebra", str(alg))
        assert (code, err) == (0, ""), argv
        assert json.loads(out)["ok"] is True


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


@pytest.mark.parametrize("argv", [
    ("homology", "-N", "1"),
    ("tqft", "verify", "-N", "1"),
    *[("module", "build", "--which", which, "-N", "1", "--no-cache")
      for which in ("generic", "genericco", "para", "paraco", "rcyclic", "rt", "rtc")],
], ids=lambda argv: " ".join(argv[:4]))
def test_coend_commands_build_the_coend(monkeypatch, argv):
    monkeypatch.setattr(cli, "build_coend_hopf", reach_coend)
    with pytest.raises(CoendReached):
        main([*argv, "--algebra", str(DATA / "double_z2.json")])


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


@pytest.mark.parametrize("argv", [
    ("count 1 2",), ("count a b cyclic",), ("L d2^x",), ("nf t^2 : x->1",),
    ("--variant", "rcyclicX", "nf t"), ("count -1 2 cyclic",),
], ids=" ".join)
def test_malformed_cat_expression_is_input_error(argv):
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
