"""Command-line front end: load algebra files, run verification suites, build
modules, emit homology tables, and cache heavy intermediates.

Exit codes: 0 all checks pass, 1 a verification failed, 2 input error.
Reports are deterministic (sorted keys, canonical scalar rendering) so they
can be asserted on byte-for-byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from . import __version__, cyclic_cat as cc
from .coend import (
    CoendData, CoendError, build_coend_algebra, build_coend_coalgebra, build_coend_hopf,
    end_and_drinfeld,
)
from .cyclic_modules import (
    CyclicModuleError, build_paracyclic, check_relations, cocyclic_module_from_coalgebra,
    cyclic_module_from_algebra, explicit_coend_cocyclic, explicit_coend_cyclic,
    module_from_json, module_to_json, r_cyclic_from_simple,
    twisted_cyclicity_check,
)
from .homology import HomologyError, cyclic_ranks, hochschild_ranks, mixed_complex
from .hopf import HopfError, coadjoint_module, load_algebra, modular_data, verify_axioms, \
    verify_quasitriangular_ribbon
from .reports import CheckReport
from .tqft import TqftError, build_rt_cocyclic, build_rt_cyclic, shape_checks, \
    verify_main_theorem

SCHEMA = 1


class InputError(Exception):
    pass


def _load(path: str):
    p = Path(path)
    if not p.exists():
        raise InputError(f"no such file: {path}")
    try:
        return load_algebra(p)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot parse {path}: {exc}") from exc


def _max_level(args, default: int) -> int:
    N = default if args.N is None else args.N
    if N < 0:
        raise InputError(f"-N must be nonnegative, got {N}")
    return N


def _cache_dir(args) -> Path | None:
    """The cache directory named by --cache or CYCLOTOME_CACHE, if any; one
    that exists and is not a directory is an input error, raised before
    anything is built."""
    if getattr(args, "no_cache", False):
        return None
    path = getattr(args, "cache", None) or os.environ.get("CYCLOTOME_CACHE")
    if not path:
        return None
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise InputError(f"the cache {path} is not a directory")
    return path


def _reads_no_cache(args, verb: str):
    """An explicit --cache on a verb that reads no cache is an input error,
    raised before anything is loaded; --no-cache is accepted there and does
    nothing, and CYCLOTOME_CACHE is ignored."""
    if args.cache is not None:
        raise InputError(f"{verb} reads no cache; drop --cache")


def _cache_key(path: str, *params) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    h.update(repr((__version__, SCHEMA, *params)).encode())
    return h.hexdigest()


# what a truncated, edited or foreign cache file can raise while it is parsed
# and rebuilt into maps; any of them makes the entry a miss
_DAMAGED_CACHE = (OSError, ValueError, LookupError, TypeError, AttributeError,
                  ArithmeticError, RecursionError)


def _read_cache(path: Path, load):
    """load(the file's JSON), or None when the entry is missing, damaged, or
    rejected by load returning None.

    The gates are not re-run on what load returns."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load(json.load(fh))
    except _DAMAGED_CACHE:
        return None


def _write_cache(path: Path, obj: dict):
    """Write through a temporary file in the same directory and os.replace, so
    that a reader never sees a partly written entry.  A cache that cannot be
    written (its directory is a file, the disk is full) is an input error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(obj, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputError(f"cannot write the cache entry {path}: {exc}") from exc


def _emit(args, payload: dict, ok: bool) -> int:
    payload = {"schema": SCHEMA, "ok": ok, **payload}
    if getattr(args, "format", "table") == "json":
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        _print_table(payload)
    return 0 if ok else 1


def _print_table(payload, indent=0):
    pad = " " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_table(value, indent + 2)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                _print_table(item, indent + 2)
        else:
            print(f"{pad}{key}: {value}")


def _report_payload(*reports: CheckReport) -> dict:
    return {"checks": [{"name": n, "ok": ok}
                       for rep in reports for n, ok in sorted(rep.entries)]}


# -- verbs -------------------------------------------------------------------------------


def cmd_hopf_verify(args) -> int:
    _reads_no_cache(args, "hopf verify")
    H, simples = _load(args.algebra)
    rep = verify_axioms(H)
    reports = [rep]
    if H.R is not None and H.theta is not None:
        reports.append(verify_quasitriangular_ribbon(H))
    payload = {"algebra": H.name, "dim": H.dim}
    ok = all(r.ok for r in reports)
    if simples:
        try:
            md = modular_data(H, simples)
            payload["modular"] = md.modular
            payload["anomaly_free"] = md.anomaly_free
            payload["dim_B"] = repr(md.dim_B)
        except HopfError as exc:
            payload["simples_error"] = str(exc)
            ok = False
    payload.update(_report_payload(*reports))
    return _emit(args, payload, ok)


def cmd_coend_build(args) -> int:
    from .coend import coend_from_json, coend_to_json

    H, simples = _load(args.algebra)
    cache_dir = _cache_dir(args)
    cache_file = None
    data = None
    if cache_dir is not None:
        cache_file = cache_dir / f"coend-{_cache_key(args.algebra, 'coend')}.json"
        data = _read_cache(cache_file, lambda obj: coend_from_json(H, obj)
                           if obj["dim"] == H.dim else None)
    cached = data is not None
    if not cached:
        data = build_coend_hopf(H, simples or None)
        if cache_file is not None:
            _write_cache(cache_file, coend_to_json(data))
    payload = {
        "algebra": H.name,
        "carrier_dim": data.dim,
        "cached": cached,
        "pairing_nondegenerate": data.pairing_nondegenerate,
        "integral_present": data.integral is not None,
    }
    if data.dim_B is not None:
        payload["dim_B"] = repr(data.dim_B)
        payload["anomaly_free"] = data.anomaly_free
        payload["modular"] = data.modular
    end, D, flags = end_and_drinfeld(data)
    payload["factorizable"] = flags["pairing_nondegenerate"]
    payload["factorizability_tests_agree"] = len(set(flags.values())) == 1
    payload.update(_report_payload(data.report, end.report))
    ok = data.report.ok and end.report.ok and payload["factorizability_tests_agree"]
    return _emit(args, payload, ok)


# the cached builders: the explicit models on invariant tensors read only the
# algebra, the others one stage of the coend, its coalgebra or its algebra
_BUILDERS = {
    "W": explicit_coend_cyclic,
    "Wco": explicit_coend_cocyclic,
    "generic": lambda H, N: cyclic_module_from_algebra(build_coend_algebra(H), N),
    "genericco": lambda H, N: cocyclic_module_from_coalgebra(build_coend_coalgebra(H), N),
    "para": lambda H, N: build_paracyclic(build_coend_coalgebra(H), N, "cyclic"),
    "paraco": lambda H, N: build_paracyclic(build_coend_algebra(H), N, "cocyclic"),
}


def cmd_module_build(args) -> int:
    if args.which not in _BUILDERS:
        _reads_no_cache(args, f"module build --which {args.which}")
    H, simples = _load(args.algebra)
    N = _max_level(args, 2 if args.which in ("rt", "rtc") else 3)
    if args.which == "rcyclic":
        if not simples:
            raise InputError("rcyclic needs a data file with simples")
        if not 0 <= args.simple < len(simples):
            raise InputError(f"--simple {args.simple} is out of range: the file has "
                             f"{len(simples)} simples")
    cache_dir = _cache_dir(args) if args.which in _BUILDERS else None
    cache_file = None
    module = None
    if cache_dir is not None:
        cache_file = cache_dir / f"module-{_cache_key(args.algebra, args.which, N)}.json"
        module = _read_cache(cache_file, lambda obj: module_from_json(obj)
                             if obj["max_level"] == N else None)

    payload = {"algebra": H.name, "which": args.which, "max_level": N, "cached": False}
    try:
        if module is not None:
            if args.which in ("para", "paraco"):
                # the cache holds only matrices; the twisted cyclicity check also
                # needs the tensor powers of the coend's carrier, H* coadjoint
                carrier = CoendData(H, coadjoint_module(H))
                module.level_modules = {n: carrier.power(n + 1) for n in range(N + 1)}
            rel, extra_reports = _module_checks(args.which, module)
            # an entry that parses but fails its checks is damaged: a miss, rebuilt
            payload["cached"] = rel.ok and all(r.ok for r in extra_reports)
        if not payload["cached"]:
            module, rel, extra_reports = _built_module(args, H, N, simples, payload)
    except (CoendError, CyclicModuleError, TqftError) as exc:
        payload["error"] = str(exc)
        return _emit(args, payload, False)

    if cache_file is not None and not payload["cached"]:
        _write_cache(cache_file, module_to_json(module))
    payload["levels"] = {str(n): module.dim(n) for n in range(N + 1)}
    payload["relations_checked"] = len(rel.entries)
    payload["relations_ok"] = rel.ok
    if not rel.ok:
        payload["failures"] = rel.failures[:10]
    payload.update(_report_payload(*extra_reports))
    ok = rel.ok and all(r.ok for r in extra_reports)
    return _emit(args, payload, ok)


def _module_checks(which: str, module) -> tuple[CheckReport, list[CheckReport]]:
    """The relations report of a cached or built module of _BUILDERS and, for
    para and paraco, its twisted cyclicity report."""
    twisted = [twisted_cyclicity_check(module)] if which in ("para", "paraco") else []
    return check_relations(module), twisted


def _built_module(args, H, N: int, simples, payload: dict):
    """The module that args names, built afresh, its relations report and its
    other reports; rcyclic adds its twist to payload."""
    if args.which in _BUILDERS:
        module = _BUILDERS[args.which](H, N)
        return (module, *_module_checks(args.which, module))
    if args.which == "rcyclic":
        para = build_paracyclic(build_coend_coalgebra(H), N, "cyclic")
        module, scalar, r = r_cyclic_from_simple(para, simples[args.simple])
        payload["twist_scalar"] = repr(scalar)
        payload["twist_order"] = r
        return module, check_relations(module), []
    # rt and rtc read the whole coend: omega comes from its pairing
    data = build_coend_hopf(H, simples or None)
    rt = (build_rt_cocyclic if args.which == "rt" else build_rt_cyclic)(data, N)
    rel, sc = check_relations(rt.module), shape_checks(rt)
    return rt.module, rel, [sc, verify_main_theorem(rt, rel, sc)] if args.which == "rt" else [sc]


def cmd_homology(args) -> int:
    _reads_no_cache(args, "homology")
    H, _ = _load(args.algebra)
    N = _max_level(args, 3)
    if args.chirality == "cocyclic":
        module = cocyclic_module_from_coalgebra(build_coend_coalgebra(H), N + 1)
    else:
        module = explicit_coend_cyclic(H, N + 1)
    mc = mixed_complex(module)
    hh = hochschild_ranks(mc, N)
    hc = cyclic_ranks(mc, N)
    payload = {
        "algebra": H.name,
        "chirality": args.chirality,
        "table": [{"degree": n, "HH": hh[n], "HC": hc[n]} for n in range(N + 1)],
    }
    payload.update(_report_payload(mc.report))
    return _emit(args, payload, mc.report.ok)


def cmd_tqft_verify(args) -> int:
    _reads_no_cache(args, "tqft verify")
    H, simples = _load(args.algebra)
    N = _max_level(args, 2)
    try:
        data = build_coend_hopf(H, simples or None)
        rt = build_rt_cocyclic(data, N)
    except (CoendError, TqftError) as exc:
        return _emit(args, {"algebra": H.name, "error": str(exc)}, False)
    rel = check_relations(rt.module)
    sc = shape_checks(rt)
    vt = verify_main_theorem(rt, rel, sc)
    payload = {"algebra": H.name, "max_level": N,
               "relations_ok": rel.ok, "relations_checked": len(rel.entries)}
    payload.update(_report_payload(sc, vt))
    return _emit(args, payload, rel.ok and sc.ok and vt.ok)


_VARIANTS = {"simplicial": cc.SIMPLICIAL, "cyclic": cc.CYCLIC,
             "paracyclic": cc.PARACYCLIC}


def _parse_variant(text: str) -> cc.CategoryVariant:
    if text in _VARIANTS:
        return _VARIANTS[text]
    if text.startswith("rcyclic"):
        r = cc.parse_int(text.split("(", 1)[1].rstrip(")") if "(" in text else text[7:] or "2")
        return cc.RCyclic(r)
    raise InputError(f"unknown variant {text!r}")


def _parse_explicit_word(body: str, direction: str) -> cc.GeneratorWord:
    """Words with explicit level superscripts, e.g. 'd2^3.s0^2.t_1^-1'."""
    tokens = []
    for piece in body.split("."):
        piece = piece.strip()
        if not piece or piece == "id":
            continue
        head = piece[0]
        rest = piece[1:]
        if head in ("d", "δ"):
            idx, _, lvl = rest.partition("^")
            tokens.append(cc.Token("coface", cc.parse_level(lvl), cc.parse_int(idx)))
        elif head in ("s", "σ"):
            idx, _, lvl = rest.partition("^")
            tokens.append(cc.Token("codegeneracy", cc.parse_level(lvl), cc.parse_int(idx)))
        elif head in ("t", "τ"):
            lvl_txt, _, exp_txt = rest.lstrip("_").partition("^")
            tokens.append(cc.Token("tau", cc.parse_level(lvl_txt), cc.parse_int(exp_txt or "1")))
        else:
            raise InputError(f"unknown token {piece!r}")
    return cc.GeneratorWord(tokens, direction)


def _render_covariant(word: cc.GeneratorWord) -> str:
    names = {"coface": "δ", "codegeneracy": "σ", "tau": "τ"}
    parts = []
    for tok in word.tokens:
        if tok.kind == "tau":
            suffix = f"^{tok.index}" if tok.index != 1 else ""
            parts.append(f"τ_{tok.level}{suffix}")
        else:
            parts.append(f"{names[tok.kind]}_{tok.index}^{tok.level}")
    return ".".join(parts) if parts else "id"


def cmd_cat(args) -> int:
    expr = " ".join(args.expr).strip()
    variant = _parse_variant(args.variant)
    if expr.startswith("count"):
        words = expr.split()
        if len(words) != 4:
            raise InputError("expected 'count n m variant'")
        _, n, m, vname = words
        print(cc.hom_count(cc.parse_level(n), cc.parse_level(m), _parse_variant(vname)))
        return 0
    if expr.startswith("nf "):
        word = cc.parse_word(expr[3:], variant)
        f = cc.interpret(word, variant)
        print(cc.render_word(f))
        print(cc.render_map(f))
        return 0
    if expr.startswith("compose "):
        left, _, right = expr[8:].partition(";")
        f = cc.interpret(cc.parse_word(right.strip(), variant), variant)
        g = cc.interpret(cc.parse_word(left.strip(), variant), variant)
        h = cc.compose(g, f)
        print(cc.render_word(h))
        print(cc.render_map(h))
        return 0
    if expr.startswith("L "):
        word = _parse_explicit_word(expr[2:], "contravariant")
        out = cc.dualize_L(word)
        print(_render_covariant(out))
        return 0
    if expr.startswith("phi "):
        word = _parse_explicit_word(expr[4:], "covariant")
        out = cc.reindex_Phi(word)
        print(_render_covariant(out))
        return 0
    raise InputError(f"cannot parse expression {expr!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclotome",
        description="exact cyclic-category / ribbon-Hopf / coend computations")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, with_N=True):
        p.add_argument("--algebra", required=True, help="algebra data file (JSON)")
        p.add_argument("--format", choices=("table", "json"), default="table")
        if with_N:
            p.add_argument("-N", type=int, default=None, help="maximum level")
        p.add_argument("--cache", default=None,
                       help="cache directory (coend build, cached module builders)")
        p.add_argument("--no-cache", action="store_true")

    hopf = sub.add_parser("hopf", help="axiom suites").add_subparsers(
        dest="action", required=True)
    hv = hopf.add_parser("verify")
    common(hv, with_N=False)
    hv.set_defaults(command="cmd_hopf_verify")

    coend = sub.add_parser("coend", help="coend construction").add_subparsers(
        dest="action", required=True)
    cb = coend.add_parser("build")
    common(cb, with_N=False)
    cb.set_defaults(command="cmd_coend_build")

    module = sub.add_parser("module", help="cyclic module builders").add_subparsers(
        dest="action", required=True)
    mb = module.add_parser("build")
    common(mb)
    mb.add_argument("--which", required=True,
                    choices=("W", "Wco", "generic", "genericco", "para", "paraco",
                             "rcyclic", "rt", "rtc"))
    mb.add_argument("--simple", type=int, default=1,
                    help="index of the simple for the r-cyclic restriction")
    mb.set_defaults(command="cmd_module_build")

    hom = sub.add_parser("homology", help="HH/HC tables")
    common(hom)
    hom.add_argument("--chirality", choices=("cocyclic", "cyclic"),
                     default="cocyclic")
    hom.set_defaults(command="cmd_homology")

    tq = sub.add_parser("tqft", help="state modules").add_subparsers(
        dest="action", required=True)
    tv = tq.add_parser("verify")
    common(tv)
    tv.set_defaults(command="cmd_tqft_verify")

    cat = sub.add_parser("cat", help="cyclic category calculator")
    cat.add_argument("--variant", default="cyclic")
    cat.add_argument("expr", nargs="+")
    cat.set_defaults(command="cmd_cat")
    return parser


# the parser is built by the first main() call and reused by later calls in
# the same process; parsing leaves it unchanged.  Each verb's parser names its
# command function, looked up here at call time, so a cmd_* replaced on this
# module after the first call still takes effect.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return globals()[args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (cc.CyclicCatError,) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (HopfError, CoendError, CyclicModuleError, TqftError, HomologyError) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
