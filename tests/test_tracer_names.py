"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name; a name that no longer resolves would turn its per-layer metric into a
silent 0.  The tracer's source is read and executed here, never imported from
its directory, so this test writes nothing there."""

import ast
import importlib
import inspect
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), mod.__dict__)
    return mod


def test_every_traced_name_is_a_wrapped_function():
    tracer = _tracer()
    names = {n for members, _, _ in tracer.GROUPS.values() for n in members}
    names |= set(tracer.AFTER)
    assert names
    for name in sorted(names):
        layer, *rest = name.split(".")
        assert layer in tracer.LAYERS, name
        mod = importlib.import_module(f"cyclotome.{layer}")
        if len(rest) == 1:
            # the tracer wraps public functions defined in the layer module itself
            fn = vars(mod).get(rest[0])
            assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name
        else:
            cls_name, attr = rest
            assert cls_name in tracer.CLASSES[layer], name
            raw = vars(getattr(mod, cls_name)).get(attr)
            assert inspect.isfunction(raw) or isinstance(raw, staticmethod), name


def test_every_traced_class_resolves_in_its_layer():
    """Tracer.install() looks each class of CLASSES up with getattr on its
    layer module, so a renamed class would crash every traced run."""
    tracer = _tracer()
    assert tracer.CLASSES
    for layer, class_names in tracer.CLASSES.items():
        assert layer in tracer.LAYERS, layer
        mod = importlib.import_module(f"cyclotome.{layer}")
        for cls_name in class_names:
            cls = vars(mod).get(cls_name)
            assert inspect.isclass(cls) and cls.__module__ == mod.__name__, \
                f"{layer}.{cls_name}"


def _references_outside_own_def(name: str) -> bool:
    """Whether the package reads name's last part (a Name or an attribute)
    anywhere but inside the def that the tracer wraps."""
    layer, *rest = name.split(".")
    attr = rest[-1]
    for path in sorted((TRACER.parents[1] / "src" / "cyclotome").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = set()
        if path.stem == layer:
            body = tree.body
            for cls in rest[:-1]:
                body = next(n.body for n in body if isinstance(n, ast.ClassDef) and n.name == cls)
            own = next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == attr)
            skip = {id(n) for n in ast.walk(own)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name) and node.id == attr or \
                    isinstance(node, ast.Attribute) and node.attr == attr:
                return True
    return False


def test_every_traced_name_is_reached_from_the_package():
    """A traced function that nothing in the package calls reads 0 in its
    per-layer metric as surely as a name that no longer resolves.  The only
    such names are the two that the planned in-library trace retires
    (ROADMAP.md, "In-library trace")."""
    tracer = _tracer()
    names = {n for members, _, _ in tracer.GROUPS.values() for n in members}
    names |= set(tracer.AFTER)
    orphans = {n for n in names if not _references_outside_own_def(n)}
    assert orphans == {"hopf.right_coadjoint_power", "linalg.kernel_with_free_columns"}


def test_after_hooks_count_the_cells_and_nonzeros_of_real_maps():
    """The tracer's counters read m.domain.dim and m.codomain.dim
    (linalg._Dim): its AFTER hooks, run from its source on maps built by
    every kind of constructor, count rows x columns and the nonzeros."""
    from collections import defaultdict

    from cyclotome.fields import Rationals
    from cyclotome.hopf import braiding, regular_module, sweedler_h4
    from cyclotome.linalg import (
        LinearMap, SubspaceBasis, block_flip, kron_sum, stack, whisker,
    )
    tracer = _tracer()
    Q = Rationals()
    H = sweedler_h4(Q)
    V = regular_module(H)
    a = LinearMap(Q, 3, 2, {(0, 1): Q.one(), (1, 2): Q.from_int(5)})
    maps = [a, a.transpose(), LinearMap.identity(Q, 4), LinearMap.zero(Q, 2, 0),
            whisker(a, 2, 3), a.tensor(a), kron_sum(Q, (3, 2), (3, 2), [(None, a, a)]),
            block_flip(Q, 2, 3), stack([a, a]), SubspaceBasis.from_kernel(Q, a).matrix(),
            H.m, H.Delta.compose(H.m), braiding(V, V)]
    for m in maps:
        rows, cols = m.codomain, m.domain
        for name in ("linalg.solve", "linalg.kernel_and_rank",
                     "linalg.kernel_with_free_columns"):
            counts = defaultdict(int)
            tracer.AFTER[name](counts, (m,), None)
            assert counts == {"linalg.elim.cells": rows * cols,
                              "linalg.elim.nnz": len(m.entries)}, (name, m)
        counts = defaultdict(int)
        tracer.AFTER["linalg.LinearMap.tensor"](counts, (m, a), m.tensor(a))
        assert counts == {"linalg.tensor.nnz_out": len(m.entries) * len(a.entries)}, m
