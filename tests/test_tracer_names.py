"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name; a name that no longer resolves would turn its per-layer metric into a
silent 0.  The tracer's source is read and executed here, never imported from
its directory, so this test writes nothing there."""

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
