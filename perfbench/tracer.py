"""Outside-in tracer: wraps the package's public functions and methods from the
benchmark's own code, so the program under test carries no instrumentation.

Every public function of a layer module is wrapped once and the wrapper is
bound in every package module whose namespace holds the original, because
the modules import each other's names (``from .linalg import invert``) and
patching the defining module alone would miss those calls.  Public methods of
the core classes are wrapped on the class.  Scalar arithmetic is counted, not
timed: a timer around every field operation would swamp it.

A span's self time is its duration minus the time of its direct children; a
layer's self time is the sum over its spans.  A group (one metric's set of
functions) adds a call's duration only when no other member of the group is
already on the stack, so nested or recursive calls are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "coend", "cyclic_cat", "cyclic_modules", "homology", "hopf",
          "linalg", "tqft")
CLASSES = {"linalg": ("LinearMap", "SubspaceBasis"),
           "hopf": ("HopfAlgebraData", "ModuleData"),
           "coend": ("CoendData",),
           "cyclic_modules": ("CyclicModuleData",)}
FIELD_OPS = {"_mul": "mul", "_add": "add", "_inv": "inv"}
FIELD_KINDS = ("rationals", "cyclotomic")
SPAN_RECORD_DEPTH = 3

# metric prefix -> (wrapped names, layer that must be on the stack or None,
#                   reported figures: "s" inclusive seconds, "calls" call count)
GROUPS = {
    "linalg.invert": (("linalg.invert",), None, ("s", "calls")),
    "linalg.solve": (("linalg.solve",), None, ("s", "calls")),
    "linalg.kernel": (("linalg.kernel_and_rank", "linalg.kernel_with_free_columns"),
                      None, ("s", "calls")),
    "linalg.tensor": (("linalg.LinearMap.tensor",), None, ("s", "calls")),
    "linalg.compose": (("linalg.LinearMap.compose",), None, ("s", "calls")),
    "hopf.right_coadjoint_power": (("hopf.right_coadjoint_power",), None, ("s",)),
    "hopf.rho_of": (("hopf.ModuleData.rho_of",), None, ("s", "calls")),
    "hopf.gates": (("hopf.verify_axioms", "hopf.verify_quasitriangular_ribbon",
                    "hopf.modular_data"), None, ("s",)),
    "coend.build": (("coend.build_coend_hopf",), None, ("s", "calls")),
    "coend.factor": (("coend.factor_through_coend",), None, ("calls",)),
    "coend.end_and_drinfeld": (("coend.end_and_drinfeld",), None, ("s",)),
    "coend.cache_write": (("coend.coend_to_json",), None, ("s",)),
    "coend.cache_read": (("coend.coend_from_json",), None, ("s",)),
    "cyclic_modules.explicit": (("cyclic_modules.explicit_coend_cyclic",
                                 "cyclic_modules.explicit_coend_cocyclic"), None, ("s",)),
    "cyclic_modules.generic": (("cyclic_modules.cyclic_module_from_algebra",
                                "cyclic_modules.cocyclic_module_from_coalgebra"),
                               None, ("s",)),
    "cyclic_modules.invariant_tensor_basis": (
        ("cyclic_modules.invariant_tensor_basis",), None, ("s",)),
    "cyclic_modules.invariant_functional_basis": (
        ("cyclic_modules.invariant_functional_basis",), None, ("s",)),
    "cyclic_modules.check_relations": (("cyclic_modules.check_relations",), None, ("s",)),
    "homology.hochschild_ranks": (("homology.hochschild_ranks",), None, ("s",)),
    "homology.cyclic_ranks": (("homology.cyclic_ranks",), None, ("s",)),
    "homology.mixed_identities": (("homology.mixed_identities",), None, ("s",)),
    "tqft.rt_state_space": (("tqft.rt_state_space",), None, ("s",)),
    "tqft.build_rt": (("tqft.build_rt_cocyclic", "tqft.build_rt_cyclic"), None, ("s",)),
    "tqft.shape_checks": (("tqft.shape_checks",), None, ("s",)),
    "tqft.verify_main_theorem": (("tqft.verify_main_theorem",), None, ("s",)),
    "tqft.omega_invert": (("linalg.invert",), "tqft", ("s",)),
}
COUNTS = ("linalg.elim.cells", "linalg.elim.nnz", "linalg.tensor.nnz_out")


def _elim_counts(counts, args, result):
    """Cells (rows x cols, computed) and nonzeros of a matrix handed to elimination."""
    m = args[0]
    counts["linalg.elim.cells"] += m.codomain.dim * m.domain.dim
    counts["linalg.elim.nnz"] += len(m.entries)


def _tensor_counts(counts, args, result):
    counts["linalg.tensor.nnz_out"] += len(result.entries)


# wrapped name -> counter update run after each call
AFTER = {"linalg.solve": _elim_counts, "linalg.kernel_and_rank": _elim_counts,
         "linalg.kernel_with_free_columns": _elim_counts,
         "linalg.LinearMap.tensor": _tensor_counts}


class Tracer:
    """Span and counter recorder; install() patches the package, uninstall()
    restores every original binding."""

    def __init__(self, package: str = "cyclotome"):
        self.package = package
        self.stack: list[list] = []     # [child seconds, record index] per open span
        self.layer_self = defaultdict(float)
        self.layer_depth = defaultdict(int)
        self.group_depth = defaultdict(int)
        self.group_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.records: list[list] = []   # [name, parent index, start, end]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def reset(self):
        for table in (self.layer_self, self.group_seconds, self.calls, self.counts):
            table.clear()
        self.records.clear()

    def _wrap(self, fn, name: str, layer: str):
        groups = [(g, within) for g, (members, within, _) in GROUPS.items()
                  if name in members]
        after = AFTER.get(name)
        stack, clock, counts = self.stack, time.perf_counter, self.counts
        layer_depth, group_depth = self.layer_depth, self.group_depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = None
            if len(stack) < SPAN_RECORD_DEPTH:
                record = len(self.records)
                parent = stack[-1][1] if stack else None
                self.records.append([name, parent, 0.0, 0.0])
            frame = [0.0, record]
            stack.append(frame)
            layer_depth[layer] += 1
            for g, _ in groups:
                group_depth[g] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                layer_depth[layer] -= 1
                if stack:
                    stack[-1][0] += dur
                self.layer_self[layer] += dur - frame[0]
                self.calls[name] += 1
                for g, within in groups:
                    group_depth[g] -= 1
                    if group_depth[g] == 0 and (within is None or layer_depth[within]):
                        self.group_seconds[g] += dur
                if record is not None:
                    self.records[record][2:] = [start, end]
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def _count_field_op(self, fn, op: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(field, *args):
            counts[f"fields.{op}.{field.kind}"] += 1
            return fn(field, *args)

        return counted

    # -- patching ----------------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {name: sys.modules[f"{self.package}.{name}"]
                   for name in LAYERS + ("fields",)}
        wrapped = {}   # original function -> wrapper
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
        package_modules = [mod for name, mod in sys.modules.items()
                           if name == self.package or name.startswith(self.package + ".")]
        for mod in package_modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        for layer, class_names in CLASSES.items():
            for cname in class_names:
                cls = getattr(modules[layer], cname)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    name = f"{layer}.{cname}.{attr}"
                    if isinstance(raw, staticmethod):
                        self._set(cls, attr, staticmethod(
                            self._wrap(raw.__func__, name, layer)))
                    elif inspect.isfunction(raw):
                        self._set(cls, attr, self._wrap(raw, name, layer))
        spec = modules["fields"].FieldSpec
        for attr, op in FIELD_OPS.items():
            self._set(spec, attr, self._count_field_op(vars(spec)[attr], op))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """This recorder's per-layer figures since the last reset()."""
        out = {f"{layer}.self_s": self.layer_self[layer] for layer in LAYERS}
        for op in FIELD_OPS.values():
            for kind in FIELD_KINDS:
                out[f"fields.{op}.{kind}"] = self.counts[f"fields.{op}.{kind}"]
        for group, (members, _, figures) in GROUPS.items():
            if "s" in figures:
                out[f"{group}.s"] = self.group_seconds[group]
            if "calls" in figures:
                out[f"{group}.calls"] = sum(self.calls[m] for m in members)
        for key in COUNTS:
            out[key] = self.counts[key]
        out["cyclic_cat.calls"] = sum(n for name, n in self.calls.items()
                                      if name.startswith("cyclic_cat."))
        return out

    def span_records(self) -> list[dict]:
        return [{"name": n, "parent": p, "start": s, "end": e}
                for n, p, s, e in self.records]
