"""A stdlib lint run as a test: no function in the package assigns a local
variable that it never reads, and no module imports a name that it never
reads.  Such a local is either dead work (a map built and dropped) or a typo
that silently discards a value; such an import is left over from code that
is gone.  A third rule keeps identity factors out of `LinearMap.tensor`:
id (x) op (x) id is placed by `linalg.whisker`, which multiplies nothing.  A
fourth keeps `LinearMap._from_clean`, which checks none of its entries, inside
`linalg` and the `hopf` packers that only regroup or accumulate entries of
maps that are already valid.  A fifth keeps the payload under a Scalar
opaque: no module but `fields` subscripts, unpacks or iterates a `.payload`,
or a name bound to one in the same function (a map's entries are payloads
too, so the values of `.entries.items()` and `.entries.values()` count), so
a change of representation stays inside `fields`.  A sixth keeps `linalg`'s
maps on payloads: `linalg.py` calls `Scalar(...)` only in the functions that
hand entries out as Scalars, so a wrap that re-enters a kernel loop fails.
A seventh keeps a map's dimensions plain ints inside the package: no module
reads `.dim` off a `.domain` or a `.codomain`, so `linalg._Dim` serves only
the benchmark's tracer and can be deleted once the tracer reads the ints.

Only single-name targets count; names bound by tuple unpacking, loop targets,
`_`, and names declared global or nonlocal are exempt.  A read anywhere in the
function, nested functions included, keeps the name alive, since closures read
their enclosing locals.  For imports, `from __future__` and names listed in
`__all__` are exempt."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cyclotome"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(fn):
    """The nodes of fn's body, not descending into nested functions or classes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, FUNCTIONS + (ast.ClassDef, ast.Lambda)):
                stack.append(child)


def unread_locals(source: str, filename: str = "<string>") -> list[str]:
    found = []
    for fn in ast.walk(ast.parse(source, filename)):
        if not isinstance(fn, FUNCTIONS):
            continue
        assigned = {}
        declared = set()
        for node in _own_nodes(fn):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    declared.update(node.names)
                continue
            for t in targets:
                if isinstance(t, ast.Name) and t.id != "_":
                    assigned.setdefault(t.id, t.lineno)
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        for name, line in sorted(assigned.items(), key=lambda kv: kv[1]):
            if name not in read and name not in declared:
                found.append(f"{filename}:{line} {fn.name}: {name}")
    return found


def test_lint_flags_unread_single_name_locals():
    src = (
        "def f(x):\n"
        "    dead = x + 1\n"
        "    a, b = x\n"
        "    used = 2\n"
        "    def g():\n"
        "        return used\n"
        "    return g\n"
    )
    assert [s.split()[-1] for s in unread_locals(src)] == ["dead"]


def test_no_unread_locals_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += unread_locals(path.read_text(encoding="utf-8"), path.name)
    assert not found, "\n".join(found)


def unread_imports(source: str, filename: str = "<string>") -> list[str]:
    tree = ast.parse(source, filename)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"{filename}:{line} {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read and name not in exported]


def test_lint_flags_unread_imports():
    src = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Callable, Sequence\n"
        "from .x import y as z, w\n"
        "def f(a: Sequence):\n"
        "    from .v import u\n"
        "    return os.path.join(a, w), u\n"
    )
    assert [s.split()[-1] for s in unread_imports(src)] == ["Callable", "z"]


def test_no_unread_imports_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += unread_imports(path.read_text(encoding="utf-8"), path.name)
    assert not found, "\n".join(found)


def _is_identity_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "identity" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "LinearMap")


def identity_tensors(source: str, filename: str = "<string>") -> list[str]:
    """`.tensor(...)` calls whose receiver or argument is `LinearMap.identity(...)`
    or a name bound to it in the same function."""
    found = []
    for fn in ast.walk(ast.parse(source, filename)):
        if not isinstance(fn, FUNCTIONS):
            continue
        nodes = list(_own_nodes(fn))
        eyes = {t.id for node in nodes if isinstance(node, ast.Assign)
                and _is_identity_call(node.value)
                for t in node.targets if isinstance(t, ast.Name)}
        for node in nodes:
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "tensor"):
                continue
            if any(_is_identity_call(x) or isinstance(x, ast.Name) and x.id in eyes
                   for x in [node.func.value, *node.args]):
                found.append((node.lineno, f"{filename}:{node.lineno} {fn.name}"))
    return [line for _, line in sorted(found)]


def test_lint_flags_identity_tensor_factors():
    src = (
        "def f(F, s, op):\n"
        "    eye = LinearMap.identity(F, s)\n"
        "    a = eye.tensor(op)\n"
        "    b = op.tensor(eye).tensor(op)\n"
        "    c = LinearMap.identity(F, s).tensor(op)\n"
        "    return a, b, c, op.tensor(op), eye\n"
        "def g(eye, op):\n"
        "    return eye.tensor(op)\n"
    )
    assert [s.split(":")[1] for s in identity_tensors(src)] == ["3 f", "4 f", "5 f"]


def test_no_identity_tensor_factors_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += identity_tensors(path.read_text(encoding="utf-8"), path.name)
    assert not found, "\n".join(found)


# where LinearMap._from_clean may be called: anywhere in these files, or in
# these functions of these files
UNCHECKED_FILES = {"linalg.py"}
UNCHECKED_FUNCTIONS = {"hopf.py": {"rho", "rho_of", "right_coadjoint_power"}}


def unchecked_constructions(source: str, filename: str = "<string>") -> list[str]:
    """Calls of `._from_clean(...)` outside the files and functions allowed above."""
    if filename in UNCHECKED_FILES:
        return []
    allowed = UNCHECKED_FUNCTIONS.get(filename, set())
    tree = ast.parse(source, filename)
    inside = set()
    for fn in ast.walk(tree):
        if isinstance(fn, FUNCTIONS) and fn.name in allowed:
            inside |= {id(n) for n in ast.walk(fn)}
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "_from_clean" and id(node) not in inside)
    return [f"{filename}:{line}" for line in lines]


def test_lint_flags_unchecked_constructions_outside_the_packers():
    src = (
        "def rho_of(F, s, e):\n"
        "    return LinearMap._from_clean(F, s, s, e)\n"
        "def other(F, s, e):\n"
        "    return LinearMap._from_clean(F, s, s, e)\n"
        "m = LinearMap._from_clean(F, s, s, {})\n"
    )
    assert unchecked_constructions(src, "hopf.py") == ["hopf.py:4", "hopf.py:5"]
    assert unchecked_constructions(src, "coend.py") == ["coend.py:2", "coend.py:4",
                                                        "coend.py:5"]
    assert unchecked_constructions(src, "linalg.py") == []


def test_unchecked_constructor_stays_in_linalg_and_the_hopf_packers():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += unchecked_constructions(path.read_text(encoding="utf-8"), path.name)
    assert not found, "\n".join(found)


def dim_reads_off_maps(source: str, filename: str = "<string>") -> list[str]:
    """`.dim` read off an attribute named domain or codomain."""
    return [f"{filename}:{node.lineno}" for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Attribute) and node.attr == "dim"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in ("domain", "codomain")]


def test_lint_flags_dim_reads_off_a_domain_or_codomain():
    src = (
        "def f(m, V):\n"
        "    a = m.domain.dim * m.codomain\n"
        "    return a, V.dim, m.codomain.dim, m.domain\n"
    )
    assert dim_reads_off_maps(src) == ["<string>:2", "<string>:3"]


def test_no_dim_read_off_a_domain_or_codomain_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += dim_reads_off_maps(path.read_text(encoding="utf-8"), path.name)
    assert not found, "\n".join(found)


# -- the payload under a Scalar is private to fields.py ---------------------------------


def _is_payload(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "payload"


def _entry_payload_names(node) -> set[str]:
    """The names a loop or comprehension binds to the values of a map's
    entries: v in `for key, v in m.entries.items()` or `for v in m.entries.values()`."""
    if not isinstance(node, (ast.For, ast.comprehension)):
        return set()
    it = node.iter
    if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute)
            and isinstance(it.func.value, ast.Attribute) and it.func.value.attr == "entries"):
        return set()
    target = node.target
    if it.func.attr == "items" and isinstance(target, ast.Tuple) and len(target.elts) == 2:
        target = target.elts[1]
    elif it.func.attr != "values":
        return set()
    return {target.id} if isinstance(target, ast.Name) else set()


def payload_structure_reads(source: str, filename: str = "<string>") -> list[str]:
    """Subscripts, unpackings and iterations of `.payload`, or of a name bound
    to one or to the value of a map's entry in the same function, outside
    fields.py."""
    if filename == "fields.py":
        return []
    tree = ast.parse(source, filename)
    found = set()
    top = [node for stmt in tree.body if not isinstance(stmt, FUNCTIONS + (ast.ClassDef,))
           for node in ast.walk(stmt)]
    scopes = [top] + [list(_own_nodes(fn)) for fn in ast.walk(tree)
                      if isinstance(fn, FUNCTIONS)]
    for nodes in scopes:
        bound = {t.id for node in nodes if isinstance(node, ast.Assign)
                 and _is_payload(node.value)
                 for t in node.targets if isinstance(t, ast.Name)}
        bound |= {name for node in nodes for name in _entry_payload_names(node)}

        def payload(x):
            return _is_payload(x) or isinstance(x, ast.Name) and x.id in bound

        for node in nodes:
            if isinstance(node, ast.Subscript) and payload(node.value):
                found.add(node.lineno)
            elif isinstance(node, ast.Starred) and payload(node.value):
                found.add(node.lineno)
            elif (isinstance(node, (ast.Assign, ast.AnnAssign)) and payload(node.value)
                  and any(isinstance(t, (ast.Tuple, ast.List)) for t in (
                      node.targets if isinstance(node, ast.Assign) else [node.target]))):
                found.add(node.lineno)
            elif isinstance(node, (ast.For, ast.comprehension)) and payload(node.iter):
                found.add(node.iter.lineno)
    return [f"{filename}:{line}" for line in sorted(found)]


def test_lint_flags_payload_structure_outside_fields():
    src = (
        "def f(s, t, u):\n"
        "    a = s.payload[0]\n"
        "    num, den = t.payload\n"
        "    p = u.payload\n"
        "    head = p[1:]\n"
        "    g(*s.payload)\n"
        "    xs = [x for x in t.payload]\n"
        "    return F._mul(s.payload, p), len(head), a, num, den, xs\n"
        "def h(p):\n"
        "    return p[0]\n"
    )
    assert payload_structure_reads(src, "linalg.py") == [
        "linalg.py:2", "linalg.py:3", "linalg.py:5", "linalg.py:6", "linalg.py:7"]
    assert payload_structure_reads(src, "fields.py") == []


def test_lint_flags_structure_reads_of_map_entries():
    src = (
        "def f(m, n, k):\n"
        "    for (r, c), v in m.entries.items():\n"
        "        use(v[0])\n"
        "    ys = [w[1:] for w in n.entries.values()]\n"
        "    for key, x in m.entries.items():\n"
        "        F._mul(x, x)\n"
        "    return [z[0] for _, z in k.rows.items()], ys\n"
    )
    assert payload_structure_reads(src, "coend.py") == ["coend.py:3", "coend.py:4"]


def test_payload_stays_opaque_outside_fields():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += payload_structure_reads(path.read_text(encoding="utf-8"), path.name)
    assert not found, "\n".join(found)


# -- linalg builds Scalars only where it hands entries out -----------------------------------

# the functions of linalg.py that may call Scalar(...): entry, and _dense, through
# which apply, SubspaceBasis.vectors and SubspaceBasis.coordinates return dense vectors
SCALAR_BOUNDARY = {"entry", "_dense"}


def scalar_constructions(source: str, filename: str = "<string>",
                         allowed=frozenset(SCALAR_BOUNDARY)) -> list[str]:
    """Calls of `Scalar(...)` or `<module>.Scalar(...)` outside the functions
    named in allowed."""
    tree = ast.parse(source, filename)
    inside = set()
    for fn in ast.walk(tree):
        if isinstance(fn, FUNCTIONS) and fn.name in allowed:
            inside |= {id(n) for n in ast.walk(fn)}
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and id(node) not in inside
                   and (isinstance(node.func, ast.Name) and node.func.id == "Scalar"
                        or isinstance(node.func, ast.Attribute)
                        and node.func.attr == "Scalar"))
    return [f"{filename}:{line}" for line in lines]


def test_lint_flags_scalar_constructions_outside_the_boundary():
    src = (
        "def entry(F, p):\n"
        "    return Scalar(F, p)\n"
        "def compose(F, acc):\n"
        "    return {k: Scalar(F, p) for k, p in acc.items()}\n"
        "def _dense(F, vec):\n"
        "    return [fields.Scalar(F, p) for p in vec]\n"
        "def apply(F, p):\n"
        "    return fields.Scalar(F, p), F.one()\n"
        "ONE = Scalar(F, 1)\n"
    )
    assert scalar_constructions(src, "linalg.py") == ["linalg.py:4", "linalg.py:8",
                                                      "linalg.py:9"]


def test_linalg_builds_scalars_only_at_the_boundary():
    path = PACKAGE / "linalg.py"
    found = scalar_constructions(path.read_text(encoding="utf-8"), path.name)
    assert not found, "\n".join(found)


# -- no dead private helpers ---------------------------------------------------------------


def _module_functions(sources: dict[str, str]):
    """The module-level functions of the package as (file, line, name), and
    the names referenced outside the body of the function of that name: a
    name, an attribute, an imported alias, or the `command=` string of the
    CLI's parser, by which `cli.main` dispatches to a verb's function."""
    defined, used = [], set()
    for filename, source in sources.items():
        for stmt in ast.parse(source, filename).body:
            own = stmt.name if isinstance(stmt, FUNCTIONS) else None
            if own:
                defined.append((filename, stmt.lineno, own))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias)
                        else node.value.value if isinstance(node, ast.keyword)
                        and node.arg == "command" and isinstance(node.value, ast.Constant)
                        else None)
                if name is not None and name != own:
                    used.add(name)
    return sorted(defined), used


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level functions named `_x` (not dunders) that no file of the
    package references: no name, attribute or import of that name anywhere
    outside the function's own body."""
    defined, used = _module_functions(sources)
    return [f"{filename}:{line} {name}" for filename, line, name in defined
            if name.startswith("_") and not name.startswith("__") and name not in used]


def test_lint_flags_unreferenced_private_functions():
    a = (
        "def _dead():\n"
        "    return 1\n"
        "def _used():\n"
        "    return 2\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1)\n"
        "def _imported():\n"
        "    return 3\n"
        "def public(m):\n"
        "    return _used(), m._attribute()\n"
        "def _attribute():\n"
        "    return 4\n"
        "class K:\n"
        "    def _method(self):\n"
        "        return 5\n"
    )
    b = "from .a import _imported\n"
    assert unreferenced_private_functions({"a.py": a, "b.py": b}) == [
        "a.py:1 _dead", "a.py:5 _recursive"]


def test_no_unreferenced_private_functions_in_package():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    found = unreferenced_private_functions(sources)
    assert not found, "\n".join(found)


# -- every public function has a caller in the package, or is library API ------------------

# the public functions that no function of the package calls: gates and helpers
# that the tests and user code call, the builders of generated algebras, and the
# elimination and action kernels that perfbench/tracer.py wraps by name
LIBRARY_API = {
    "apply_cyclic_duality", "character_checks", "characters_span_check",
    "contracting_homotopy", "drinfeld_double_of_cyclic", "group_algebra_simples",
    "hom_space", "integrals", "interpret_at", "kernel_with_free_columns",
    "relation_suite", "right_coadjoint_power", "sbi_consistency", "sweedler_h4",
}


def unreferenced_public_functions(sources: dict[str, str],
                                  api=frozenset(LIBRARY_API)) -> list[str]:
    """Module-level functions not named `_x` that no file of the package
    references outside the function's own body and that api does not name."""
    defined, used = _module_functions(sources)
    return [f"{filename}:{line} {name}" for filename, line, name in defined
            if not name.startswith("_") and name not in used and name not in api]


def test_lint_flags_unreferenced_public_functions():
    a = (
        "def dead():\n"
        "    return 1\n"
        "def api():\n"
        "    return 2\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def cmd_verb(args):\n"
        "    return _private()\n"
        "def _private():\n"
        "    return 3\n"
        "parser.set_defaults(command='cmd_verb', name='named')\n"
        "def named():\n"
        "    return 4\n"
        "def imported():\n"
        "    return 5\n"
    )
    b = "from .a import imported\n"
    assert unreferenced_public_functions({"a.py": a, "b.py": b}, api={"api"}) == [
        "a.py:1 dead", "a.py:5 recursive", "a.py:12 named"]


def test_every_public_function_is_called_in_the_package_or_library_api():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    found = unreferenced_public_functions(sources)
    assert not found, "\n".join(found)
    # and LIBRARY_API names no function that is gone or has gained a caller
    uncalled = {s.split()[-1] for s in unreferenced_public_functions(sources, api=set())}
    assert uncalled == LIBRARY_API, sorted(LIBRARY_API - uncalled)
