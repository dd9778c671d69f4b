"""A stdlib lint run as a test: no function in the package assigns a local
variable that it never reads.  Such a local is either dead work (a map built
and dropped) or a typo that silently discards a value.

Only single-name targets count; names bound by tuple unpacking, loop targets,
`_`, and names declared global or nonlocal are exempt.  A read anywhere in the
function, nested functions included, keeps the name alive, since closures read
their enclosing locals."""

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
