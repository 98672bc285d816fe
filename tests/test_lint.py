"""Static checks over the library source: every imported name is used, and
every function reads each of its parameters.

Neither pyflakes nor ruff is a dependency, so these stdlib ``ast`` scans are
the project's lint. ``__init__.py`` is skipped by the import check: its
imports are the package's re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "linesift"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no ``Name`` node in the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nprint(loads)\n"
    assert unused_imports(source) == ["dumps (line 2)", "os (line 1)"]


def test_library_has_no_unused_imports():
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
    }
    assert "model.py" in found
    assert {name: names for name, names in found.items() if names} == {}


# (module, function, parameter) -> why the function may leave it unread
UNREAD_ALLOWED = {
    ("pooling.py", "AveragePool.parameters", "prefix"):
        "shares its signature with the other pools' parameters()",
    ("finetune.py", "finetune_loss", "training"):
        "the benchmark's fine-tune warm step still passes training=True",
}


def unread_parameters(source: str) -> list[tuple[str, str, int]]:
    """(qualified function name, parameter, line) for each parameter that no
    ``Name`` load in the function's body reads; ``self`` and ``cls`` are
    exempt. A read inside a nested function counts, and so does passing the
    parameter on to another call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = scope + child.name
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend((qualname, p, child.lineno) for p in params
                             if p not in read and p not in ("self", "cls"))
                visit(child, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + child.name + ".")
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_checker_flags_an_unread_parameter():
    source = (
        "def f(a, b, *args, c, **kw):\n"
        "    return a + sum(args)\n"
        "class K:\n"
        "    def m(self, x, y: int = 0):\n"
        "        def inner(z):\n"
        "            return x\n"
        "        return inner\n"
    )
    assert unread_parameters(source) == [
        ("f", "b", 1), ("f", "c", 1), ("f", "kw", 1),
        ("K.m", "y", 4), ("K.m.inner", "z", 5),
    ]


def test_library_reads_every_parameter():
    found = {
        (path.name, qualname, param)
        for path in sorted(SRC.glob("*.py"))
        for qualname, param, _ in unread_parameters(path.read_text())
    }
    assert found == set(UNREAD_ALLOWED)
