"""Static check over the library source: every imported name is used.

Neither pyflakes nor ruff is a dependency, so this stdlib ``ast`` scan is the
project's unused-import lint. ``__init__.py`` is skipped: its imports are the
package's re-exports.
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
