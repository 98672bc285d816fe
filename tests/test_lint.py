"""Static checks over the library source: every imported name is used,
every function reads each of its parameters, every definition is reached
from outside its own body, every dataclass field is read, every
``__all__`` names something defined, every command-line flag is read by
its command, only ``train_step`` makes the calls of a training step, and
only ``backward_sum`` calls ``backward(into=...)``, which releases the graph.

Neither pyflakes nor ruff is a dependency, so these stdlib ``ast`` scans are
the project's lint. ``__init__.py`` is skipped by the import check: its
imports are the package's re-exports.
"""

import argparse
import ast
import re
from pathlib import Path

from linesift.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "linesift"


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


# (module, definition) -> why it may stay with nothing outside it calling it
UNREFERENCED_ALLOWED = {
    ("transformer.py", "TokenEncoder.attention_maps"):
        "explain is to export the token attention maps through it (ROADMAP item 6)",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _definitions(tree):
    """(qualified name, node) of each top-level function and class and of
    each method; dunder methods are called by the language, so they are left
    out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def _references(tree, strings: bool = False):
    """(name, line) of each name the module reads, imports or looks up as an
    attribute; with ``strings``, also each part of a dotted-name string
    constant (``"Class.method"``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def unreferenced_definitions(library: dict[str, str], outside: list[str]) -> list[str]:
    """``module:qualified name`` of each definition in the ``library``
    sources (module name -> source) that nothing references: not another
    library module (the package's re-exports included), not its own module
    outside its own body, and no name or dotted string in the ``outside``
    sources. Matching is by bare name, so a method counts as referenced
    when any attribute of that name is."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    names = {name for source in outside for name, _ in _references(ast.parse(source), True)}
    lines = {module: {} for module in trees}
    for module, tree in trees.items():
        for name, line in _references(tree):
            lines[module].setdefault(name, []).append(line)
    found = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name in names or any(name in lines[other] for other in trees if other != module):
                continue
            if all(node.lineno <= line <= node.end_lineno for line in lines[module].get(name, [])):
                found.append(f"{module}:{qualname}")
    return found


def test_checker_flags_an_unreferenced_definition():
    library = {
        "a.py": (
            "def used():\n    return helper()\n"
            "def helper():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def traced():\n    pass\n"
            "class K:\n"
            "    def __init__(self):\n        pass\n"
            "    def called(self):\n        pass\n"
            "    def orphan(self):\n        pass\n"
        ),
        "b.py": "from .a import used\nused().called()\n",
    }
    outside = ['SURFACE = {"a": ("traced", "K.__init__")}\n']
    assert unreferenced_definitions(library, outside) == [
        "a.py:recursive", "a.py:K.orphan",
    ]


def test_library_defines_nothing_unreferenced():
    library = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    outside = [path.read_text() for path in sorted((ROOT / "benchmarks").glob("*.py"))]
    found = unreferenced_definitions(library, outside)
    assert sorted(found) == sorted(f"{m}:{q}" for m, q in UNREFERENCED_ALLOWED)


# (module, dataclass field) -> why nothing in the library or the benchmark reads it
UNREAD_FIELDS_ALLOWED = {
    ("pretrain.py", "MaskedLine.action"): "criterion 4's masking statistics read it",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(d.func if isinstance(d, ast.Call) else d).split(".")[-1]
               == "dataclass" for d in node.decorator_list)


def unread_fields(library: dict[str, str], outside: list[str]) -> list[str]:
    """``module:Class.field`` of each field of a top-level dataclass in the
    ``library`` sources (module name -> source) that no library or
    ``outside`` source reads as an attribute. Matching is by bare name, so a
    field counts as read when any attribute of that name is; assigning it
    does not count."""
    read = {node.attr for source in [*library.values(), *outside]
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for module, source in library.items():
        for cls in ast.parse(source).body:
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                found += [f"{module}:{cls.name}.{stmt.target.id}" for stmt in cls.body
                          if isinstance(stmt, ast.AnnAssign)
                          and isinstance(stmt.target, ast.Name)
                          and stmt.target.id not in read]
    return found


def test_checker_flags_an_unread_field():
    library = {"a.py": (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class A:\n    read: int\n    written: int = 0\n    outside: int = 0\n"
        "    plain = 0\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class B:\n    unread: str\n"
        "class C:\n    annotated: int\n"
        "def f(a):\n    a.written = a.read + a.plain\n"
    )}
    outside = ["def g(a):\n    return a.outside\n"]
    assert unread_fields(library, outside) == ["a.py:A.written", "a.py:B.unread"]


def test_library_reads_every_dataclass_field():
    library = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    outside = [path.read_text() for path in sorted((ROOT / "benchmarks").glob("*.py"))]
    found = unread_fields(library, outside)
    assert sorted(found) == sorted(f"{m}:{f}" for m, f in UNREAD_FIELDS_ALLOWED)


def stale_exports(source: str) -> list[str]:
    """The ``__all__`` entries that the module neither defines, assigns nor
    imports at top level."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
                if isinstance(target, ast.Name) and target.id == "__all__":
                    exported = [elt.value for elt in node.value.elts]
    return [name for name in exported if name not in bound]


def test_checker_flags_a_stale_export():
    source = (
        "from os import path\n"
        "A, B = 1, 2\n"
        "def f():\n    pass\n"
        "__all__ = ['path', 'A', 'B', 'f', 'gone', 'Missing']\n"
    )
    assert stale_exports(source) == ["gone", "Missing"]


def test_every_export_is_defined():
    found = {path.name: stale_exports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "tensor.py" in found
    assert {name: names for name, names in found.items() if names} == {}


def unread_flags(source: str, parser: argparse.ArgumentParser) -> list[str]:
    """``command:dest`` of each flag of a subcommand of ``parser`` that its
    command (the subparser's ``func`` default, a top-level function of
    ``source``) never reads as ``args.<dest>``, itself or in a top-level
    function it passes ``args`` on to. ``_echo_config`` dumps every flag, so
    passing ``args`` to it reads none."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}

    def reads(name: str, param: str) -> set[str]:
        found = set()
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id == param):
                found.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in functions and node.func.id != "_echo_config"):
                callee = functions[node.func.id].args.args
                found.update(*(reads(node.func.id, callee[i].arg)
                               for i, arg in enumerate(node.args)
                               if isinstance(arg, ast.Name) and arg.id == param))
        return found

    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    found = []
    for command, sub in commands.items():
        read = reads(sub.get_default("func").__name__, "args")
        found += [f"{command}:{action.dest}" for action in sub._actions
                  if action.dest != "help" and action.dest not in read]
    return found


def test_checker_flags_an_unread_flag():
    source = (
        "import argparse\n"
        "def _echo_config(args):\n    print(vars(args), args.quiet)\n"
        "def _size(opts):\n    return opts.size\n"
        "def _twice(n, opts):\n    return n * _size(opts)\n"
        "def cmd_run(args):\n    _echo_config(args)\n    return _twice(2, args) + args.jobs\n"
        "def cmd_stop(args):\n    return 0\n"
        "def build_parser():\n"
        "    parser = argparse.ArgumentParser()\n"
        "    sub = parser.add_subparsers(dest='command')\n"
        "    p = sub.add_parser('run')\n"
        "    for flag in ('--jobs', '--size', '--quiet'):\n"
        "        p.add_argument(flag)\n"
        "    p.set_defaults(func=cmd_run)\n"
        "    p = sub.add_parser('stop')\n"
        "    p.add_argument('--force')\n"
        "    p.set_defaults(func=cmd_stop)\n"
        "    return parser\n"
    )
    namespace = {}
    exec(source, namespace)
    assert unread_flags(source, namespace["build_parser"]()) == ["run:quiet", "stop:force"]


def test_every_flag_is_read_by_its_command():
    found = unread_flags((SRC / "cli.py").read_text(), build_parser())
    assert found == []


# the calls of a training step, which ``pretrain.train_step`` makes for both
# training loops, so that a second copy of the step does not come back
STEP_CALLS = ("zero_grad", "backward_sum", "adamw_step")


def step_calls_outside_train_step(source: str) -> list[str]:
    """``callee (line N)`` of each call of one of ``STEP_CALLS``, by bare name
    or as an attribute, that is not inside a function named ``train_step``."""
    tree = ast.parse(source)
    steps = [(node.lineno, node.end_lineno) for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "train_step"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in STEP_CALLS and not any(a <= node.lineno <= b for a, b in steps):
                found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_checker_flags_a_step_call_outside_train_step():
    source = (
        "def train_step(params, opt, losses):\n"
        "    for p in params.values():\n        p.zero_grad()\n"
        "    value = parallel.backward_sum(losses)\n"
        "    adamw_step(params, opt)\n    return value\n"
        "def loop(params, opt, losses):\n"
        "    value = backward_sum(losses)\n"
        "    T.adamw_step(params, opt)\n"
        "    return train_step(params, opt, losses) + value\n"
        "params['w'].zero_grad()\n"
    )
    assert step_calls_outside_train_step(source) == [
        "backward_sum (line 8)", "adamw_step (line 9)", "zero_grad (line 11)",
    ]


def test_only_train_step_makes_the_calls_of_a_step():
    found = {path.name: step_calls_outside_train_step(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert "pretrain.py" in found
    assert {name: calls for name, calls in found.items() if calls} == {}


def backward_into_outside_backward_sum(source: str) -> list[str]:
    """``backward (line N)`` of each ``backward`` call, as an attribute, that
    passes a gradient map (``into=`` or positionally) and is not inside a
    function named ``backward_sum``: such a backward releases the graph it
    walks, so only the caller that built the graph may make it."""
    tree = ast.parse(source)
    sums = [(node.lineno, node.end_lineno) for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "backward_sum"]
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "backward"
                and (node.args or any(kw.arg == "into" for kw in node.keywords))
                and not any(a <= node.lineno <= b for a, b in sums)):
            found.append(node.lineno)
    return [f"backward (line {line})" for line in sorted(found)]


def test_checker_flags_a_backward_into_outside_backward_sum():
    source = (
        "def backward_sum(losses):\n"
        "    def unit(build):\n"
        "        grads = {}\n        build().backward(into=grads)\n"
        "        return grads\n"
        "    return [unit(b) for b in losses]\n"
        "def loop(loss, grads):\n"
        "    loss.backward()\n"
        "    loss.backward(into=grads)\n"
        "    return loss.backward(grads)\n"
    )
    assert backward_into_outside_backward_sum(source) == [
        "backward (line 9)", "backward (line 10)",
    ]


def test_only_backward_sum_releases_a_graph():
    found = {path.name: backward_into_outside_backward_sum(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert "parallel.py" in found
    assert {name: calls for name, calls in found.items() if calls} == {}
