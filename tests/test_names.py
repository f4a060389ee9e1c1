"""Guard against dead code: every function, method and property defined in
``src/linconn`` must be used somewhere in ``src/linconn``, ``tests`` or
``bench``.

A name counts as used when it appears as a ``Name``, as an ``Attribute``,
as an imported name, or as a word in a string constant (not a docstring).
String constants cover dispatch by name: ``getattr`` on the members of
``expr.FUNCTIONS``, the source that ``linconn.codegen`` prints, and the
targets that ``bench/tracing.py`` patches.  Dunders are exempt; Python
calls them.

The scan matches names, not bindings, so a dead definition whose name is
used for something else stays invisible: a helper ``sub`` would pass
because ``cli.build_parser`` has a local variable named ``sub``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "linconn"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _used_names(tree) -> set:
    docs = {id(c) for c in _docstrings(tree)}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            used.update(WORD.findall(node.value))
    return used


def test_every_definition_in_the_package_is_used():
    used = set()
    defined = []
    for path, tree in _trees(PACKAGE, ROOT / "tests", ROOT / "bench"):
        used |= _used_names(tree)
        if path.is_relative_to(PACKAGE):
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.append((node.name, f"{path.relative_to(ROOT)}:{node.lineno}"))
    dead = [
        f"{name} ({where})"
        for name, where in defined
        if not (name.startswith("__") and name.endswith("__")) and name not in used
    ]
    assert not dead, "defined but never used: " + ", ".join(dead)
