"""Guard against dead code: every function, method and property defined in
``src/linconn`` must be used somewhere in ``src/linconn``, ``tests`` or
``bench``, and every defaulted parameter of one must be passed by some call
there (else it is a constant).

A name counts as used when it appears as a ``Name``, as an ``Attribute``,
as an imported name, or as a word in a string constant (not a docstring).
String constants cover dispatch by name: ``getattr`` on the members of
``expr.FUNCTIONS``, the source that ``linconn.codegen`` prints, and the
targets that ``bench/tracing.py`` patches.  Dunders are exempt; Python
calls them.

The scan matches names, not bindings, so a dead definition whose name is
used for something else stays invisible: a helper ``sub`` would pass
because ``cli.build_parser`` has a local variable named ``sub``.  Likewise
a parameter counts as passed when any call of a function or method of its
name passes it, by keyword or by position, or spreads ``*args`` or
``**kwargs`` into it.
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


def _calls(tree):
    """Per call of a name or an attribute: (name, positional count, keywords).

    A spread ``*args`` counts as every position, ``**kwargs`` as every keyword
    (None).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            spread = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield name, (float("inf") if spread else len(node.args)), (None if None in keywords else keywords)


def _defaulted(tree):
    """Per function: (name, defaulted parameters as (name, position or None), line)."""
    methods = {
        id(item)
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and not any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            bound = 1 if id(node) in methods else 0  # self or cls, passed by the call's owner
            first = len(positional) - len(args.defaults)
            params = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if params:
                yield node.name, params, node.lineno


def test_every_defaulted_parameter_is_passed_somewhere():
    calls = {}
    defined = []
    for path, tree in _trees(PACKAGE, ROOT / "tests", ROOT / "bench"):
        for name, count, keywords in _calls(tree):
            calls.setdefault(name, []).append((count, keywords))
        if path.is_relative_to(PACKAGE):
            for name, params, line in _defaulted(tree):
                defined.append((name, params, f"{path.relative_to(ROOT)}:{line}"))

    def passed(name, param, position):
        return any(
            keywords is None or param in keywords or (position is not None and count > position)
            for count, keywords in calls.get(name, ())
        )

    unpassed = [
        f"{name}({param}) ({where})"
        for name, params, where in defined
        if not (name.startswith("__") and name.endswith("__"))
        for param, position in params
        if not passed(name, param, position)
    ]
    assert not unpassed, "defaulted but never passed: " + ", ".join(unpassed)
