"""No module of the package can turn stored or received bytes into code.

Store entries are read with ``struct`` and ``numpy.frombuffer``
(:mod:`repro.parallel.cache`), so a file under a shared store root is
data for every replica that loads it.  This guard keeps it that way: it
walks the syntax tree of every module under ``src/repro`` and fails on
any import of a module whose loaders can run code.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

#: Modules whose loads can execute arbitrary code.
FORBIDDEN = frozenset({"pickle", "cPickle", "_pickle", "marshal", "shelve", "dill"})

PACKAGE = Path(repro.__file__).resolve().parent


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.lineno, node.module
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "__import__"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            yield node.lineno, str(node.args[0].value)


def test_no_module_imports_a_code_deserializer():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 50, "the guard found too few modules to walk"
    offenders = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in modules
        for line, name in _imported_modules(ast.parse(path.read_text(), str(path)))
        if name.split(".")[0] in FORBIDDEN
    ]
    assert not offenders, "code deserializers imported:\n" + "\n".join(offenders)


def test_the_guard_sees_every_import_form():
    source = (
        "import os, pickle as p\n"
        "from marshal import loads\n"
        "def f():\n"
        "    import shelve.x\n"
        "    return __import__('pickle')\n"
        "from . import pickle\n"  # a sibling module named pickle: allowed
    )
    names = [name for _, name in _imported_modules(ast.parse(source))]
    assert sorted(n for n in names if n.split(".")[0] in FORBIDDEN) == [
        "marshal", "pickle", "pickle", "shelve.x",
    ]
