"""The census: ``src/repro`` holds what the program runs.

Every top-level function and class in ``src/repro``, and every method of
such a class, must be referenced by code in ``src/repro``,
``benchmarks/`` or ``examples/``: a name or an attribute with its name,
outside its own definition.  An import (a re-export) and an ``__all__``
entry do not count, and neither do tests.  Dunder methods are exempt,
because Python calls them.  Code that only tests reach belongs in
``tests/``: a reference implementation as a ``*_oracle.py`` module, a
shared helper in ``tests/helpers.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLERS = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: Definitions kept although nothing in the program calls them.
ALLOWLIST = {
    "random_circuit": "the tests' main circuit fixture; moving it is churn",
    "random_unitary": "the tests' main unitary fixture; moving it is churn",
    "Circuit.z": "keeps the Circuit gate builders whole",
    "Circuit.sdg": "keeps the Circuit gate builders whole",
    "Circuit.tdg": "keeps the Circuit gate builders whole",
    "Circuit.sx": "keeps the Circuit gate builders whole",
    "Circuit.u3": "keeps the Circuit gate builders whole",
    "_BelowWarning.filter": "logging calls it: the logging.Filter protocol",
}


def _harness_lookup_names() -> set[str]:
    """The names ``benchmarks/harness/layers.py`` looks up and wraps.

    Read as data from its ``WRAPPED`` table: the harness raises on a
    missing name, so removing one of these needs a change to the
    benchmark itself.
    """
    tree = ast.parse((ROOT / "benchmarks" / "harness" / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED"
            for target in node.targets
        ):
            return {attribute for *_, attribute in ast.literal_eval(node.value)}
    raise AssertionError("benchmarks/harness/layers.py defines no WRAPPED")


def _definitions():
    """``(path, qualname, name, first line, last line)`` of every
    top-level function and class in ``src/repro`` and of their methods."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield path, node.name, node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield (
                            path,
                            f"{node.name}.{member.name}",
                            member.name,
                            member.lineno,
                            member.end_lineno,
                        )


def _references() -> dict[str, list[tuple[Path, int]]]:
    """Every name and attribute read in the program, with where."""
    found: dict[str, list[tuple[Path, int]]] = {}
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                found.setdefault(name, []).append((path, node.lineno))
    return found


def _uncalled() -> list[str]:
    references = _references()
    uncalled = []
    for path, qualname, name, first, last in _definitions():
        if name.startswith("__") and name.endswith("__"):
            continue
        outside = [
            site
            for site in references.get(name, ())
            if not (site[0] == path and first <= site[1] <= last)
        ]
        if not outside:
            uncalled.append(f"{path.relative_to(ROOT)}: {qualname}")
    return uncalled


def test_every_definition_in_src_is_called_by_the_program():
    exempt = set(ALLOWLIST) | _harness_lookup_names()
    uncalled = [
        entry for entry in _uncalled() if entry.split(": ")[1] not in exempt
    ]
    assert not uncalled, (
        "census: these src/repro definitions are called by nothing in "
        "src/repro, benchmarks/ or examples/; delete them, or move them "
        "to tests/ if tests need them:\n" + "\n".join(uncalled)
    )


def test_every_allowlisted_name_is_still_uncalled():
    # An entry leaves the allowlist once its name is deleted or called.
    uncalled = {entry.split(": ")[1] for entry in _uncalled()}
    assert not set(ALLOWLIST) - uncalled
    assert all(ALLOWLIST.values())
