"""The censuses: ``src/repro`` holds what the program runs.

The name census: every top-level function and class in ``src/repro``,
and every method of such a class, must be referenced by code in
``src/repro``, ``benchmarks/`` or ``examples/``: a name or an attribute
with its name, outside its own definition.  An import (a re-export) and
an ``__all__`` entry do not count, and neither do tests.  Dunder methods
are exempt, because Python calls them.  Code that only tests reach
belongs in ``tests/``: a reference implementation as a ``*_oracle.py``
module, a shared helper in ``tests/helpers.py``.

The parameter census: every option in ``src/repro`` must take at least
two values in the program.  An option is a parameter with a default, on
a function or method, or a dataclass field whose default is a literal or
an UPPER_CASE constant; a field the program assigns after construction
is state, not an option.  Its values in use are what the calls in
``src/repro``, ``benchmarks/`` and ``examples/`` pass to it, matched by
name as the name census matches references (see :func:`_values_in_use`).
An option with one value in use is a constant: make it one.  Exempt are
parameters named ``rng``, through which callers and tests pin randomness;
whatever the frozen ``benchmarks/harness/`` passes, sets or reads; the
name census's :data:`ALLOWLIST`; and :data:`OPTION_EXEMPTIONS`.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLERS = (SRC, ROOT / "benchmarks", ROOT / "examples")
HARNESS = ROOT / "benchmarks" / "harness"

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


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _harness_lookup_names() -> set[str]:
    """The names ``benchmarks/harness/layers.py`` looks up and wraps.

    Read as data from its ``WRAPPED`` table: the harness raises on a
    missing name, so removing one of these needs a change to the
    benchmark itself.
    """
    for node in _tree(HARNESS / "layers.py").body:
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
        for node in _tree(path).body:
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
            for node in ast.walk(_tree(path)):
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


# -- The parameter census ---------------------------------------------------

#: Options kept although the program passes them one value, with the
#: reason.  A key is ``"<qualname>(<option>)"``; a class's name stands
#: for its ``__init__`` and its fields.
OPTION_EXEMPTIONS = {
    "main(argv)": "the CLI entry point: argparse reads sys.argv on None",
    "tfim(j)": "a coupling: it picks an input of the TFIM family",
    "tfim(h)": "a field strength: it picks an input of the TFIM family",
    "tfim(dt)": "the Trotter step: it picks an input of the TFIM family",
    "heisenberg(jx)": "a coupling: it picks an input of the Heisenberg family",
    "heisenberg(jy)": "a coupling: it picks an input of the Heisenberg family",
    "heisenberg(jz)": "a coupling: it picks an input of the Heisenberg family",
    "heisenberg(h)": "a field strength: it picks an input of the Heisenberg family",
    "heisenberg(dt)": "the Trotter step: it picks an input of the Heisenberg family",
    "xy_model(j)": "a coupling: it picks an input of the XY family",
    "xy_model(dt)": "the Trotter step: it picks an input of the XY family",
    "random_hlf(edge_probability)": "it picks the HLF family's random graphs",
    "random_qaoa(edge_probability)": "it picks the QAOA family's random graphs",
    "vqe_ansatz(params)": "the VQE family's angles, drawn from rng when omitted",
}

#: A call that passes its other arguments on to the function it is
#: handed, and where that function sits among its arguments.
FORWARDERS = {"partial": 0, "submit": 0, "run_in_executor": 1}

#: The value of an argument that is not a literal or an UPPER_CASE name.
VARYING = ("varying",)


def _value(node: ast.expr) -> tuple:
    """A default or an argument as a comparable token."""
    try:
        return ("literal", repr(ast.literal_eval(node)))
    except (ValueError, TypeError, SyntaxError):
        pass
    name = _name(node) or ""
    return ("constant", name) if name.isupper() else VARYING


def _name(node: ast.expr) -> str | None:
    """The name a call or reference uses: ``f`` for ``f`` and ``x.f``."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


@dataclass(eq=False)
class _Signature:
    """What a call by name reaches: the parameters that positional
    arguments fill, in order, and the options with their defaults."""

    qualname: str
    path: Path
    #: ``function``, ``init`` (a class's ``__init__``) or ``dataclass``.
    kind: str
    positional: list[str] = field(default_factory=list)
    defaults: dict[str, tuple] = field(default_factory=dict)


def _function(qualname: str, path: Path, node, kind: str, bound: bool) -> _Signature:
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(_name(d) == "staticmethod" for d in node.decorator_list)
    skip = 1 if bound and not static else 0
    signature = _Signature(qualname, path, kind, [a.arg for a in positional[skip:]])
    with_defaults = positional[len(positional) - len(args.defaults):]
    for arg, default in zip(with_defaults, args.defaults):
        signature.defaults[arg.arg] = _value(default)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            signature.defaults[arg.arg] = _value(default)
    return signature


def _dataclass(qualname: str, path: Path, node: ast.ClassDef, state: set[str]):
    """A dataclass's fields; those with a literal or UPPER_CASE default
    are its options, unless the program assigns them (state)."""
    signature = _Signature(qualname, path, "dataclass")
    for member in node.body:
        if not (
            isinstance(member, ast.AnnAssign)
            and isinstance(member.target, ast.Name)
            and "ClassVar" not in ast.unparse(member.annotation)
        ):
            continue
        name = member.target.id
        signature.positional.append(name)
        if member.value is None or name in state:
            continue
        default = _value(member.value)
        if default != VARYING:
            signature.defaults[name] = default
    return signature


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )


def _state() -> set[str]:
    """Attribute names the program assigns outside a ``__post_init__``."""
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = _tree(path)
        constructing = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
            for inner in ast.walk(node)
        }
        names.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and id(node) not in constructing
        )
    return names


@functools.cache
def _signatures() -> dict[str, list[_Signature]]:
    """Every callable in ``src/repro``, by the name a call uses for it.

    A class's name stands for its ``__init__`` and, for a dataclass, its
    fields; a class with neither stands for its nearest base in
    ``src/repro`` that has one.
    """
    state = _state()
    by_name: dict[str, list[_Signature]] = {}
    classes: dict[str, ast.ClassDef] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                by_name.setdefault(node.name, []).append(
                    _function(node.name, path, node, "function", bound=False)
                )
            elif isinstance(node, ast.ClassDef):
                classes[node.name] = node
                if _is_dataclass(node):
                    by_name.setdefault(node.name, []).append(
                        _dataclass(node.name, path, node, state)
                    )
                for member in node.body:
                    if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if member.name == "__init__":
                        by_name.setdefault(node.name, []).append(
                            _function(node.name, path, member, "init", bound=True)
                        )
                    elif not member.name.startswith("__"):
                        qualname = f"{node.name}.{member.name}"
                        by_name.setdefault(member.name, []).append(
                            _function(qualname, path, member, "function", bound=True)
                        )
    for name, node in classes.items():
        while name not in by_name:
            bases = [_name(b) for b in node.bases if _name(b) in classes]
            if not bases:
                break
            node = classes[bases[0]]
            if node.name in by_name:
                by_name[name] = by_name[node.name]
    return by_name


def _calls(roots):
    """``(callee name, arguments, keywords)`` of every call under
    ``roots``.  A forwarding call yields the call it forwards; an
    executor's ``submit`` also yields itself, because ``submit`` is a
    method name of the program too.  ``cls(...)`` calls its class."""
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = _tree(path)
            owner = {
                id(inner): node.name
                for node in tree.body
                if isinstance(node, ast.ClassDef)
                for inner in ast.walk(node)
            }
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name, args = _name(node.func), node.args
                at = FORWARDERS.get(name)
                if at is not None and len(args) > at:
                    yield _name(args[at]), args[at + 1:], node.keywords
                    if name != "submit":
                        continue
                if name == "cls":
                    name = owner.get(id(node), name)
                yield name, args, node.keywords


def _passed(signature: _Signature, args, keywords) -> dict[str, tuple]:
    """The options one call passes explicitly, with their values.

    A ``*`` argument passes every positional parameter from its place
    on, varying; a ``**`` argument passes every option not named."""
    star = next((i for i, a in enumerate(args) if isinstance(a, ast.Starred)), None)
    passed = dict(zip(signature.positional, map(_value, args[:star])))
    if star is not None:
        passed.update((option, VARYING) for option in signature.positional[star:])
    passed.update((k.arg, _value(k.value)) for k in keywords if k.arg)
    if any(k.arg is None for k in keywords):
        passed.update((option, VARYING) for option in signature.defaults)
    return passed


def _values_in_use() -> dict[tuple[_Signature, str], set[tuple]]:
    """Every option's values in use, by ``(signature, option)``.

    A call passes its literal and UPPER_CASE arguments, and the default
    wherever it omits an option; any other argument counts as varying.
    ``dataclasses.replace`` passes its keywords to every dataclass field
    of that name and omits nothing.
    """
    signatures = _signatures()
    values = {
        (signature, option): set()
        for candidates in signatures.values()
        for signature in candidates
        for option in signature.defaults
    }
    for name, args, keywords in _calls(CALLERS):
        if name == "replace":
            for (signature, option), found in values.items():
                for keyword in keywords:
                    if signature.kind == "dataclass" and keyword.arg == option:
                        found.add(_value(keyword.value))
            continue
        for signature in signatures.get(name, ()):
            passed = _passed(signature, args, keywords)
            for option, default in signature.defaults.items():
                values[(signature, option)].add(passed.get(option, default))
    return values


def _harness_reach() -> tuple[set[str], set[str]]:
    """What ``benchmarks/harness/`` passes, sets or reads, read from its
    source as data because the harness is frozen: the options its calls
    pass, as ``"<qualname>(<option>)"``, and the attribute names it reads
    or sets, which reach every class option of that name (as do the
    keywords of its ``dataclasses.replace`` calls)."""
    passed, attributes = set(), set()
    for name, args, keywords in _calls([HARNESS]):
        if name == "replace":
            attributes.update(k.arg for k in keywords)
        for signature in _signatures().get(name, ()):
            passed.update(
                f"{signature.qualname}({option})"
                for option in _passed(signature, args, keywords)
            )
    for path in sorted(HARNESS.rglob("*.py")):
        attributes.update(
            node.attr
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute)
        )
    return passed, attributes


def _constants() -> dict[str, str]:
    """``"<qualname>(<option>)"`` -> where and the one value, for every
    option with one value in use that no exemption but
    :data:`OPTION_EXEMPTIONS` keeps."""
    harness_passed, harness_attributes = _harness_reach()
    found = {}
    for (signature, option), values in _values_in_use().items():
        if len(values) != 1 or VARYING in values or option == "rng":
            continue
        if signature.qualname in ALLOWLIST:
            continue
        if f"{signature.qualname}({option})" in harness_passed or (
            signature.kind != "function" and option in harness_attributes
        ):
            continue
        ((_, value),) = values
        where = signature.path.relative_to(ROOT)
        found[f"{signature.qualname}({option})"] = f"{where}: {value}"
    return found


def test_every_option_in_src_takes_two_values():
    constants = {
        key: where
        for key, where in _constants().items()
        if key not in OPTION_EXEMPTIONS
    }
    assert not constants, (
        "parameter census: the program passes each of these src/repro "
        "options one value; delete the option or make it a module "
        "constant:\n" + "\n".join(f"{w}: {k}" for k, w in constants.items())
    )


def test_every_option_exemption_is_still_needed():
    # An entry leaves the exemptions once its option is gone or varies.
    assert not set(OPTION_EXEMPTIONS) - set(_constants())
    assert all(OPTION_EXEMPTIONS.values())
