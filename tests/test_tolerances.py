"""Guard the single-source-of-truth rule for numerical tolerances.

Modules that have been converted to :mod:`repro.metrics.tolerances`
must not grow new inline scientific-notation literals (``1e-6`` and
friends) — every tolerance they use has to be imported from the shared
module so a future retuning happens in exactly one place.
"""

from __future__ import annotations

import io
import re
import tokenize
from pathlib import Path

import pytest

from repro.metrics import tolerances

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules already converted to the shared tolerance constants.  Add a
#: module here once its literals are hoisted; never remove one.
CONVERTED_MODULES = [
    "core/bounds.py",
    "metrics/distances.py",
    "resilience/validation.py",
    "sim/statevector.py",
    "verify/__init__.py",
    "verify/certifier.py",
    "verify/independent.py",
]

#: Scientific notation only — matches ``1e-6``/``2.5E+3`` but not hex
#: literals like ``0xCE27`` (whose digits happen to contain an ``e``).
_SCIENTIFIC = re.compile(r"^[0-9][0-9_.]*[eE][-+]?[0-9]+$")


def _scientific_literals(path: Path) -> list[str]:
    found = []
    stream = io.StringIO(path.read_text())
    for token in tokenize.generate_tokens(stream.readline):
        if token.type == tokenize.NUMBER and _SCIENTIFIC.match(token.string):
            found.append(f"{path.name}:{token.start[0]}: {token.string}")
    return found


@pytest.mark.parametrize("module", CONVERTED_MODULES)
def test_converted_modules_have_no_inline_tolerances(module):
    strays = _scientific_literals(SRC / module)
    assert not strays, (
        "inline scientific-notation literals found; import them from "
        "repro.metrics.tolerances instead:\n" + "\n".join(strays)
    )


def test_tolerances_module_is_the_single_source():
    # the shared module itself is where the literals live
    assert _scientific_literals(SRC / "metrics" / "tolerances.py")


def test_every_exported_tolerance_is_a_positive_float():
    for name in tolerances.__all__:
        value = getattr(tolerances, name)
        assert isinstance(value, float), name
        assert 0 < value < 1, name
