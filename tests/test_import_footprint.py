"""Import footprint: importing ``repro`` costs a few MiB, not a table.

Every process that imports the package pays what its modules build at
import: the CLI, the daemon, a batch's parent and each forked synthesis
worker.  No module builds arrays at import beyond a few gate-sized
constants, and no module imports more of its dependencies than it runs:
numpy, and from scipy only the compiled L-BFGS-B core.  Three guards
hold the footprint down: the bytes of arrays that module globals hold,
the resident memory a fresh interpreter gains by importing every module
once numpy is loaded, and the packages that interpreter must not load.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

#: Most bytes of ndarrays that ``repro`` module globals may hold.
MAX_GLOBAL_ARRAY_BYTES = 1 << 20

#: Most resident MiB that importing every ``repro`` module may add to an
#: interpreter that already imported numpy.
MAX_IMPORT_RSS_MIB = 32

#: Most resident MiB a fresh interpreter may peak at, importing every
#: ``repro`` module: 95.4 MiB while scipy.optimize, scipy.special and
#: networkx were imported, about 43 MiB without them.
MAX_IMPORTED_PEAK_MIB = 64

#: Packages no ``repro`` module may import: several hundred modules
#: (scipy.linalg, scipy.sparse, scipy.spatial among them) loaded for one
#: optimizer routine, one constant and a few graph calls.
FORBIDDEN_PACKAGES = ("scipy.optimize", "scipy.special", "networkx")


def _repro_modules() -> list[str]:
    """Every module of the package but ``repro.__main__``, which runs
    the CLI when imported."""
    return [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"
    ]


def _held_arrays(value):
    """The ndarrays ``value`` is, or holds one level inside a dict, list
    or tuple."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (dict, list, tuple)):
        items = value.values() if isinstance(value, dict) else value
        yield from (item for item in items if isinstance(item, np.ndarray))


def test_module_globals_hold_under_a_mebibyte_of_arrays():
    held = {}
    for name in _repro_modules():
        module = importlib.import_module(name)
        for value in vars(module).values():
            for array in _held_arrays(value):
                # A re-exported array is held once.
                held[id(array)] = array.nbytes
    assert sum(held.values()) < MAX_GLOBAL_ARRAY_BYTES


#: Runs in a fresh interpreter.  It reads the peak resident memory of
#: its own image (``VmHWM``): ``ru_maxrss`` of a spawned child starts at
#: its spawner's peak on Linux, so under pytest it would read the test
#: process's size, not the imports'.
_IMPORT_PROBE = """
import importlib, json, sys
import numpy

def peak_kib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])

before = peak_kib()
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps({
    "grown_mib": (peak_kib() - before) / 1024.0,
    "peak_mib": peak_kib() / 1024.0,
    "modules": sorted(sys.modules),
}))
"""


@pytest.fixture(scope="module")
def import_probe() -> dict:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *_repro_modules()],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(probe.stdout.strip().splitlines()[-1])


def test_importing_every_module_adds_under_32_mib_of_rss(import_probe):
    assert import_probe["grown_mib"] < MAX_IMPORT_RSS_MIB


def test_importing_every_module_peaks_under_64_mib(import_probe):
    assert import_probe["peak_mib"] < MAX_IMPORTED_PEAK_MIB


def test_no_module_imports_scipy_optimize_scipy_special_or_networkx(import_probe):
    loaded = [
        name
        for name in import_probe["modules"]
        for package in FORBIDDEN_PACKAGES
        if name == package or name.startswith(package + ".")
    ]
    # scipy's L-BFGS-B extension module is loaded on its own, without
    # running the package's ``__init__``; the interpreter may list it
    # under its own name.
    assert set(loaded) <= {"scipy.optimize._lbfgsb"}
