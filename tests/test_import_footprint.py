"""Import footprint: importing ``repro`` costs a few MiB, not a table.

Every process that imports the package pays what its modules build at
import: the CLI, the daemon, a batch's parent and each forked synthesis
worker.  No module builds arrays at import beyond a few gate-sized
constants, so two guards hold the footprint down: the bytes of arrays
that module globals hold, and the resident memory a fresh interpreter
gains by importing every module once its third-party dependencies are
loaded.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro

#: Most bytes of ndarrays that ``repro`` module globals may hold.
MAX_GLOBAL_ARRAY_BYTES = 1 << 20

#: Most resident MiB that importing every ``repro`` module may add to an
#: interpreter that already imported numpy, scipy and networkx.
MAX_IMPORT_RSS_MIB = 32


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
import importlib, sys
import networkx, numpy, scipy.linalg, scipy.optimize, scipy.special

def peak_kib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])

before = peak_kib()
for name in sys.argv[1:]:
    importlib.import_module(name)
print((peak_kib() - before) / 1024.0)
"""


def test_importing_every_module_adds_under_32_mib_of_rss():
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
    grown_mib = float(probe.stdout.strip().splitlines()[-1])
    assert grown_mib < MAX_IMPORT_RSS_MIB
