"""Mid-run SIGKILL: the rerun over the store is bit-identical.

The harshest leg of the fault matrix.  A child process runs the full
pipeline over a ``store_dir`` with a scheduled ``kill`` fault that
SIGKILLs it at the start of the *last* synthesis job — after the
earlier jobs published their blocks, before the run could finish.  The
parent verifies the kill actually happened (exit by SIGKILL, one store
entry per finished job) and that rerunning over the same store
synthesizes only the killed job and reproduces an uninterrupted run bit
for bit.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import heisenberg
from repro.core.quest import QuestConfig, run_quest

FAST = dict(
    max_samples=3,
    max_block_qubits=2,
    max_layers_per_block=2,
    solutions_per_layer=2,
    instantiation_starts=1,
    max_optimizer_iterations=40,
    annealing_maxiter=40,
    threshold_per_block=0.25,
    sphere_variants_per_count=2,
    block_time_budget=None,
)
SEED = 5

# heisenberg(4, steps=1) partitions into 3 nontrivial blocks with 3
# distinct content keys, so the inline executor runs 3 synthesis jobs in
# block order; killing at job 2 leaves blocks 0 and 1 in the store.
KILL_BLOCK = 2

_CHILD_SCRIPT = """\
import sys

from repro.algorithms import heisenberg
from repro.core.quest import QuestConfig, run_quest
from repro.resilience import FaultInjector, FaultSpec

config = QuestConfig(seed={seed}, store_dir={store_dir!r}, **{fast!r})
injector = FaultInjector(specs=(FaultSpec("kill", {kill_block}, 0),))
run_quest(heisenberg(4, steps=1), config, fault_injector=injector)
print("UNREACHABLE: the kill fault did not fire", file=sys.stderr)
sys.exit(3)
"""


def _dump_artifacts(name: str, payload: dict) -> None:
    """Persist diagnostics for CI's failure-artifact upload."""
    artifact_dir = os.environ.get("FAULT_ARTIFACT_DIR")
    if not artifact_dir:
        return
    directory = Path(artifact_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.json").write_text(json.dumps(payload, indent=1))


@pytest.mark.slow
def test_resume_after_sigkill_is_bit_identical(tmp_path):
    store_dir = tmp_path / "store"
    script = tmp_path / "killed_run.py"
    script.write_text(
        _CHILD_SCRIPT.format(
            seed=SEED,
            fast=FAST,
            kill_block=KILL_BLOCK,
            store_dir=str(store_dir),
        )
    )
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    published = sorted(p.name for p in store_dir.rglob("*.qpool"))
    _dump_artifacts(
        "sigkill_child",
        {
            "returncode": proc.returncode,
            "stdout": proc.stdout,
            "stderr": proc.stderr,
            "published": published,
        },
    )

    # The child died by SIGKILL, not by finishing or erroring out.
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    # It got partway: one store entry per job that finished (2 of 3).
    assert len(published) == KILL_BLOCK

    # Rerun over the same store and compare with an uninterrupted run.
    config = QuestConfig(seed=SEED, **FAST)
    clean = run_quest(heisenberg(4, steps=1), config)
    resumed = run_quest(
        heisenberg(4, steps=1),
        QuestConfig(seed=SEED, store_dir=str(store_dir), **FAST),
    )
    # Only the killed job synthesizes; the finished ones are disk hits.
    assert resumed.cache_misses == 1
    assert resumed.cache_hits == len(published)
    assert resumed.cache_corrupt_entries == 0
    assert clean.selection.bounds == resumed.selection.bounds
    assert len(clean.selection.choices) == len(resumed.selection.choices)
    for a, b in zip(clean.selection.choices, resumed.selection.choices):
        assert np.array_equal(a, b)
    assert len(clean.circuits) == len(resumed.circuits)
    for ca, cb in zip(clean.circuits, resumed.circuits):
        assert ca.cnot_count() == cb.cnot_count()
        assert np.array_equal(ca.unitary(), cb.unitary())
    for pa, pb in zip(clean.pools, resumed.pools):
        assert pa.cnot_counts().tolist() == pb.cnot_counts().tolist()
        assert pa.distances().tolist() == pb.distances().tolist()
        for ca, cb in zip(pa.candidates, pb.candidates):
            assert np.array_equal(ca.unitary, cb.unitary)
