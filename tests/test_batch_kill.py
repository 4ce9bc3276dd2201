"""Mid-batch SIGKILL: the rerun resumes every circuit from the store.

A child process runs :func:`repro.batch.run_quest_batch` over two
circuits with a ``store_dir`` and a scheduled ``kill`` fault that fires
partway through the *first* circuit (``window=1`` keeps the order
deterministic).  The parent verifies the kill landed mid-batch — the
store holds one entry per job of circuit 0 that finished — and that
rerunning the batch over the same store synthesizes only the killed job
of circuit 0, and finishes both circuits bit-identically to
uninterrupted solo runs.
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

from repro.algorithms import heisenberg, tfim
from repro.batch import run_quest_batch
from repro.core.quest import QuestConfig, run_quest

FAST = dict(
    max_samples=3,
    max_block_qubits=2,
    max_layers_per_block=2,
    solutions_per_layer=2,
    instantiation_starts=1,
    max_optimizer_iterations=40,
    threshold_per_block=0.25,
    sphere_variants_per_count=2,
    block_time_budget=None,
)
SEED = 5

# heisenberg(4, steps=1) runs 3 distinct synthesis jobs in block order;
# killing at job 2 leaves circuit 0's blocks 0-1 in the store and the
# batch's second circuit untouched.
KILL_BLOCK = 2

_CHILD_SCRIPT = """\
import sys

from repro.algorithms import heisenberg, tfim
from repro.batch import run_quest_batch
from repro.core.quest import QuestConfig
from repro.resilience import FaultInjector, FaultSpec

config = QuestConfig(seed={seed}, store_dir={store_dir!r}, **{fast!r})
injector = FaultInjector(specs=(FaultSpec("kill", {kill_block}, 0),))
run_quest_batch(
    [heisenberg(4, steps=1), tfim(4, steps=1)],
    config,
    window=1,
    fault_injector=injector,
)
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


def _assert_identical(clean, resumed):
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


@pytest.mark.slow
def test_batch_resumes_after_sigkill_bit_identically(tmp_path):
    store_dir = tmp_path / "store"
    script = tmp_path / "killed_batch.py"
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
        "sigkill_batch_child",
        {
            "returncode": proc.returncode,
            "stdout": proc.stdout,
            "stderr": proc.stderr,
            "published": published,
        },
    )

    # The child died by SIGKILL mid-batch, not by finishing or erroring.
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    # Circuit 0 got partway: one store entry per finished job (2 of 3);
    # the sequential window means circuit 1 never started.
    assert len(published) == KILL_BLOCK

    # Rerun the batch over the same store: circuit 0 synthesizes only
    # its killed job, circuit 1 compiles fresh, both bit-identical to
    # uninterrupted solo runs.
    config = QuestConfig(seed=SEED, **FAST)
    batch = run_quest_batch(
        [heisenberg(4, steps=1), tfim(4, steps=1)],
        QuestConfig(seed=SEED, store_dir=str(store_dir), **FAST),
        window=1,
    )
    resumed_heis, fresh_tfim = batch.results
    assert resumed_heis.cache_misses == 1
    assert resumed_heis.cache_hits == len(published)
    assert resumed_heis.cache_corrupt_entries == 0
    _assert_identical(run_quest(heisenberg(4, steps=1), config), resumed_heis)
    _assert_identical(run_quest(tfim(4, steps=1), config), fresh_tfim)
