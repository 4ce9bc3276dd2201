"""SIGKILL the daemon mid-job: a warm restart resumes from the store.

A child process runs a real daemon (socket, dispatcher, the works) with
a scheduled ``kill`` fault that fires partway through the submitted
job's synthesis.  The daemon has no ``store_dir``, so its store lives in
``<ledger>/store``.  The parent verifies the kill landed mid-compile —
the ledger holds the job in ``running`` and the store one entry per
finished synthesis job — then restarts a daemon on the *same ledger*
with no injector and asserts the job is re-admitted, synthesizes only
the killed job, and lands bit-identical to an uninterrupted solo
:func:`run_quest`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest

from repro.algorithms import heisenberg
from repro.circuits import circuit_to_qasm
from repro.core.quest import QuestConfig, run_quest
from repro.exceptions import ServiceError
from repro.service import JobLedger, QuestService, ServiceClient
from tests.helpers import wait_until_ready

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
# killing at job 2 leaves blocks 0-1 in the daemon's store and the
# job's ledger record stuck in "running".
KILL_BLOCK = 2

_CHILD_SCRIPT = """\
import asyncio
import sys
import threading

from repro.algorithms import heisenberg
from repro.circuits import circuit_to_qasm
from repro.core.quest import QuestConfig
from repro.resilience import FaultInjector, FaultSpec
from repro.service import QuestService, ServiceClient
from tests.helpers import wait_until_ready

config = QuestConfig(seed={seed}, **{fast!r})
injector = FaultInjector(specs=(FaultSpec("kill", {kill_block}, 0),))
service = QuestService(
    {socket_path!r},
    {ledger_dir!r},
    config=config,
    fault_injector=injector,
)


def submit():
    client = ServiceClient({socket_path!r})
    wait_until_ready(client, timeout=30.0)
    job_id = client.submit(circuit_to_qasm(heisenberg(4, steps=1)))
    print("SUBMITTED", job_id, flush=True)
    client.wait(job_id, timeout=300.0)


threading.Thread(target=submit, daemon=True).start()
asyncio.run(service.run())
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
def test_daemon_resumes_killed_job_from_the_store_bit_identically(tmp_path):
    ledger_dir = tmp_path / "ledger"
    sock_dir = tempfile.mkdtemp(dir="/tmp", prefix="qkil-")
    script = tmp_path / "killed_daemon.py"
    script.write_text(
        _CHILD_SCRIPT.format(
            seed=SEED,
            fast=FAST,
            kill_block=KILL_BLOCK,
            socket_path=str(Path(sock_dir) / "child.sock"),
            ledger_dir=str(ledger_dir),
        )
    )
    env = dict(os.environ)
    repo = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        (str(repo / "src"), str(repo), env.get("PYTHONPATH", ""))
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    records = JobLedger(ledger_dir).load_all()
    published = sorted(
        p.name for p in (ledger_dir / "store").rglob("*.qpool")
    )
    _dump_artifacts(
        "sigkill_daemon_child",
        {
            "returncode": proc.returncode,
            "stdout": proc.stdout,
            "stderr": proc.stderr,
            "ledger_states": {r.job_id: r.state for r in records},
            "published": published,
        },
    )

    # The child died by SIGKILL mid-job, not by finishing or erroring.
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert "SUBMITTED" in proc.stdout
    job_id = proc.stdout.split()[1]
    # The ledger survived the crash: the job is durably mid-flight, and
    # the default store holds one entry per finished job (2 of 3).
    assert [r.job_id for r in records] == [job_id]
    assert records[0].state == "running"
    assert records[0].attempts == 1
    assert len(published) == KILL_BLOCK

    # Warm restart on the same ledger, injector gone: the job re-admits,
    # synthesizes only the killed job, and completes bit-identically to
    # a solo uninterrupted run.
    config = QuestConfig(seed=SEED, **FAST)
    service = QuestService(
        str(Path(sock_dir) / "restart.sock"), ledger_dir, config=config
    )
    thread = threading.Thread(
        target=lambda: asyncio.run(service.run()), daemon=True
    )
    thread.start()
    client = ServiceClient(str(Path(sock_dir) / "restart.sock"))
    try:
        wait_until_ready(client, timeout=30.0)
        reply = client.wait(job_id, timeout=300.0)
        assert reply["state"] == "done", reply
        assert reply["attempts"] == 2
        payload = reply["result"]
        assert payload["cache_misses"] == 1
        assert payload["cache_hits"] == len(published)
        solo = run_quest(heisenberg(4, steps=1), config)
        assert payload["choices"] == [
            [int(i) for i in c] for c in solo.selection.choices
        ]
        assert payload["bounds"] == [float(b) for b in solo.selection.bounds]
        assert payload["cnot_counts"] == solo.cnot_counts
        assert payload["circuits"] == [
            circuit_to_qasm(c) for c in solo.circuits
        ]
        assert client.status()["stranded_joiners"] == 0
    finally:
        with contextlib.suppress(ServiceError):
            client.shutdown()
        thread.join(timeout=60.0)
    assert not thread.is_alive()
