"""Overload smoke test: saturate a tiny queue from many client threads.

The claim under test is the robustness tentpole's backpressure story:
when the bounded queue fills, submissions are *rejected structurally*
(reason + queue context, not a hang or a stack trace), every admitted
job still reaches a terminal state, the daemon never deadlocks, and it
shuts down cleanly afterwards with zero stranded joiners.

When ``SERVICE_ARTIFACT_DIR`` is set (the CI service job does this),
the final metrics snapshot is written there as JSON for upload.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.algorithms import tfim
from repro.circuits import circuit_to_qasm
from repro.core.quest import QuestConfig
from repro.exceptions import AdmissionRejected, ServiceError
from repro.service import QuestService, ServiceClient
from tests.helpers import wait_until_ready

FAST = dict(
    seed=11,
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

CAPACITY = 3
TENANTS = ("alpha", "beta", "gamma")
SUBMITS_PER_TENANT = 6


def _dump_artifact(name: str, payload: dict) -> None:
    artifact_dir = os.environ.get("SERVICE_ARTIFACT_DIR")
    if not artifact_dir:
        return
    path = Path(artifact_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / f"{name}.json").write_text(json.dumps(payload, indent=2))


@pytest.fixture
def sock_dir():
    """A short /tmp directory for the daemon's socket (``AF_UNIX`` paths
    are capped at ~108 bytes), removed when the test ends."""
    with tempfile.TemporaryDirectory(dir="/tmp", prefix="qovl-") as path:
        yield path


def test_queue_saturation_rejects_structurally_and_drains_clean(
    tmp_path, sock_dir
):
    socket_path = str(Path(sock_dir) / "s.sock")
    config = QuestConfig(**FAST, workers=1)
    service = QuestService(
        socket_path,
        tmp_path / "ledger",
        config=config,
        capacity=CAPACITY,
        max_concurrency=1,
    )
    thread = threading.Thread(
        target=lambda: asyncio.run(service.run()), daemon=True
    )
    thread.start()
    client = ServiceClient(socket_path)
    wait_until_ready(client, timeout=30.0)

    qasm = circuit_to_qasm(tfim(4, steps=2))
    accepted: list[str] = []
    rejections: list[AdmissionRejected] = []
    lock = threading.Lock()

    def flood(tenant: str) -> None:
        local = ServiceClient(socket_path)
        for _ in range(SUBMITS_PER_TENANT):
            try:
                job_id = local.submit(qasm, tenant=tenant)
                with lock:
                    accepted.append(job_id)
            except AdmissionRejected as exc:
                with lock:
                    rejections.append(exc)

    try:
        with ThreadPoolExecutor(max_workers=len(TENANTS)) as pool:
            list(pool.map(flood, TENANTS))

        # Backpressure fired: the queue is far smaller than the flood,
        # so some jobs got in and the rest were refused with structure.
        assert accepted, "a saturated daemon should still admit some work"
        assert rejections, "flooding a capacity-3 queue never rejected"
        for exc in rejections:
            assert exc.reason == "queue_full"
            assert exc.capacity == CAPACITY
            assert exc.queue_depth >= CAPACITY
            assert exc.tenant in TENANTS

        # No deadlock: every admitted job reaches a terminal state.
        terminal_states = {
            job_id: client.wait(job_id, timeout=300.0)["state"]
            for job_id in accepted
        }
        assert set(terminal_states.values()) == {"done"}

        status = client.status()
        assert status["rejected"]["queue_full"] == len(rejections)
        assert status["admitted"] == len(accepted)
        assert status["jobs_by_state"]["done"] == len(accepted)
        assert status["stranded_joiners"] == 0
        _dump_artifact(
            "overload_metrics",
            {
                "accepted": len(accepted),
                "rejected": len(rejections),
                "capacity": CAPACITY,
                "status": status,
            },
        )
    finally:
        with contextlib.suppress(ServiceError):
            client.shutdown()
        thread.join(timeout=60.0)
    assert not thread.is_alive(), "daemon wedged during post-overload stop"
