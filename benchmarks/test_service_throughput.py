"""Service throughput: concurrent clients against one live daemon.

Boots a :class:`~repro.service.server.QuestService` (dispatcher
concurrency 2, shared store/registry substrate) and drives it with four
client threads submitting a 12-job mixed workload — a Trotter-family
sweep with deliberate duplicates, the shape of a parameter-sweep re-run
hitting a compilation service.  Records end-to-end submit→result
latency per job and writes throughput plus p50/p99 to
``BENCH_service.json`` at the repo root.

Asserted claims: every job lands ``done``, duplicate submissions reuse
substrate work (cache hits + in-flight joins > 0), no joiner strands,
and the daemon drains cleanly after the burst.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from conftest import print_table

from repro import QuestConfig
from repro.algorithms import heisenberg, tfim, xy_model
from repro.circuits import circuit_to_qasm
from repro.exceptions import ServiceError
from repro.service import QuestService, ServiceClient

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

SERVICE_CONFIG = dict(
    seed=2022,
    max_samples=3,
    max_block_qubits=2,
    threshold_per_block=0.25,
    max_layers_per_block=2,
    solutions_per_layer=2,
    instantiation_starts=1,
    max_optimizer_iterations=40,
    annealing_maxiter=40,
    sphere_variants_per_count=2,
    block_time_budget=None,
)
MAX_CONCURRENCY = 2
CLIENTS = 4


def _workload() -> list[str]:
    sweep = [
        tfim(4, steps=2),
        tfim(4, steps=3),
        heisenberg(4, steps=2),
        xy_model(4, steps=2),
    ]
    # Each circuit submitted three times: the duplicate-heavy shape that
    # the shared store + in-flight registry exist to collapse.
    return [circuit_to_qasm(c) for c in sweep * 3]


def test_service_throughput(tmp_path):
    sock_dir = tempfile.mkdtemp(dir="/tmp", prefix="qbench-")
    socket_path = str(Path(sock_dir) / "s.sock")
    config = QuestConfig(**SERVICE_CONFIG, workers=1)
    service = QuestService(
        socket_path,
        tmp_path / "ledger",
        config=config,
        max_concurrency=MAX_CONCURRENCY,
    )
    thread = threading.Thread(
        target=lambda: asyncio.run(service.run()), daemon=True
    )
    thread.start()
    probe = ServiceClient(socket_path)
    probe.wait_until_ready(timeout=30.0)

    workload = _workload()
    latencies: list[float] = []
    payloads: list[dict] = []
    lock = threading.Lock()

    def compile_one(qasm: str) -> None:
        client = ServiceClient(socket_path)
        start = time.perf_counter()
        payload = client.submit_and_wait(qasm, timeout=600.0)
        elapsed = time.perf_counter() - start
        with lock:
            latencies.append(elapsed)
            payloads.append(payload)

    try:
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            list(pool.map(compile_one, workload))
        wall = time.perf_counter() - start

        assert len(payloads) == len(workload)
        assert not any(p["degraded"] for p in payloads)
        reused = sum(p["cache_hits"] + p["dedup_joins"] for p in payloads)
        assert reused > 0, "duplicate submissions never shared work"

        status = probe.status()
        assert status["jobs_by_state"]["done"] == len(workload)
        assert status["stranded_joiners"] == 0

        throughput = len(workload) / wall
        p50 = float(np.percentile(latencies, 50))
        p99 = float(np.percentile(latencies, 99))
        print_table(
            f"Service throughput ({CLIENTS} clients, "
            f"{len(workload)} jobs, concurrency {MAX_CONCURRENCY})",
            ["metric", "value"],
            [
                ["wall s", f"{wall:.2f}"],
                ["throughput jobs/s", f"{throughput:.2f}"],
                ["latency p50 s", f"{p50:.2f}"],
                ["latency p99 s", f"{p99:.2f}"],
                ["substrate reuse (hits+joins)", reused],
            ],
        )
        RESULTS_PATH.write_text(
            json.dumps(
                {
                    "workload": "tfim/heisenberg/xy_model(4) x3, 12 jobs",
                    "clients": CLIENTS,
                    "max_concurrency": MAX_CONCURRENCY,
                    "jobs": len(workload),
                    "wall_seconds": wall,
                    "throughput_jobs_per_second": throughput,
                    "latency_p50_seconds": p50,
                    "latency_p99_seconds": p99,
                    "substrate_reuse": reused,
                    "admitted": status["admitted"],
                    "rejected": status["rejected"],
                },
                indent=2,
            )
            + "\n"
        )
    finally:
        with contextlib.suppress(ServiceError):
            probe.shutdown()
        thread.join(timeout=60.0)
    assert not thread.is_alive()
