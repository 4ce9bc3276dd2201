"""End-to-end service tests: an in-process daemon behind a real socket.

Each test boots a :class:`~repro.service.server.QuestService` on a Unix
socket (asyncio loop in a background thread — the same topology as a
real deployment, minus process isolation, which
``tests/test_service_kill.py`` covers) and drives it through the
synchronous :class:`~repro.service.client.ServiceClient`.

The headline contract: **served results are bit-identical to solo**
``run_quest`` — including under concurrent duplicate submissions, where
the shared substrate dedups blocks across jobs.
"""

from __future__ import annotations

import asyncio
import contextlib
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.algorithms import qft, tfim
from repro.circuits import circuit_to_qasm
from repro.core.quest import QuestConfig, run_quest
from repro.exceptions import AdmissionRejected, ServiceError
from repro.resilience import FaultInjector, FaultSpec
from repro.service import QuestService, ServiceClient

FAST = dict(
    seed=11,
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


def _config() -> QuestConfig:
    return QuestConfig(**FAST, workers=1, cache=True)


def _payload_signature(payload: dict) -> dict:
    return {
        "choices": payload["choices"],
        "bounds": payload["bounds"],
        "cnot_counts": payload["cnot_counts"],
        "circuits": payload["circuits"],
    }


def _solo_signature(result) -> dict:
    return {
        "choices": [[int(i) for i in c] for c in result.selection.choices],
        "bounds": [float(b) for b in result.selection.bounds],
        "cnot_counts": result.cnot_counts,
        "circuits": [circuit_to_qasm(c) for c in result.circuits],
    }


@contextlib.contextmanager
def running_service(ledger_dir, **kwargs):
    """Boot a daemon on a short /tmp socket; always drain on exit.

    The socket lives in its own mkdtemp under /tmp (not pytest's
    tmp_path) because ``AF_UNIX`` paths are capped at ~108 bytes.
    """
    sock_dir = tempfile.mkdtemp(dir="/tmp", prefix="qsvc-")
    socket_path = str(Path(sock_dir) / "s.sock")
    kwargs.setdefault("config", _config())
    service = QuestService(socket_path, ledger_dir, **kwargs)
    thread = threading.Thread(
        target=lambda: asyncio.run(service.run()), daemon=True
    )
    thread.start()
    client = ServiceClient(socket_path)
    try:
        client.wait_until_ready(timeout=30.0)
        yield service, client
    finally:
        with contextlib.suppress(ServiceError):
            client.shutdown()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "daemon failed to shut down cleanly"


@pytest.fixture(scope="module")
def solo_reference():
    config = _config()
    return {
        "tfim": run_quest(tfim(4, steps=2), config),
        "qft": run_quest(qft(4), config),
    }


def _assert_no_stranded(client: ServiceClient) -> None:
    assert client.status()["stranded_joiners"] == 0


# ----------------------------------------------------------------------
# Bit-identity
# ----------------------------------------------------------------------
def test_served_results_bit_identical_to_solo(tmp_path, solo_reference):
    with running_service(tmp_path / "ledger") as (service, client):
        for name, circuit in (("tfim", tfim(4, steps=2)), ("qft", qft(4))):
            payload = client.submit_and_wait(
                circuit_to_qasm(circuit), timeout=300.0
            )
            assert not payload["degraded"]
            assert _payload_signature(payload) == _solo_signature(
                solo_reference[name]
            )
            # The Σε certificate travels with the ensemble.
            assert len(payload["claims"]) == len(payload["circuits"])
            for manifest, bound in zip(payload["claims"], payload["bounds"]):
                assert manifest["total_epsilon"] == pytest.approx(bound)
        _assert_no_stranded(client)


def test_concurrent_duplicate_submissions_dedupe_and_stay_identical(
    tmp_path, solo_reference
):
    """Four copies of one circuit at once: every result bit-identical to
    solo, and the shared substrate serves duplicates without fresh
    synthesis (cache hits and/or in-flight joins)."""
    qasm = circuit_to_qasm(tfim(4, steps=2))
    want = _solo_signature(solo_reference["tfim"])
    with running_service(
        tmp_path / "ledger", max_concurrency=2
    ) as (service, client):
        with ThreadPoolExecutor(max_workers=4) as pool:
            payloads = list(
                pool.map(
                    lambda _: client.submit_and_wait(qasm, timeout=300.0),
                    range(4),
                )
            )
        for payload in payloads:
            assert _payload_signature(payload) == want
        reused = sum(
            p["cache_hits"] + p["dedup_joins"] for p in payloads
        )
        assert reused > 0, "duplicate jobs never shared substrate work"
        _assert_no_stranded(client)


# ----------------------------------------------------------------------
# Admission control and backpressure
# ----------------------------------------------------------------------
def test_overload_yields_structured_queue_full_rejections(tmp_path):
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_service(
        tmp_path / "ledger", capacity=1, max_concurrency=1
    ) as (service, client):
        accepted, rejections = [], []
        for _ in range(6):
            try:
                accepted.append(client.submit(qasm))
            except AdmissionRejected as exc:
                rejections.append(exc)
        assert rejections, "saturating a capacity-1 queue never rejected"
        for exc in rejections:
            assert exc.reason == "queue_full"
            assert exc.capacity == 1
            assert exc.queue_depth is not None
        # Accepted jobs all complete despite the overload.
        for job_id in accepted:
            reply = client.wait(job_id, timeout=300.0)
            assert reply["state"] == "done"
        status = client.status()
        assert status["rejected"]["queue_full"] == len(rejections)
        _assert_no_stranded(client)


def test_tenant_quota_isolates_noisy_tenants(tmp_path):
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_service(
        tmp_path / "ledger",
        capacity=8,
        max_concurrency=1,
        tenant_quotas={"noisy": 1},
    ) as (service, client):
        jobs = [client.submit(qasm, tenant="noisy")]  # occupies the slot
        jobs.append(client.submit(qasm, tenant="noisy"))  # fills the quota
        with pytest.raises(AdmissionRejected) as excinfo:
            client.submit(qasm, tenant="noisy")
        assert excinfo.value.reason == "tenant_quota"
        # A quiet tenant still gets in.
        jobs.append(client.submit(qasm, tenant="quiet"))
        for job_id in jobs:
            assert client.wait(job_id, timeout=300.0)["state"] == "done"
        _assert_no_stranded(client)


def test_invalid_requests_are_rejected_structurally(tmp_path):
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_service(tmp_path / "ledger") as (service, client):
        for bad_submit in (
            lambda: client.submit(""),
            lambda: client.submit(qasm, config={"no_such_field": 1}),
            lambda: client.submit(qasm, config={"workers": 8}),
            lambda: client.submit(qasm, deadline_seconds="soon"),
        ):
            with pytest.raises(AdmissionRejected) as excinfo:
                bad_submit()
            assert excinfo.value.reason == "invalid_request"
        # Unparseable QASM is admitted (content is inspected in the job,
        # not the accept path) but fails structurally, not silently.
        job_id = client.submit("OPENQASM 2.0;\nnot a gate;")
        reply = client.wait(job_id, timeout=60.0)
        assert reply["state"] == "failed"
        assert reply["error"]["kind"] == "invalid_request"


def test_wait_for_unknown_job_is_an_error(tmp_path):
    with running_service(tmp_path / "ledger") as (service, client):
        with pytest.raises(ServiceError, match="unknown job"):
            client.wait("job999999", timeout=1.0)


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
def test_expired_deadline_fails_structurally_without_compiling(tmp_path):
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_service(tmp_path / "ledger") as (service, client):
        job_id = client.submit(qasm, deadline_seconds=0.0)
        reply = client.wait(job_id, timeout=60.0)
        assert reply["state"] == "failed"
        assert reply["error"]["kind"] == "deadline_expired"


def test_deadline_lapsing_mid_synthesis_ends_the_job_expired(tmp_path):
    """Inline synthesis runs under the job deadline; a lapse there must
    not ship exact fallbacks as a ``done`` job."""
    injector = FaultInjector(
        specs=(FaultSpec("hang", None, 0),), hang_seconds=60.0
    )
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_service(
        tmp_path / "ledger", fault_injector=injector
    ) as (service, client):
        job_id = client.submit(qasm, deadline_seconds=0.5)
        reply = client.wait(job_id, timeout=60.0)
        assert reply["state"] == "failed"
        assert reply["error"]["kind"] == "deadline_expired"
        _assert_no_stranded(client)


def test_generous_deadline_does_not_perturb_results(
    tmp_path, solo_reference
):
    """The deadline contextvar wraps the pipeline; an ample budget must
    leave the selection untouched (deadline checks never touch RNGs)."""
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_service(tmp_path / "ledger") as (service, client):
        payload = client.submit_and_wait(
            qasm, deadline_seconds=600.0, timeout=300.0
        )
        assert _payload_signature(payload) == _solo_signature(
            solo_reference["tfim"]
        )


# ----------------------------------------------------------------------
# Circuit breaker and degradation
# ----------------------------------------------------------------------
def test_open_breaker_degrades_to_flagged_exact_reassembly(
    tmp_path, solo_reference
):
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_service(tmp_path / "ledger") as (service, client):
        for _ in range(service.breaker.failure_threshold):
            service.breaker.record_failure()
        assert service.breaker.state == "open"
        payload = client.submit_and_wait(qasm, timeout=120.0)
        # Flagged, correct, conservative: the exact reassembly carries
        # zero epsilon claims and the baseline CNOT count.
        assert payload["degraded"] is True
        assert payload["cnot_counts"] == [payload["original_cnot_count"]]
        assert payload["claims"][0]["total_epsilon"] == 0.0
        assert payload["bounds"] == [0.0]
        status = client.status()
        assert status["degraded_jobs"] == 1
        assert status["breaker"]["state"] == "open"
        # Recovery: a success closes the breaker and full fidelity is back.
        service.breaker.record_success()
        payload = client.submit_and_wait(qasm, timeout=300.0)
        assert payload["degraded"] is False
        assert _payload_signature(payload) == _solo_signature(
            solo_reference["tfim"]
        )
        _assert_no_stranded(client)


# ----------------------------------------------------------------------
# Warm restart (in-process variant; process-kill in test_service_kill)
# ----------------------------------------------------------------------
def test_warm_restart_answers_old_jobs_and_resumes_numbering(
    tmp_path, solo_reference
):
    qasm = circuit_to_qasm(tfim(4, steps=2))
    ledger_dir = tmp_path / "ledger"
    with running_service(ledger_dir) as (service, client):
        done_id = client.submit(qasm)
        assert client.wait(done_id, timeout=300.0)["state"] == "done"
    # New daemon, same ledger: terminal jobs stay answerable, fresh ids
    # never collide with recovered ones.
    with running_service(ledger_dir) as (service, client):
        reply = client.wait(done_id, timeout=10.0)
        assert reply["state"] == "done"
        assert _payload_signature(reply["result"]) == _solo_signature(
            solo_reference["tfim"]
        )
        new_id = client.submit(qasm)
        assert new_id != done_id
        assert client.wait(new_id, timeout=300.0)["state"] == "done"
        _assert_no_stranded(client)


def test_shutdown_drains_and_preserves_queued_jobs(tmp_path):
    """Jobs still queued at drain survive in the ledger as pending and
    complete after the next start — a graceful stop loses nothing."""
    qasm = circuit_to_qasm(tfim(4, steps=2))
    ledger_dir = tmp_path / "ledger"
    with running_service(
        ledger_dir, capacity=8, max_concurrency=1
    ) as (service, client):
        job_ids = [client.submit(qasm) for _ in range(3)]
        client.shutdown()  # drains: some jobs likely still queued
    with running_service(ledger_dir, max_concurrency=2) as (service, client):
        for job_id in job_ids:
            reply = client.wait(job_id, timeout=300.0)
            assert reply["state"] == "done", reply
        _assert_no_stranded(client)


# ----------------------------------------------------------------------
# Status endpoint
# ----------------------------------------------------------------------
def test_status_reports_health_and_accounting(tmp_path):
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_service(tmp_path / "ledger") as (service, client):
        status = client.status()
        assert status["healthy"] and status["ready"]
        assert status["queue_depth"] == 0
        assert status["capacity"] == 64
        assert status["breaker"]["state"] == "closed"
        assert status["ledger"]["corrupt_entries"] == 0
        client.submit_and_wait(qasm, tenant="alice", timeout=300.0)
        status = client.status()
        assert status["jobs_by_state"]["done"] == 1
        assert status["tenants"]["alice"]["dispatched"] == 1
        counters = status["metrics"]["counters"]
        assert counters["service.jobs_admitted"] == 1
        assert counters["service.jobs_done"] == 1
        histograms = status["metrics"]["histograms"]
        assert "service.latency_seconds.alice" in histograms
        _assert_no_stranded(client)
