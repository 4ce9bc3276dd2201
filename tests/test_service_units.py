"""Service-layer units: scheduler, ledger, protocol, client.

Everything here runs without a daemon: the scheduler is plain
lock-guarded state, the ledger is a directory, and the protocol
is pure serialization — which is exactly why they are separable from
the asyncio front end and testable at this granularity.  The client is
checked only where no daemon listens.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import threading
import time
import warnings

import pytest

from repro.core.quest import QuestConfig
from repro.exceptions import AdmissionRejected, ServiceError
from repro.service.client import ServiceClient
from repro.service.ledger import JobLedger
from repro.service.protocol import (
    JOB_DONE,
    JOB_PENDING,
    JOB_RUNNING,
    REJECT_INVALID_REQUEST,
    REJECT_QUEUE_FULL,
    REJECT_SHUTTING_DOWN,
    REJECT_TENANT_QUOTA,
    JobRecord,
    decode_message,
    encode_message,
    merge_config,
    rejection_from_message,
    rejection_to_message,
)
from repro.service.scheduler import FairScheduler
from repro.store.artifact import DEFAULT_GRACE_SECONDS, TMP_SUFFIX


def _job(job_id: str, tenant: str = "default") -> JobRecord:
    return JobRecord(job_id=job_id, tenant=tenant, qasm="OPENQASM 2.0;")


# ----------------------------------------------------------------------
# FairScheduler: bounded admission
# ----------------------------------------------------------------------
def test_admit_within_capacity_then_structured_queue_full():
    scheduler = FairScheduler(capacity=2)
    assert scheduler.admit(_job("a")) is None
    assert scheduler.admit(_job("b")) is None
    rejection = scheduler.admit(_job("c"))
    assert isinstance(rejection, AdmissionRejected)
    assert rejection.reason == REJECT_QUEUE_FULL
    assert rejection.queue_depth == 2
    assert rejection.capacity == 2
    assert scheduler.depth == 2


def test_tenant_quota_rejects_before_global_capacity():
    scheduler = FairScheduler(capacity=10, tenant_quotas={"noisy": 1})
    assert scheduler.admit(_job("a", "noisy")) is None
    rejection = scheduler.admit(_job("b", "noisy"))
    assert rejection.reason == REJECT_TENANT_QUOTA
    assert rejection.tenant == "noisy"
    # Other tenants are unaffected by the noisy tenant's quota.
    assert scheduler.admit(_job("c", "quiet")) is None
    assert scheduler.depths() == {"noisy": 1, "quiet": 1}


def test_draining_scheduler_rejects_everything():
    scheduler = FairScheduler(capacity=4)
    assert scheduler.admit(_job("a")) is None
    leftover = scheduler.drain()
    assert [j.job_id for j in leftover] == ["a"]
    assert scheduler.depth == 0
    assert scheduler.draining
    rejection = scheduler.admit(_job("b"))
    assert rejection.reason == REJECT_SHUTTING_DOWN


def test_scheduler_validation():
    with pytest.raises(ValueError, match="capacity"):
        FairScheduler(capacity=0)
    with pytest.raises(ValueError, match="weight"):
        FairScheduler(tenant_weights={"t": 0.0})


# ----------------------------------------------------------------------
# FairScheduler: weighted fairness
# ----------------------------------------------------------------------
def test_equal_weights_interleave_tenants():
    scheduler = FairScheduler(capacity=16)
    for i in range(3):
        scheduler.admit(_job(f"a{i}", "a"))
        scheduler.admit(_job(f"b{i}", "b"))
    order = [scheduler.next_job().tenant for _ in range(6)]
    assert order == ["a", "b", "a", "b", "a", "b"]
    assert scheduler.next_job() is None


def test_weighted_tenant_drains_proportionally():
    """Weight 2 vs. 1: the heavy tenant gets two dispatches per one."""
    scheduler = FairScheduler(capacity=32, tenant_weights={"heavy": 2.0})
    for i in range(6):
        scheduler.admit(_job(f"h{i}", "heavy"))
        scheduler.admit(_job(f"l{i}", "light"))
    first_six = [scheduler.next_job().tenant for _ in range(6)]
    assert first_six.count("heavy") == 4
    assert first_six.count("light") == 2


def test_idle_tenant_does_not_accumulate_credit():
    """A tenant that sat idle re-enters at the current virtual time, so
    its backlog interleaves fairly instead of monopolizing the head."""
    scheduler = FairScheduler(capacity=32)
    for i in range(4):
        scheduler.admit(_job(f"a{i}", "a"))
    # Drain two of a's jobs while b is idle.
    assert scheduler.next_job().tenant == "a"
    assert scheduler.next_job().tenant == "a"
    # b arrives late with a burst; it must not get all its jobs first.
    for i in range(4):
        scheduler.admit(_job(f"b{i}", "b"))
    order = [scheduler.next_job().tenant for _ in range(6)]
    assert order.count("a") == 2 and order.count("b") == 4
    assert set(order[:2]) == {"a", "b"}


def test_fifo_within_a_tenant():
    scheduler = FairScheduler(capacity=8)
    for i in range(3):
        scheduler.admit(_job(f"j{i}"))
    assert [scheduler.next_job().job_id for _ in range(3)] == [
        "j0", "j1", "j2",
    ]


def test_tenant_summary_reports_accounting():
    """Depth, weight and quota per tenant; the daemon's status adds the
    dispatch count from its registry."""
    scheduler = FairScheduler(capacity=8, tenant_weights={"a": 2.0})
    scheduler.admit(_job("x", "a"))
    assert scheduler.tenant_summary()["a"]["queued"] == 1
    assert scheduler.next_job().job_id == "x"
    summary = scheduler.tenant_summary()
    assert summary["a"] == {"queued": 0, "weight": 2.0, "quota": None}


# ----------------------------------------------------------------------
# JobLedger
# ----------------------------------------------------------------------
def test_ledger_round_trips_records(tmp_path):
    ledger = JobLedger(tmp_path / "ledger")
    record = JobRecord(
        job_id="job000001",
        tenant="t",
        qasm="OPENQASM 2.0;",
        config_overrides={"max_samples": 3},
        deadline_at=1234.5,
    )
    ledger.store(record)
    loaded = ledger.load("job000001")
    assert loaded == record
    assert ledger.load("missing") is None


def test_ledger_state_transitions_overwrite_atomically(tmp_path):
    ledger = JobLedger(tmp_path)
    record = JobRecord(job_id="j1", tenant="t", qasm="q")
    for state in (JOB_PENDING, JOB_RUNNING, JOB_DONE):
        record.state = state
        ledger.store(record)
    assert ledger.load("j1").state == JOB_DONE
    assert len(list(tmp_path.glob("job-*.json"))) == 1


def test_concurrent_stores_of_one_record_all_publish(tmp_path):
    # Threads of one process storing one job share its entry name: each
    # must write its own temp file, or one writer's rename moves another
    # writer's temp file from under it.
    ledger = JobLedger(tmp_path)
    record = JobRecord(job_id="storm", tenant="t", qasm="q")
    errors: list[BaseException] = []

    def writer():
        try:
            for _ in range(30):
                ledger.store(record)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert [path.name for path in tmp_path.iterdir()] == ["job-storm.json"]
    assert ledger.load("storm") == record


def test_ledger_load_all_orders_by_submission(tmp_path):
    ledger = JobLedger(tmp_path)
    for job_id, submitted in (("b", 2.0), ("a", 1.0), ("c", 3.0)):
        ledger.store(
            JobRecord(job_id=job_id, tenant="t", qasm="q", submitted_at=submitted)
        )
    assert [r.job_id for r in ledger.load_all()] == ["a", "b", "c"]


def test_ledger_quarantines_corrupt_entries(tmp_path, counters):
    ledger = JobLedger(tmp_path)
    ledger.store(JobRecord(job_id="good", tenant="t", qasm="q"))
    ledger.store(JobRecord(job_id="bad", tenant="t", qasm="q"))
    path = tmp_path / "job-bad.json"
    envelope = json.loads(path.read_text())
    envelope["record"] = envelope["record"].replace('"t"', '"x"', 1)
    path.write_text(json.dumps(envelope))
    survivors = ledger.load_all()
    assert [r.job_id for r in survivors] == ["good"]
    assert counters()["ledger.quarantined"] == 1
    assert list(tmp_path.glob("*.corrupt"))
    # The quarantined entry no longer shadows the id.
    assert ledger.load("bad") is None


def test_reopening_the_ledger_sweeps_only_aged_temp_files(tmp_path):
    # A daemon killed inside ``store`` leaves its temp file; a restarted
    # daemon reopens the directory and must remove it once it is older
    # than the grace window, but never a live writer's fresh one.
    ledger = JobLedger(tmp_path)
    ledger.store(JobRecord(job_id="kept", tenant="t", qasm="q"))
    before = ledger.load_all()
    aged = tmp_path / f".job-kept.json-aged{TMP_SUFFIX}"
    aged.write_bytes(b"torn")
    stale = time.time() - DEFAULT_GRACE_SECONDS - 5
    os.utime(aged, (stale, stale))
    fresh = tmp_path / f".job-kept.json-fresh{TMP_SUFFIX}"
    fresh.write_bytes(b"mid-store")

    reopened = JobLedger(tmp_path)
    assert not aged.exists()
    assert fresh.exists()
    assert reopened.load_all() == before


def test_ledger_rejects_pathological_job_ids(tmp_path):
    ledger = JobLedger(tmp_path)
    for bad in ("", "a/b", "a\\b", ".", "..", "x" * 129):
        with pytest.raises(ServiceError, match="invalid job id"):
            ledger.store(JobRecord(job_id=bad, tenant="t", qasm="q"))


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
def test_merge_config_applies_known_overrides():
    base = QuestConfig(max_samples=16)
    merged = merge_config(base, {"max_samples": 3, "threshold_per_block": 0.3})
    assert merged.max_samples == 3
    assert merged.threshold_per_block == 0.3
    assert base.max_samples == 16  # base untouched
    assert merge_config(base, None) is base


def test_merge_config_rejects_unknown_and_substrate_fields():
    base = QuestConfig()
    with pytest.raises(ServiceError, match="unknown QuestConfig field"):
        merge_config(base, {"no_such_knob": 1})
    with pytest.raises(ServiceError, match="substrate-owned"):
        merge_config(base, {"workers": 8})
    with pytest.raises(ServiceError, match="unknown QuestConfig field"):
        merge_config(base, {"checkpoint_dir": "/tmp/x"})
    # Removed knobs are unknown fields, not silently ignored ones.
    for removed in (
        "shm_transport",
        "noise_engine",
        "array_backend",
        "retry_backoff_seconds",
        "retry_budget_multiplier",
        "cache",
        "validate_candidates",
        "max_candidates_per_block",
        "certify_candidates",
        "annealing_maxiter",
    ):
        with pytest.raises(ServiceError, match="unknown QuestConfig field"):
            merge_config(base, {removed: None})
    with pytest.raises(ServiceError, match="must be an object"):
        merge_config(base, ["not", "a", "dict"])


@pytest.mark.parametrize(
    "message",
    [
        {"config": {"annealing_maxiter": 0}},
        {"config": {"max_samples": 0}},
        {"config": {"threshold_per_block": "x"}},
        {"config": {"threshold_per_block": -1.0}},
        {"config": {"max_block_qubits": 0}},
        {"config": {"sphere_variants_per_count": -3}},
        {"config": {"retry_attempts": 0}},
        {"config": {"seed": "abc"}},
        {"config": {"seed": 1.5}},
        {"config": {"seed": -1}},
        {"config": {"certify": "no"}},
        {"config": {"certify": True, "certify_max_exact_qubits": "x"}},
        {"deadline_seconds": float("nan")},
    ],
    ids=lambda message: json.dumps(message),
)
def test_submit_refuses_values_the_config_refuses_before_journaling(
    tmp_path, message
):
    # Each of these used to be admitted, journaled, and then synthesized
    # before failing, or (a NaN deadline) to run with no deadline at all.
    from repro.service.server import QuestService

    service = QuestService(tmp_path / "q.sock", tmp_path / "ledger")
    try:
        reply = service._handle_submit(
            {"type": "submit", "qasm": "OPENQASM 2.0;\nqreg q[2];\n", **message}
        )
    finally:
        service._job_executor.shutdown()
    assert reply["type"] == "rejected"
    assert reply["reason"] == REJECT_INVALID_REQUEST
    assert service.ledger.load_all() == []


def test_job_record_round_trip_and_validation():
    record = JobRecord(job_id="j", tenant="t", qasm="q", deadline_at=5.0)
    assert JobRecord.from_dict(record.to_dict()) == record
    with pytest.raises(ServiceError, match="unknown field"):
        JobRecord.from_dict({**record.to_dict(), "bogus": 1})
    with pytest.raises(ServiceError, match="unknown state"):
        JobRecord.from_dict({**record.to_dict(), "state": "limbo"})
    with pytest.raises(ServiceError, match="malformed"):
        JobRecord.from_dict({"job_id": "j"})


def test_deadline_remaining():
    record = JobRecord(job_id="j", tenant="t", qasm="q", deadline_at=100.0)
    assert record.deadline_remaining(40.0) == 60.0
    assert record.deadline_remaining(120.0) == -20.0
    unbounded = JobRecord(job_id="j", tenant="t", qasm="q")
    assert unbounded.deadline_remaining(40.0) is None


def test_rejection_round_trips_the_wire():
    rejection = AdmissionRejected(
        REJECT_QUEUE_FULL,
        "queue at capacity (4 jobs)",
        tenant="t",
        queue_depth=4,
        capacity=4,
    )
    rebuilt = rejection_from_message(rejection_to_message(rejection))
    assert rebuilt.reason == rejection.reason
    assert rebuilt.detail == rejection.detail
    assert rebuilt.tenant == "t"
    assert rebuilt.queue_depth == 4
    assert rebuilt.capacity == 4


def test_encode_decode_message_round_trip_and_garbage():
    frame = encode_message({"type": "status", "n": 1})
    assert frame.endswith(b"\n")
    assert decode_message(frame) == {"type": "status", "n": 1}
    with pytest.raises(ServiceError, match="undecodable"):
        decode_message(b"not json\n")
    with pytest.raises(ServiceError, match="'type'"):
        decode_message(b'{"no": "type"}\n')


def test_unreachable_daemon_leaks_no_socket(tmp_path):
    # tests/helpers.py::wait_until_ready polls through this path until
    # the daemon listens.
    client = ServiceClient(str(tmp_path / "missing.sock"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ServiceError, match="cannot reach daemon"):
            client.status()
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == []


@pytest.mark.parametrize("timeout", [-5.0, float("nan"), float("inf"), "abc"])
def test_client_refuses_a_bad_wait_timeout_before_sending(timeout, monkeypatch):
    # A -5 used to reach the daemon and fail as a connection error; NaN
    # and inf raised out of socket.settimeout, and submit_and_wait had
    # queued its job before the wait failed.
    client = ServiceClient("/nonexistent/q.sock")
    sent = []
    monkeypatch.setattr(
        client, "_request", lambda message, timeout: sent.append(message)
    )
    with pytest.raises(ServiceError, match="bad timeout"):
        client.wait("job000000", timeout=timeout)
    with pytest.raises(ServiceError, match="bad timeout"):
        client.submit_and_wait("OPENQASM 2.0;", timeout=timeout)
    assert sent == []
