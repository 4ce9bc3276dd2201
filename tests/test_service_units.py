"""Service-layer units: scheduler, breaker, ledger, protocol.

Everything here runs without a daemon: the scheduler and breaker are
plain lock-guarded state, the ledger is a directory, and the protocol
is pure serialization — which is exactly why they are separable from
the asyncio front end and testable at this granularity.
"""

from __future__ import annotations

import json

import pytest

from repro.core.quest import QuestConfig
from repro.exceptions import AdmissionRejected, ServiceError
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.service.ledger import JobLedger
from repro.service.protocol import (
    JOB_DONE,
    JOB_PENDING,
    JOB_RUNNING,
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
    assert scheduler.rejected == {REJECT_QUEUE_FULL: 1}


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
    with pytest.raises(ValueError, match="default_weight"):
        FairScheduler(default_weight=-1.0)


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
    scheduler = FairScheduler(capacity=8, tenant_weights={"a": 2.0})
    scheduler.admit(_job("x", "a"))
    scheduler.next_job()
    summary = scheduler.tenant_summary()
    assert summary["a"]["dispatched"] == 1
    assert summary["a"]["queued"] == 0
    assert summary["a"]["weight"] == 2.0


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_breaker_opens_after_threshold_consecutive_failures():
    clock = _FakeClock()
    breaker = CircuitBreaker(3, 10.0, clock=clock)
    assert breaker.state == CLOSED
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED
    assert breaker.allow_full_path()
    breaker.record_failure()
    assert breaker.state == OPEN
    assert not breaker.allow_full_path()
    assert breaker.times_opened == 1


def test_breaker_success_resets_the_consecutive_count():
    breaker = CircuitBreaker(2, 10.0, clock=_FakeClock())
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == CLOSED  # never two *consecutive* failures


def test_breaker_half_open_admits_exactly_one_probe():
    clock = _FakeClock()
    breaker = CircuitBreaker(1, 10.0, clock=clock)
    breaker.record_failure()
    assert breaker.state == OPEN
    clock.now = 10.0
    assert breaker.state == HALF_OPEN
    assert breaker.allow_full_path()       # the probe
    assert not breaker.allow_full_path()   # everyone else stays degraded
    breaker.record_success()
    assert breaker.state == CLOSED
    assert breaker.allow_full_path()


def test_breaker_failed_probe_reopens_for_another_cooldown():
    clock = _FakeClock()
    breaker = CircuitBreaker(1, 10.0, clock=clock)
    breaker.record_failure()
    clock.now = 10.0
    assert breaker.allow_full_path()
    breaker.record_failure()
    assert breaker.state == OPEN
    clock.now = 19.0
    assert breaker.state == OPEN  # the cooldown restarted at t=10
    clock.now = 20.0
    assert breaker.state == HALF_OPEN
    assert breaker.times_opened == 2


def test_breaker_validation_and_snapshot():
    with pytest.raises(ValueError, match="failure_threshold"):
        CircuitBreaker(0)
    with pytest.raises(ValueError, match="cooldown_seconds"):
        CircuitBreaker(1, 0.0)
    snapshot = CircuitBreaker(3, 5.0).snapshot()
    assert snapshot["state"] == CLOSED
    assert snapshot["failure_threshold"] == 3
    assert snapshot["cooldown_seconds"] == 5.0


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


def test_ledger_load_all_orders_by_submission(tmp_path):
    ledger = JobLedger(tmp_path)
    for job_id, submitted in (("b", 2.0), ("a", 1.0), ("c", 3.0)):
        ledger.store(
            JobRecord(job_id=job_id, tenant="t", qasm="q", submitted_at=submitted)
        )
    assert [r.job_id for r in ledger.load_all()] == ["a", "b", "c"]


def test_ledger_quarantines_corrupt_entries(tmp_path):
    ledger = JobLedger(tmp_path)
    ledger.store(JobRecord(job_id="good", tenant="t", qasm="q"))
    ledger.store(JobRecord(job_id="bad", tenant="t", qasm="q"))
    path = tmp_path / "job-bad.json"
    envelope = json.loads(path.read_text())
    envelope["record"] = envelope["record"].replace('"t"', '"x"', 1)
    path.write_text(json.dumps(envelope))
    survivors = ledger.load_all()
    assert [r.job_id for r in survivors] == ["good"]
    assert ledger.corrupt_entries == 1
    assert list(tmp_path.glob("*.corrupt"))
    # The quarantined entry no longer shadows the id.
    assert ledger.load("bad") is None


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
    ):
        with pytest.raises(ServiceError, match="unknown QuestConfig field"):
            merge_config(base, {removed: None})
    with pytest.raises(ServiceError, match="must be an object"):
        merge_config(base, ["not", "a", "dict"])


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
