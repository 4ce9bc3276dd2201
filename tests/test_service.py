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
import json
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro.algorithms import heisenberg, qft, tfim, xy_model
from repro.circuits import Circuit, circuit_to_qasm
from repro.cli import main
from repro.core.quest import QuestConfig, run_quest
from repro.exceptions import AdmissionRejected, ServiceError
from repro.resilience import FaultInjector, FaultSpec, parse_fault_spec
from repro.service import QuestService, ServiceClient
from repro.service.ledger import JobLedger
from repro.service.protocol import PROTOCOL_VERSION, JobRecord
from tests.helpers import wait_until_ready
from tests.planning_oracle import planned_entry_keys

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


def _config() -> QuestConfig:
    return QuestConfig(**FAST, workers=1)


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
        wait_until_ready(client, timeout=30.0)
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
    synthesis (cache hits and/or in-flight joins): the four jobs
    synthesize each distinct block key once between them."""
    circuit = tfim(4, steps=2)
    qasm = circuit_to_qasm(circuit)
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
        synthesized = sum(p["cache_misses"] - p["dedup_joins"] for p in payloads)
        assert synthesized == len(set(planned_entry_keys(circuit, _config())))
        _assert_no_stranded(client)


@pytest.mark.slow
def test_mixed_duplicate_burst_completes_and_shares_work(tmp_path):
    """Four clients submit a Trotter sweep three times over, twelve jobs
    against two dispatch slots: every job lands done and undegraded,
    every distinct block key is synthesized once in the whole burst,
    and no joiner strands."""
    sweep = [tfim(4, steps=2), tfim(4, steps=3), heisenberg(4, steps=2), xy_model(4, steps=2)]
    unique = set().union(*(planned_entry_keys(c, _config()) for c in sweep))
    workload = [circuit_to_qasm(circuit) for circuit in sweep * 3]
    with running_service(
        tmp_path / "ledger", max_concurrency=2
    ) as (service, client):
        with ThreadPoolExecutor(max_workers=4) as pool:
            payloads = list(
                pool.map(
                    lambda qasm: client.submit_and_wait(qasm, timeout=300.0),
                    workload,
                )
            )
        assert not any(payload["degraded"] for payload in payloads)
        assert sum(p["cache_hits"] + p["dedup_joins"] for p in payloads) > 0
        synthesized = sum(p["cache_misses"] - p["dedup_joins"] for p in payloads)
        assert synthesized == len(unique)
        assert client.status()["jobs_by_state"]["done"] == len(workload)
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


def test_status_counts_rejections_made_before_the_queue(tmp_path):
    """A submit without QASM and one with a bad deadline never reach the
    scheduler; both still count as ``invalid_request``."""
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_service(tmp_path / "ledger") as (service, client):
        for bad_submit in (
            lambda: client.submit(""),
            lambda: client.submit(qasm, deadline_seconds="soon"),
        ):
            with pytest.raises(AdmissionRejected):
                bad_submit()
        status = client.status()
        assert status["rejected"]["invalid_request"] == 2
        assert status["admitted"] == 0
        counters = status["metrics"]["counters"]
        assert counters["service.rejected_invalid_request"] == 2


def test_wait_for_unknown_job_is_an_error(tmp_path):
    with running_service(tmp_path / "ledger") as (service, client):
        with pytest.raises(ServiceError, match="unknown job"):
            client.wait("job999999", timeout=1.0)


@pytest.mark.parametrize("timeout", ["abc", float("nan"), -5.0])
def test_wait_refuses_a_bad_timeout_with_an_error_reply(tmp_path, timeout):
    # "abc" used to raise out of the connection handler, so the client
    # got no reply at all; NaN and -5 were accepted.
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_service(tmp_path / "ledger") as (service, client):
        job_id = client.submit(qasm, deadline_seconds=0.0)
        wait = {
            "type": "wait",
            "version": PROTOCOL_VERSION,
            "job_id": job_id,
            "timeout_seconds": timeout,
        }
        with pytest.raises(ServiceError, match="bad timeout_seconds"):
            client._request(wait, 10.0)
        assert client.wait(job_id, timeout=60.0)["state"] == "failed"


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
    injector = FaultInjector(specs=(FaultSpec("hang", None, 0),))
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_service(
        tmp_path / "ledger", fault_injector=injector
    ) as (service, client):
        job_id = client.submit(qasm, deadline_seconds=0.5)
        reply = client.wait(job_id, timeout=60.0)
        assert reply["state"] == "failed"
        assert reply["error"]["kind"] == "deadline_expired"
        # The failed job's own counts still reach the daemon's record.
        counters = client.status()["metrics"]["counters"]
        assert counters["faults.injected"] >= 1
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
# Degradation is per job
# ----------------------------------------------------------------------
def test_failed_jobs_leave_another_tenants_output_unchanged(
    tmp_path, solo_reference
):
    """A served job's output depends on that job alone: a run of failed
    jobs from one tenant leaves the next tenant's selection
    bit-identical to solo."""
    cnot_free = Circuit(2)
    cnot_free.h(0)
    with running_service(tmp_path / "ledger") as (service, client):
        for _ in range(3):
            job_id = client.submit(circuit_to_qasm(cnot_free), tenant="mallory")
            reply = client.wait(job_id, timeout=60.0)
            assert reply["state"] == "failed"
            assert reply["error"]["kind"] == "SelectionError"
        payload = client.submit_and_wait(
            circuit_to_qasm(tfim(4, steps=2)), tenant="alice", timeout=300.0
        )
        assert payload["degraded"] is False
        assert _payload_signature(payload) == _solo_signature(
            solo_reference["tfim"]
        )
        _assert_no_stranded(client)


def test_degraded_flags_the_jobs_own_exact_fallbacks(tmp_path):
    """Every attempt of every block fails, so every block ships its
    exact fallback: the job says ``degraded`` and equals a solo run
    under the same fault schedule."""
    schedule = "raise@*:0,raise@*:1"
    config = replace(_config(), retry_attempts=2)
    circuit = tfim(4, steps=2)
    solo = run_quest(
        circuit, config, fault_injector=parse_fault_spec(schedule)
    )
    assert solo.synthesis_fallbacks
    with running_service(
        tmp_path / "ledger",
        config=config,
        fault_injector=parse_fault_spec(schedule),
    ) as (service, client):
        payload = client.submit_and_wait(
            circuit_to_qasm(circuit), timeout=300.0
        )
        assert payload["degraded"] is True
        assert _payload_signature(payload) == _solo_signature(solo)
        assert client.status()["degraded_jobs"] == 1
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


def test_warm_restart_counts_its_admissions_and_rejections(tmp_path):
    """Re-admitting the ledger's unfinished jobs counts each verdict in
    the registry, which ``status`` reads."""
    ledger_dir = tmp_path / "ledger"
    ledger = JobLedger(ledger_dir)
    qasm = circuit_to_qasm(tfim(4, steps=2))
    for number in range(2):
        ledger.store(JobRecord(
            job_id=f"job{number:06d}",
            tenant="t",
            qasm=qasm,
            submitted_at=float(number),
        ))
    with running_service(
        ledger_dir, capacity=1, max_concurrency=1
    ) as (service, client):
        assert client.wait("job000000", timeout=300.0)["state"] == "done"
        reply = client.wait("job000001", timeout=10.0)
        assert reply["error"]["kind"] == "queue_full"
        status = client.status()
        assert status["admitted"] == 1
        assert status["rejected"] == {"queue_full": 1}
        assert status["tenants"]["t"]["dispatched"] == 1
        counters = status["metrics"]["counters"]
        assert counters["service.jobs_admitted"] == 1
        assert counters["service.rejected_queue_full"] == 1


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
        assert status["degraded_jobs"] == 0
        assert status["ledger"]["corrupt_entries"] == 0
        client.submit_and_wait(qasm, tenant="alice", timeout=300.0)
        status = client.status()
        assert status["jobs_by_state"]["done"] == 1
        assert status["admitted"] == 1
        assert status["tenants"]["alice"]["dispatched"] == 1
        counters = status["metrics"]["counters"]
        assert counters["service.jobs_admitted"] == 1
        assert counters["service.jobs_done"] == 1
        histograms = status["metrics"]["histograms"]
        assert "service.latency_seconds.alice" in histograms
        _assert_no_stranded(client)


def test_service_status_cli_reads_the_daemons_counters(tmp_path, capsys):
    """``service-status`` renders the status digest: a one-line summary
    plus one line per opened store namespace; ``--json`` prints the
    whole document; an unreachable daemon exits 2."""
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_service(tmp_path / "ledger") as (service, client):
        client.submit_and_wait(qasm, timeout=300.0)
        argv = ["service-status", "--socket", service.socket_path]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "ready=True" in text
        assert "degraded_jobs=0 stranded_joiners=0" in text
        (store_line,) = [
            line for line in text.splitlines() if "store default:" in line
        ]
        publishes = int(store_line.split("publishes=")[1].split()[0])
        assert publishes > 0

        assert main([*argv, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["store"]["namespaces"]["default"]["publishes"] > 0
    assert main(argv) == 2
    assert "unreachable" in capsys.readouterr().err


# ----------------------------------------------------------------------
# submit writes through the CLI's one writer
# ----------------------------------------------------------------------
def test_submit_writes_the_tree_of_a_solo_run(tmp_path, capsys):
    """``submit`` writes the daemon's payload through the writer
    ``repro`` uses: the ``<stem>`` tree equals a solo run's byte for
    byte, and each approximation's line carries its bound."""
    qasm_path = tmp_path / "tfim.qasm"
    qasm_path.write_text(circuit_to_qasm(tfim(3, steps=1)))
    flags = ["--threshold", "0.3", "--block-qubits", "2", "--max-samples", "2"]
    assert main([str(qasm_path), "--out-dir", str(tmp_path / "solo"), *flags]) == 0
    capsys.readouterr()
    config = QuestConfig(
        seed=0, max_samples=2, max_block_qubits=2, threshold_per_block=0.3
    )
    with running_service(tmp_path / "ledger", config=config) as (service, client):
        argv = ["submit", str(qasm_path), "--socket", service.socket_path]
        assert main([*argv, "--out-dir", str(tmp_path / "served")]) == 0
    solo, served = tmp_path / "solo", tmp_path / "served" / "tfim"
    names = sorted(path.name for path in solo.iterdir())
    assert "approx_00.claims.json" in names
    assert sorted(path.name for path in served.iterdir()) == names
    for name in names:
        assert (served / name).read_bytes() == (solo / name).read_bytes()
    lines = [
        line for line in capsys.readouterr().out.splitlines()
        if "approx_" in line
    ]
    assert lines and all("(bound " in line for line in lines)
