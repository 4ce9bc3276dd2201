"""Multi-replica e2e: N daemons sharing one sharded artifact store.

Two :class:`~repro.service.server.QuestService` replicas are booted
over the *same* ``--store-dir`` root (separate sockets, separate
ledgers — exactly the N-replica deployment the store exists for) and
driven with a duplicate-heavy workload.  The contracts:

* every replica's results are bit-identical to solo ``run_quest``;
* the second replica serves entries the first one published —
  cross-replica store ``hits > 0`` — instead of re-synthesizing;
* per-tenant namespaces stay isolated over the shared root, and the
  per-namespace counters surface in ``service-status``.
"""

from __future__ import annotations

import asyncio
import contextlib
import tempfile
import threading
from pathlib import Path

import pytest

from repro.algorithms import tfim
from repro.circuits import circuit_to_qasm
from repro.core.quest import QuestConfig, run_quest
from repro.exceptions import AdmissionRejected, ServiceError
from repro.service import QuestService, ServiceClient
from repro.store import ENTRY_SUFFIX
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


def _config(store_root) -> QuestConfig:
    return QuestConfig(
        **FAST, workers=1, store_dir=str(store_root)
    )


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
def running_replica(ledger_dir, store_root):
    """One daemon replica over the shared ``store_root``, its socket in
    a short /tmp directory removed on exit."""
    with tempfile.TemporaryDirectory(dir="/tmp", prefix="qrep-") as sock_dir:
        socket_path = str(Path(sock_dir) / "s.sock")
        service = QuestService(socket_path, str(ledger_dir), _config(store_root))
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
            assert not thread.is_alive(), "replica failed to shut down cleanly"


@pytest.fixture(scope="module")
def solo_reference():
    # No store: the baseline the replicas must match bit-for-bit.
    return run_quest(tfim(4, steps=2), QuestConfig(**FAST, workers=1))


def _default_ns(status: dict) -> dict:
    return status["store"]["namespaces"]["default"]


def test_replicas_share_store_and_stay_bit_identical(
    tmp_path, solo_reference
):
    """The acceptance run: two live replicas, one store root.

    Replica A compiles first (publishing every block pool); replica B
    then compiles the same circuit and must (a) hit the store for
    entries it never computed and (b) produce the same bits as solo.
    """
    store_root = tmp_path / "store"
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_replica(tmp_path / "ledger-a", store_root) as (_, a):
        with running_replica(tmp_path / "ledger-b", store_root) as (_, b):
            payload_a = a.submit_and_wait(qasm, timeout=300.0)
            assert _payload_signature(payload_a) == _solo_signature(
                solo_reference
            )
            status_a = a.status()
            assert str(store_root) == status_a["store"]["root"]
            assert _default_ns(status_a)["publishes"] > 0

            payload_b = b.submit_and_wait(qasm, timeout=300.0)
            assert _payload_signature(payload_b) == _solo_signature(
                solo_reference
            )
            status_b = b.status()
            # B never compiled this circuit before: every one of its
            # store hits is an entry replica A published.
            assert _default_ns(status_b)["hits"] > 0
            counters_b = status_b["metrics"]["counters"]
            assert counters_b.get("cache.corrupt_entries", 0) == 0

    # The shared root holds sharded entries: <root>/<ns>/<shard>/<key>.
    entries = list(store_root.rglob(f"*{ENTRY_SUFFIX}"))
    assert entries
    for entry in entries:
        shard = entry.parent.name
        assert entry.parent.parent.parent == store_root
        assert len(shard) == 2 and entry.name.startswith(shard)


def test_store_survives_replica_restart(tmp_path, solo_reference):
    """A fresh replica over a used store serves from it immediately."""
    store_root = tmp_path / "store"
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_replica(tmp_path / "ledger-a", store_root) as (_, a):
        a.submit_and_wait(qasm, timeout=300.0)
    with running_replica(tmp_path / "ledger-b", store_root) as (_, b):
        payload = b.submit_and_wait(qasm, timeout=300.0)
        assert _payload_signature(payload) == _solo_signature(
            solo_reference
        )
        assert _default_ns(b.status())["hits"] > 0


def test_tenant_namespaces_isolated_over_shared_root(
    tmp_path, solo_reference
):
    """Tenants never observe each other's artifacts, and the status
    document reports each tenant's counters separately."""
    store_root = tmp_path / "store"
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_replica(tmp_path / "ledger", store_root) as (_, client):
        for tenant in ("alice", "bob"):
            payload = client.submit_and_wait(
                qasm, tenant=tenant, timeout=300.0
            )
            assert _payload_signature(payload) == _solo_signature(
                solo_reference
            )
        namespaces = client.status()["store"]["namespaces"]
        assert set(namespaces) >= {"alice", "bob"}
        # Alice went first and published; bob's namespace starts empty,
        # so bob re-published everything rather than reading alice's.
        assert namespaces["alice"]["publishes"] > 0
        assert namespaces["bob"]["publishes"] > 0
        assert namespaces["bob"]["hits"] == 0
        assert (store_root / "alice").is_dir()
        assert (store_root / "bob").is_dir()


def test_explicit_namespace_overrides_tenant_derivation(tmp_path):
    store_root = tmp_path / "store"
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_replica(tmp_path / "ledger", store_root) as (_, client):
        client.submit_and_wait(
            qasm, tenant="team/blue", namespace="shared-pool", timeout=300.0
        )
        namespaces = client.status()["store"]["namespaces"]
        assert "shared-pool" in namespaces
        assert "team_blue" not in namespaces
        assert (store_root / "shared-pool").is_dir()


def test_tenant_derived_namespace_is_sanitized(tmp_path):
    """A tenant name that is not filesystem-safe lands in a sanitized
    namespace instead of escaping the store root."""
    store_root = tmp_path / "store"
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_replica(tmp_path / "ledger", store_root) as (_, client):
        client.submit_and_wait(qasm, tenant="team/blue", timeout=300.0)
        assert "team_blue" in client.status()["store"]["namespaces"]
        assert (store_root / "team_blue").is_dir()
        assert not (store_root / "team").exists()


def test_invalid_namespace_rejected_at_admission(tmp_path):
    store_root = tmp_path / "store"
    qasm = circuit_to_qasm(tfim(4, steps=2))
    with running_replica(tmp_path / "ledger", store_root) as (_, client):
        with pytest.raises(AdmissionRejected) as excinfo:
            client.submit(qasm, namespace="../evil")
        assert excinfo.value.reason == "invalid_request"
        # The daemon is still healthy afterwards.
        assert client.status()["ready"]
