"""Crash-safe job ledger: the daemon's durable source of truth.

Every admitted job gets one file, ``job-<id>.json``, holding a
checksummed envelope around the JSON :class:`~repro.service.protocol.
JobRecord`, published the way the artifact store publishes an entry
(:func:`repro.store.artifact.write_atomically`): write a temp file
unique to the writer, flush, ``fsync``, ``rename``, then fsync the
directory.  A SIGKILL at any instant leaves
either the previous record or the new one, never a torn file under the
final name, plus at most the writer's temp file, which opening the
ledger deletes once it is older than the store's grace window; an entry
that *does* fail its checksum (bit rot, a partial copy) is quarantined
— counted as ``ledger.quarantined`` in the ambient record,
renamed aside, ignored — never trusted.

The ledger is what makes the daemon warm-restartable:

* every state transition (pending -> running -> done/failed) rewrites
  the record, so the on-disk state trails the in-memory state by at
  most one transition;
* :meth:`JobLedger.load` returns every readable record — the restarted
  daemon re-admits ``pending``/``running`` jobs and keeps terminal ones
  answerable to late ``wait`` calls.

The ledger keeps job records only.  A job killed mid-run resumes from
the blocks it published to the artifact store, not from the ledger.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.exceptions import ServiceError
from repro.observability import get_logger, get_record
from repro.service.protocol import JobRecord
from repro.store.artifact import sweep_orphans, write_atomically

#: Bump when the envelope layout changes; old entries are quarantined.
LEDGER_VERSION = 1

_ENTRY_PREFIX = "job-"
_ENTRY_SUFFIX = ".json"


def _job_id_component(job_id: str) -> str:
    """Validate a job id for use as a filename component."""
    if (
        not job_id
        or len(job_id) > 128
        or any(c in job_id for c in "/\\\0")
        or job_id in (".", "..")
    ):
        raise ServiceError(f"invalid job id {job_id!r}")
    return job_id


class JobLedger:
    """Atomically journaled :class:`JobRecord` entries under one dir."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        # A daemon killed mid-``store`` leaves its temp file behind.
        sweep_orphans([self._dir])

    @property
    def directory(self) -> Path:
        return self._dir

    def _entry_path(self, job_id: str) -> Path:
        return self._dir / f"{_ENTRY_PREFIX}{_job_id_component(job_id)}{_ENTRY_SUFFIX}"

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def store(self, record: JobRecord) -> None:
        """Atomically publish ``record`` as its job's current state."""
        payload = json.dumps(
            record.to_dict(), separators=(",", ":"), sort_keys=True
        ).encode()
        envelope = {
            "version": LEDGER_VERSION,
            "job_id": record.job_id,
            "checksum": hashlib.sha256(payload).hexdigest(),
            "record": payload.decode(),
        }
        write_atomically(
            self._entry_path(record.job_id),
            json.dumps(envelope, indent=1).encode(),
        )
        get_record().inc("ledger.stores")

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _load_entry(self, path: Path) -> JobRecord | None:
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            envelope = json.loads(raw)
            if not isinstance(envelope, dict):
                raise ServiceError("ledger envelope is not an object")
            if envelope.get("version") != LEDGER_VERSION:
                raise ServiceError(
                    f"ledger version {envelope.get('version')!r} != {LEDGER_VERSION}"
                )
            payload = str(envelope.get("record", "")).encode()
            if hashlib.sha256(payload).hexdigest() != envelope.get("checksum"):
                raise ServiceError("ledger entry checksum mismatch")
            record = JobRecord.from_dict(json.loads(payload))
            expected = path.name[len(_ENTRY_PREFIX) : -len(_ENTRY_SUFFIX)]
            if record.job_id != expected:
                raise ServiceError(
                    f"ledger entry {path.name} holds job {record.job_id!r}"
                )
        except (ValueError, ServiceError) as exc:
            self._quarantine(path, exc)
            return None
        return record

    def _quarantine(self, path: Path, exc: Exception) -> None:
        """Count (``ledger.quarantined``) and set aside a corrupt entry so
        restart can proceed."""
        get_logger("service.ledger").warning(
            f"quarantining corrupt ledger entry {path.name}: {exc}"
        )
        get_record().inc("ledger.quarantined")
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            path.unlink(missing_ok=True)

    def load(self, job_id: str) -> JobRecord | None:
        """Load one job's record; None = missing or quarantined."""
        return self._load_entry(self._entry_path(job_id))

    def load_all(self) -> list[JobRecord]:
        """Every readable record, ordered by submission time.

        Submission order matters on warm restart: re-admitting in the
        original order keeps the scheduler's fairness accounting close
        to what an uninterrupted daemon would have done.
        """
        records = []
        for path in sorted(self._dir.glob(f"{_ENTRY_PREFIX}*{_ENTRY_SUFFIX}")):
            record = self._load_entry(path)
            if record is not None:
                records.append(record)
        records.sort(key=lambda record: (record.submitted_at, record.job_id))
        return records
