"""Synchronous client for the compilation daemon.

One :class:`ServiceClient` call = one short-lived Unix-socket
connection + one request/response exchange.  Deliberately synchronous
(plain ``socket``): the callers are CLI subcommands, tests, and
benchmark threads, none of which live inside an event loop — and a
sync client exercises the daemon exactly the way a foreign-language
client would.

Admission rejections come back as the same structured
:class:`~repro.exceptions.AdmissionRejected` the server's scheduler
produced, so a caller's backoff logic works identically in-process and
over the wire.
"""

from __future__ import annotations

import socket

from repro.exceptions import AdmissionRejected, ServiceError
from repro.service.protocol import (
    JOB_FAILED,
    PROTOCOL_VERSION,
    TERMINAL_STATES,
    decode_message,
    encode_message,
    rejection_from_message,
)

#: Seconds a connection to the daemon may take to open.
CONNECT_TIMEOUT = 10.0
#: Seconds the daemon has to answer a submit (it parses and journals the
#: job first), and a status or shutdown request.
SUBMIT_TIMEOUT = 30.0
REQUEST_TIMEOUT = 10.0


class ServiceClient:
    """Talks to one daemon at ``socket_path``."""

    def __init__(self, socket_path: str) -> None:
        self.socket_path = str(socket_path)

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _request(self, message: dict, timeout: float | None) -> dict:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(CONNECT_TIMEOUT)
            sock.connect(self.socket_path)
        except OSError as exc:
            sock.close()
            raise ServiceError(
                f"cannot reach daemon at {self.socket_path}: {exc}"
            ) from exc
        try:
            sock.settimeout(timeout)
            sock.sendall(encode_message(message))
            reply = self._read_line(sock)
        except socket.timeout as exc:
            raise ServiceError(
                f"daemon did not reply within {timeout}s"
            ) from exc
        except OSError as exc:
            raise ServiceError(f"connection to daemon failed: {exc}") from exc
        finally:
            sock.close()
        response = decode_message(reply)
        if response["type"] == "rejected":
            raise rejection_from_message(response)
        if response["type"] == "error":
            raise ServiceError(
                str(response.get("message", "daemon reported an error"))
            )
        return response

    @staticmethod
    def _read_line(sock: socket.socket) -> bytes:
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
        line = b"".join(chunks)
        if not line:
            raise ServiceError("daemon closed the connection mid-reply")
        return line

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def submit(
        self,
        qasm: str,
        *,
        config: dict | None = None,
        tenant: str = "default",
        namespace: str | None = None,
        deadline_seconds: float | None = None,
    ) -> str:
        """Submit one compile job; returns its job id.

        ``namespace`` pins the artifact-store namespace the job's cache
        traffic is scoped to (default: derived from ``tenant``).

        Raises :class:`AdmissionRejected` (structured) when the daemon
        refuses the job, :class:`ServiceError` on transport problems.
        """
        message = {
            "type": "submit",
            "version": PROTOCOL_VERSION,
            "qasm": qasm,
            "config": config or {},
            "tenant": tenant,
            "deadline_seconds": deadline_seconds,
        }
        if namespace is not None:
            message["namespace"] = namespace
        response = self._request(message, SUBMIT_TIMEOUT)
        if response["type"] != "accepted":
            raise ServiceError(
                f"unexpected submit reply type {response['type']!r}"
            )
        return str(response["job_id"])

    def wait(self, job_id: str, *, timeout: float | None = None) -> dict:
        """Block until ``job_id`` is terminal; returns the result message.

        The reply carries ``state`` / ``result`` / ``error`` /
        ``degraded`` (true when at least one block of the result shipped
        its exact fallback); with a timeout, a non-terminal job comes
        back with ``timed_out: true`` instead of raising.
        """
        wire_timeout = None if timeout is None else timeout + 5.0
        return self._request(
            {
                "type": "wait",
                "version": PROTOCOL_VERSION,
                "job_id": job_id,
                "timeout_seconds": timeout,
            },
            wire_timeout,
        )

    def status(self) -> dict:
        """Health/readiness/queue-depth/metrics snapshot."""
        return self._request(
            {"type": "status", "version": PROTOCOL_VERSION}, REQUEST_TIMEOUT
        )

    def shutdown(self) -> None:
        """Ask the daemon to drain gracefully."""
        self._request(
            {"type": "shutdown", "version": PROTOCOL_VERSION}, REQUEST_TIMEOUT
        )

    def submit_and_wait(
        self,
        qasm: str,
        *,
        config: dict | None = None,
        tenant: str = "default",
        namespace: str | None = None,
        deadline_seconds: float | None = None,
        timeout: float | None = None,
    ) -> dict:
        """Submit + wait; returns the compile payload dict.

        Raises :class:`ServiceError` if the job fails (the structured
        error's kind/message are folded into the exception text) or if
        it is still running when ``timeout`` lapses.
        """
        job_id = self.submit(
            qasm,
            config=config,
            tenant=tenant,
            namespace=namespace,
            deadline_seconds=deadline_seconds,
        )
        reply = self.wait(job_id, timeout=timeout)
        state = reply.get("state")
        if state not in TERMINAL_STATES:
            raise ServiceError(
                f"job {job_id} still {state!r} after {timeout}s"
            )
        if state == JOB_FAILED:
            error = reply.get("error") or {}
            raise ServiceError(
                f"job {job_id} failed "
                f"({error.get('kind', 'unknown')}): "
                f"{error.get('message', 'no detail')}"
            )
        payload = reply.get("result") or {}
        payload["job_id"] = job_id
        payload["degraded"] = bool(reply.get("degraded"))
        return payload


__all__ = ["ServiceClient", "AdmissionRejected"]
