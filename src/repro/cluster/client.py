"""Client for a cluster coordinator (used by the CLI and the smoke test).

One connection, strict request/response.  Results come back as the
canonical JSON dicts of :mod:`repro.cluster.protocol`, so comparing a
cluster scan against a local :class:`~repro.core.scan.DatabaseScanner`
run is a plain ``==`` on shortest-repr-float structures.
"""

from __future__ import annotations

import time
from typing import Any

from ..service.protocol import JobSpec
from . import protocol
from .transport import Channel, connect

__all__ = ["ClusterClient", "ClusterError"]


class ClusterError(RuntimeError):
    """The coordinator rejected a request or a job failed."""


class ClusterClient:
    """Thin request/response wrapper over one coordinator connection."""

    def __init__(
        self, host: str, port: int, *, timeout: float = 30.0, attempts: int = 20
    ) -> None:
        self._channel: Channel = connect(
            host, port, timeout=timeout, attempts=attempts
        )
        self._channel.send({"kind": protocol.HELLO, "role": "client"})
        welcome = self._channel.recv(timeout=timeout)
        if welcome.get("kind") != protocol.WELCOME:
            raise ClusterError(f"expected welcome, got {welcome!r}")

    def close(self) -> None:
        self._channel.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, frame: dict, timeout: float = 60.0) -> dict:
        self._channel.send(frame)
        reply = self._channel.recv(timeout=timeout)
        if reply.get("kind") == protocol.ERROR:
            raise ClusterError(reply.get("error", "coordinator error"))
        if reply.get("kind") != protocol.OK:
            # Every non-error coordinator reply is an ``ok`` frame; a
            # stray kind here means the request/response pairing slipped.
            raise ClusterError(f"unexpected reply kind {reply.get('kind')!r}")
        return reply

    # -- operations ------------------------------------------------------

    def submit_scan(
        self,
        spec: JobSpec,
        records: list[dict[str, str]],
        options: dict[str, Any] | None = None,
    ) -> str:
        """Submit a sharded scan; returns the cluster job id."""
        reply = self._request({
            "kind": protocol.SUBMIT_SCAN,
            "spec": spec.to_dict(),
            "records": records,
            "options": dict(options or {}),
        })
        return reply["job_id"]

    def job_status(self, job_id: str, wait: float = 0.0) -> dict[str, Any]:
        """A job's status; with ``wait`` > 0 the coordinator answers when
        the job finishes or ``wait`` seconds pass, whichever is first
        (at most :data:`~repro.cluster.protocol.JOB_STATUS_WAIT_MAX`)."""
        frame: dict[str, Any] = {"kind": protocol.JOB_STATUS, "job_id": job_id}
        if wait > 0:
            frame["wait"] = wait
        return self._request(frame)["status"]

    def wait_scan(
        self, job_id: str, *, timeout: float = 300.0, poll: float = 0.1
    ) -> list[dict[str, Any]]:
        """Block until a scan job finishes; returns its merged reports.

        Each status request waits on the coordinator for the job's end,
        bounded by what is left of ``timeout``.  ``poll`` is still
        accepted from callers written for the polling client; nothing
        sleeps, so it paces nothing.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.job_status(
                job_id, wait=max(0.0, deadline - time.monotonic())
            )
            if status["state"] == "done":
                return status["reports"]
            if status["state"] == "failed":
                raise ClusterError(
                    f"cluster job {job_id} failed: {status.get('error')}"
                )
            if time.monotonic() >= deadline:
                raise TimeoutError(f"cluster job {job_id} still running")

    def scan(
        self,
        spec: JobSpec,
        records: list[dict[str, str]],
        options: dict[str, Any] | None = None,
        *,
        timeout: float = 300.0,
    ) -> list[dict[str, Any]]:
        """Submit a scan and block for its merged reports."""
        return self.wait_scan(
            self.submit_scan(spec, records, options), timeout=timeout
        )

    def stats(self) -> dict[str, Any]:
        return self._request({"kind": protocol.STATS})["stats"]

    def metrics(self) -> str:
        return self._request({"kind": protocol.METRICS})["text"]
