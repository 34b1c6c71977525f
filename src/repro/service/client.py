"""urllib client for the repro service (``repro submit/status/fetch``).

Stdlib-only, mirroring the server's endpoints one method each.  HTTP
errors surface as :class:`ServiceError` (with the server's JSON error
message when present); a ``429`` becomes :class:`ClientBacklogFull`
carrying the server's ``Retry-After`` hint, and a ``401``/``403``
becomes :class:`ServiceAuthError` so callers can tell "fix your key"
apart from "try again later".

``submit`` honors that hint: shed submissions are retried with
jittered exponential backoff — ``Retry-After`` is the floor of each
delay, the exponential curve the ceiling, jitter desynchronizes a
herd of clients hammering one coordinator — up to a bounded number of
attempts, after which :class:`ClientBacklogFull` propagates.  Only 429
retries; any other error is not load shedding and fails fast.

**Authentication.**  Pass ``api_key`` (or set ``REPRO_API_KEY`` in the
environment) and every request carries ``Authorization: Bearer
<key>``.  ``submit`` additionally accepts an ``idempotency_key``,
sent as the ``Idempotency-Key`` header: retried duplicates replay the
original job instead of admitting a second one.
"""

from __future__ import annotations

import json
import os
import random
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Iterator

from .protocol import MAX_WAIT_S

__all__ = [
    "ServiceError",
    "ServiceAuthError",
    "ClientBacklogFull",
    "ServiceClient",
]


class ServiceError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"HTTP {code}: {message}")
        self.code = code
        self.message = message


class ServiceAuthError(ServiceError):
    """HTTP 401/403 — missing/unknown API key or disabled tenant."""


class ClientBacklogFull(ServiceError):
    """HTTP 429 — quota or backlog load shedding; retry later."""

    def __init__(self, message: str, retry_after: int) -> None:
        super().__init__(429, message)
        self.retry_after = retry_after


class ServiceClient:
    """Thin JSON client bound to one service base URL.

    ``submit_attempts``/``backoff_base``/``backoff_cap`` tune the 429
    retry loop; ``rng`` and ``sleep`` are injectable so tests can pin
    the jitter and skip real waiting.
    """

    def __init__(
        self,
        base_url: str = "http://127.0.0.1:8765",
        *,
        timeout: float = 30.0,
        api_key: str | None = None,
        submit_attempts: int = 4,
        backoff_base: float = 0.25,
        backoff_cap: float = 30.0,
        rng: random.Random | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        # Explicit key wins; REPRO_API_KEY covers scripted use where
        # threading a flag through every call site is noise.
        self.api_key = api_key if api_key is not None else os.environ.get(
            "REPRO_API_KEY"
        )
        if submit_attempts < 1:
            raise ValueError("submit_attempts must be >= 1")
        self.submit_attempts = submit_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._rng = rng or random.Random()
        self._sleep = sleep

    # -- plumbing --------------------------------------------------------

    def _headers(self, extra: dict[str, str] | None = None) -> dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        if extra:
            headers.update(extra)
        return headers

    def _request(
        self,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        data = None
        all_headers = self._headers(headers)
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            all_headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, headers=all_headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout or self.timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raise self._to_error(exc) from None

    @staticmethod
    def _to_error(exc: urllib.error.HTTPError) -> ServiceError:
        try:
            message = json.loads(exc.read().decode("utf-8")).get("error", "")
        except ValueError:
            message = exc.reason or ""
        if exc.code == 429:
            retry_after = int(exc.headers.get("Retry-After") or 1)
            return ClientBacklogFull(message, retry_after)
        if exc.code in (401, 403):
            return ServiceAuthError(exc.code, message)
        return ServiceError(exc.code, message)

    # -- endpoints -------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")

    def submit(
        self, spec: dict[str, Any], *, idempotency_key: str | None = None
    ) -> dict[str, Any]:
        """POST /jobs; the returned record includes ``from_cache``.

        Retries shed (429) submissions with jittered exponential
        backoff, honoring the server's ``Retry-After`` as the minimum
        delay; after ``submit_attempts`` tries the final
        :class:`ClientBacklogFull` propagates.  With an
        ``idempotency_key`` the retries are double-submit-safe: a
        duplicate that reaches the server replays the original job
        (``replayed: true`` in the response).
        """
        headers = {"Idempotency-Key": idempotency_key} if idempotency_key else None
        for attempt in range(self.submit_attempts):
            try:
                return self._request("POST", "/jobs", spec, headers)
            except ClientBacklogFull as exc:
                if attempt + 1 >= self.submit_attempts:
                    raise
                self._sleep(self._backoff_delay(attempt, exc.retry_after))
        raise AssertionError("unreachable")  # pragma: no cover

    def _backoff_delay(self, attempt: int, retry_after: int) -> float:
        """Delay before retry ``attempt + 1`` (jittered, Retry-After floor)."""
        ceiling = min(self.backoff_cap, self.backoff_base * (2**attempt))
        jittered = ceiling * (0.5 + 0.5 * self._rng.random())
        return max(float(retry_after), jittered)

    def status(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def result(self, ref: str) -> dict[str, Any]:
        """GET /results/<digest-or-job-id>."""
        return self._request("GET", f"/results/{ref}")

    def events(
        self, job_id: str, *, since: int = 0, follow: bool = False
    ) -> Iterator[dict[str, Any]]:
        """Yield progress events; with ``follow`` streams until terminal."""
        url = f"{self.base_url}/jobs/{job_id}/events?since={since}&follow={int(follow)}"
        request = urllib.request.Request(
            url, headers=self._headers({"Accept": "application/x-ndjson"})
        )
        timeout = None if follow else self.timeout
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                for raw in response:
                    line = raw.decode("utf-8").strip()
                    if line:
                        yield json.loads(line)
        except urllib.error.HTTPError as exc:
            raise self._to_error(exc) from None

    def wait(
        self, job_id: str, *, timeout: float = 300.0, poll: float = 0.2
    ) -> dict[str, Any]:
        """Block until the job reaches a terminal state; returns the record.

        Each request parks on the server (``GET /jobs/<id>?wait=``) for
        what is left of ``timeout``.  Only a server that answers sooner
        with a live record — one without a worker pool, or one that
        predates ``?wait=`` — is asked again every ``poll`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            asked = round(min(max(0.0, deadline - time.monotonic()), MAX_WAIT_S), 3)
            sent = time.monotonic()
            record = self._request(
                "GET", f"/jobs/{job_id}?wait={asked}", timeout=self.timeout + asked
            )
            if record.get("state") in ("done", "failed", "cancelled"):
                return record
            now = time.monotonic()
            if now > deadline:
                raise TimeoutError(
                    f"job {job_id} still {record.get('state')!r} after {timeout}s"
                )
            if now - sent < asked:
                self._sleep(min(poll, deadline - now))
