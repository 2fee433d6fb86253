"""Retrying HTTP client for the campaign service.

The client treats the service's failure vocabulary as a protocol, not
as exceptions to crash on.  Stdlib ``urllib`` only.

* every request carries a **connect/read timeout**;
* transient failures -- connection refused/reset, request timeouts,
  and any response whose structured body says ``"retryable": true``
  (503 overload, 504 deadline, 5xx) -- are retried with **exponential
  backoff plus deterministic-injectable jitter**;
* a 503's **``Retry-After``** header is honored (capped) instead of the
  computed backoff, so a draining or saturated server paces its own
  retry traffic;
* terminal failures raise :class:`RemoteStoreError` carrying the HTTP
  status and the parsed structured body, immediately -- a 400 is the
  same answer on every attempt, so no retry can fix it.

``sleep`` and ``rand`` are injectable so tests drive the retry schedule
without wall-clock waits.
"""

from __future__ import annotations

import json
import random
import socket
import time
import urllib.error
import urllib.request
from typing import Any, Callable

from ..core.errors import CampaignError

DEFAULT_TIMEOUT_S = 10.0
DEFAULT_MAX_RETRIES = 4
DEFAULT_BACKOFF_S = 0.25
DEFAULT_BACKOFF_CAP_S = 8.0
DEFAULT_JITTER = 0.25
DEFAULT_RETRY_AFTER_CAP_S = 30.0


class RemoteStoreError(CampaignError):
    """A service request failed past all retries (or terminally)."""

    def __init__(self, message: str, status: int | None = None, payload: Any = None):
        super().__init__(message)
        self.status = status
        self.payload = payload


class _Retryable(Exception):
    """Internal: one attempt failed in a retryable way."""

    def __init__(self, detail: str, retry_after: str | None = None,
                 status: int | None = None, payload: Any = None):
        super().__init__(detail)
        self.detail = detail
        self.retry_after = retry_after
        self.status = status
        self.payload = payload


class StoreClient:
    """Retrying JSON client over one serve-node endpoint."""

    def __init__(
        self,
        endpoint: str,
        timeout: float = DEFAULT_TIMEOUT_S,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff: float = DEFAULT_BACKOFF_S,
        backoff_cap: float = DEFAULT_BACKOFF_CAP_S,
        jitter: float = DEFAULT_JITTER,
        retry_after_cap: float = DEFAULT_RETRY_AFTER_CAP_S,
        sleep: Callable[[float], None] = time.sleep,
        rand: Callable[[], float] = random.random,
    ):
        self.base_url = endpoint.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self.retry_after_cap = retry_after_cap
        self._sleep = sleep
        self._rand = rand
        self.attempts = 0  # lifetime HTTP attempts (read by tests)

    # ------------------------------------------------------------ plumbing
    def _delay(self, attempt: int, retry_after: str | None) -> float:
        if retry_after is not None:
            try:
                return min(float(retry_after), self.retry_after_cap)
            except ValueError:
                pass
        base = min(self.backoff * 2**attempt, self.backoff_cap)
        return base * (1.0 + self.jitter * self._rand())

    def _attempt(self, path: str, method: str, body: bytes | None,
                 content_type: str) -> Any:
        """One HTTP attempt; returns the parsed payload.

        Raises :class:`_Retryable` for failures a later attempt may fix
        and :class:`RemoteStoreError` for terminal ones.
        """
        url = f"{self.base_url}/{path.lstrip('/')}"
        self.attempts += 1
        req = urllib.request.Request(url, data=body, method=method)
        if body is not None:
            req.add_header("Content-Type", content_type)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                payload = json.loads(raw)
            except (ValueError, UnicodeDecodeError):
                payload = {"error": "OpaqueError", "message": raw[:200].decode(
                    "utf-8", errors="replace"), "retryable": exc.code >= 500}
            detail = f"HTTP {exc.code}: {payload.get('message', '')}"
            if not bool(payload.get("retryable", exc.code >= 500)):
                raise RemoteStoreError(
                    f"{method} {url} failed: {detail}",
                    status=exc.code, payload=payload,
                ) from None
            raise _Retryable(
                detail, retry_after=exc.headers.get("Retry-After"),
                status=exc.code, payload=payload,
            ) from None
        except (urllib.error.URLError, socket.timeout, ConnectionError, TimeoutError) as exc:
            reason = getattr(exc, "reason", exc)
            raise _Retryable(f"{type(exc).__name__}: {reason}") from None

    def request(self, path: str, method: str = "GET", body: bytes | None = None,
                content_type: str = "text/plain") -> Any:
        """One JSON request with retries; parsed payload."""
        last: _Retryable | None = None
        connection_only = True
        for attempt in range(self.max_retries + 1):
            try:
                return self._attempt(path, method, body, content_type)
            except _Retryable as exc:
                last = exc
                connection_only = connection_only and exc.status is None
            if attempt < self.max_retries:
                self._sleep(self._delay(attempt, last.retry_after))
        assert last is not None
        url = f"{self.base_url}/{path.lstrip('/')}"
        if connection_only:
            raise RemoteStoreError(
                f"{method} {url} unreachable after "
                f"{self.max_retries + 1} attempts: {last.detail}"
            )
        raise RemoteStoreError(
            f"{method} {url} failed: {last.detail}",
            status=last.status, payload=last.payload,
        )

    # --------------------------------------------------------- convenience
    def healthz(self) -> dict:
        return self.request("healthz")

    def readyz(self) -> dict:
        return self.request("readyz")

    def stats(self) -> dict:
        return self.request("stats")

    def campaigns(self) -> list[dict]:
        return self.request("campaigns")

    def campaign(self, design: str, threshold: float | None = None,
                 verdict: str | None = None) -> dict:
        return self.request(f"campaigns/{design}{_query(threshold, verdict)}")

    def faults(self, design: str, threshold: float | None = None,
               verdict: str | None = None) -> list[dict]:
        return self.request(f"campaigns/{design}/faults{_query(threshold, verdict)}")

    def validate_design(self, text: str, fmt: str = "bench") -> dict:
        return self.request(
            f"designs/validate?format={fmt}",
            method="POST",
            body=text.encode("utf-8"),
        )


def _query(threshold: float | None, verdict: str | None) -> str:
    params = []
    if threshold is not None:
        params.append(f"threshold={threshold}")
    if verdict is not None:
        params.append(f"verdict={verdict}")
    return "?" + "&".join(params) if params else ""
