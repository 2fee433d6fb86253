"""``repro-faults serve``: a stdlib-only HTTP front end over the
campaign service core.

A :class:`ThreadingHTTPServer` exposes cached campaign results, store
statistics and compute-on-miss through
:class:`repro.store.service.CampaignService` -- per-fingerprint request
coalescing, bounded admission, per-request deadlines, job-level retries
and graceful drain all live there; this module only parses requests and
renders structured JSON.

Endpoints::

    GET  /healthz                       liveness probe
    GET  /readyz                        readiness: store reachable, queue
                                        not saturated, not draining
    GET  /stats                         store + service statistics
    GET  /campaigns                     summaries of every cached campaign
    GET  /campaigns/<design>            newest cached report for a design
         ?threshold=0.05                select/compute at a threshold
         ?verdict=SFR                   filter the per-fault rows
    GET  /campaigns/<design>/faults     just the fault rows (same filters)
    GET  /campaigns/<design>/calibrate  fleet-scale threshold ROC (compute
         ?instances=100000              hook required; coalesced per fleet
         &sigma_cap=0.05&seed=7 ...     configuration -- see docs/store.md)
    POST /designs/validate              fail-fast validation of an uploaded
         ?format=bench|verilog          netlist (never reaches a worker)

Every error is a structured JSON body ``{"error": <class>, "message":
..., "retryable": ...}`` with a faithful status code: 400 for bad input,
404 for unknown resources, 503 (+ ``Retry-After``) for overload/drain,
504 for expired deadlines, 500 for everything else -- never a raw
traceback, never a wedged connection.
"""

from __future__ import annotations

import logging
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from ..core.errors import (
    CampaignError,
    ChunkTimeout,
    DeadlineExceeded,
    InputValidationError,
    ServiceOverloaded,
    is_retryable,
)
from .cache import CampaignStore
from .query import QUERY_VERDICTS, query_campaigns, query_json
from .service import (
    DEFAULT_DRAIN_GRACE,
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_THRESHOLD,
    DEFAULT_WORKERS,
    CalibrateFn,
    CampaignService,
    ComputeFn,
    json_body,
)

logger = logging.getLogger(__name__)

__all__ = [
    "CalibrateFn",
    "ComputeFn",
    "DEFAULT_THRESHOLD",
    "StoreHTTPServer",
    "error_body",
    "http_status",
    "make_server",
    "serve_forever",
]


def http_status(exc: BaseException) -> int:
    """Map the failure taxonomy onto HTTP status codes."""
    if isinstance(exc, InputValidationError):
        return 400
    if isinstance(exc, ServiceOverloaded):
        return 503
    if isinstance(exc, (DeadlineExceeded, ChunkTimeout)):
        return 504
    return 500


def error_body(exc: BaseException) -> dict:
    """Structured JSON error body for any exception."""
    return {
        "error": type(exc).__name__,
        "message": str(exc),
        "retryable": is_retryable(exc),
    }


class StoreHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server owning a :class:`CampaignService`."""

    daemon_threads = True
    service: CampaignService

    def server_close(self) -> None:  # stop the worker pool with the socket
        try:
            # socketserver calls server_close() from __init__ when the bind
            # fails, before make_server has attached the service.
            service = getattr(self, "service", None)
            if service is not None:
                service.stop()
        finally:
            super().server_close()


class _Handler(BaseHTTPRequestHandler):
    service: CampaignService  # injected by make_server

    # ------------------------------------------------------------- plumbing
    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        logger.debug("serve: " + fmt, *args)

    def _send(self, status: int, payload: Any, headers: dict[str, str] | None = None) -> None:
        self._send_body(status, json_body(payload), headers)

    def _send_body(self, status: int, body: bytes, headers: dict[str, str] | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self,
        status: int,
        error: str,
        message: str,
        retryable: bool = False,
        retry_after: float | None = None,
    ) -> None:
        headers = {}
        if retry_after is not None:
            headers["Retry-After"] = str(max(1, int(round(retry_after))))
        self._send(
            status,
            {"error": error, "message": message, "retryable": retryable},
            headers=headers,
        )

    def _error_exc(self, exc: BaseException) -> None:
        self._send_error_payload(http_status(exc), exc)

    def _send_error_payload(self, status: int, exc: BaseException) -> None:
        retry_after = getattr(exc, "retry_after", None)
        headers = {}
        if retry_after is not None:
            headers["Retry-After"] = str(max(1, int(round(retry_after))))
        self._send(status, error_body(exc), headers=headers)

    # --------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        svc = self.service
        svc.count_request()
        url = urlsplit(self.path)
        params = {k: v[-1] for k, v in parse_qs(url.query).items()}
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._send(200, {"ok": True})
            elif parts == ["readyz"]:
                ok, detail = svc.ready()
                self._send(200 if ok else 503, detail)
            elif parts == ["stats"]:
                self._send(200, svc.stats())
            elif parts == ["campaigns"]:
                self._send(200, query_json(query_campaigns(svc.store)))
            elif len(parts) in (2, 3) and parts[0] == "campaigns":
                self._campaign(parts, params)
            else:
                self._error(404, "NotFound", f"no such endpoint: {url.path}")
        except CampaignError as exc:
            self._error_exc(exc)
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # surface as JSON, keep the server alive
            logger.exception("serve: request %s failed", self.path)
            self._send_error_payload(500, exc)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        svc = self.service
        svc.count_request()
        url = urlsplit(self.path)
        params = {k: v[-1] for k, v in parse_qs(url.query).items()}
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["designs", "validate"]:
                self._validate_upload(params)
            else:
                self._error(404, "NotFound", f"no such endpoint: {url.path}")
        except CampaignError as exc:
            self._error_exc(exc)
        except BrokenPipeError:
            pass
        except Exception as exc:
            logger.exception("serve: request %s failed", self.path)
            self._send_error_payload(500, exc)

    # ------------------------------------------------------------ handlers
    def _campaign(self, parts: list[str], params: dict[str, str]) -> None:
        svc = self.service
        design = parts[1]
        if svc.designs and design not in svc.designs:
            self._error(
                404,
                "UnknownDesign",
                f"unknown design {design!r}; choose from {list(svc.designs)}",
            )
            return
        threshold: float | None = None
        if "threshold" in params:
            try:
                threshold = float(params["threshold"])
            except ValueError:
                self._error(
                    400,
                    "InputValidationError",
                    f"bad threshold {params['threshold']!r}: expected a number",
                )
                return
            if not 0 < threshold < 1:
                self._error(
                    400,
                    "InputValidationError",
                    f"threshold must be a fraction in (0, 1), got {threshold}",
                )
                return
        verdict = params.get("verdict")
        if verdict is not None and verdict not in QUERY_VERDICTS:
            self._error(
                400,
                "InputValidationError",
                f"bad verdict {verdict!r}: must be one of {list(QUERY_VERDICTS)}",
            )
            return
        view = parts[2] if len(parts) == 3 else "report"
        if view == "calibrate":
            self._calibrate(design, params)
            return
        if len(parts) == 3 and view != "faults":
            # before svc.campaign: a mistyped view must not admit a compute
            self._error(404, "NotFound", f"no such campaign view: {view!r}")
            return
        report = svc.campaign(design, threshold)
        if report is None:
            self._error(
                404,
                "NotCached",
                f"no cached campaign for {design!r} and computation is "
                f"disabled on this server",
            )
            return
        self._send_body(200, svc.render(report, view, verdict))

    #: fleet query parameters: name -> (parser, validator description)
    _CALIBRATE_INT = ("instances", "seed")
    _CALIBRATE_SIGMA = ("sigma_cap", "sigma_leak", "sigma_meas", "yield_budget")

    def _calibrate(self, design: str, params: dict[str, str]) -> None:
        """``GET /campaigns/<design>/calibrate`` -- fleet threshold ROC.

        Fleet knobs arrive as query parameters and are validated at the
        HTTP boundary (bad input never reaches a worker); the job is
        coalesced per (design, configuration) fingerprint by the service.
        """
        svc = self.service
        fleet: dict = {}
        known = set(self._CALIBRATE_INT) | set(self._CALIBRATE_SIGMA)
        unknown = set(params) - known
        if unknown:
            self._error(
                400,
                "InputValidationError",
                f"unknown calibrate parameter(s) {sorted(unknown)}; "
                f"choose from {sorted(known)}",
            )
            return
        for name in self._CALIBRATE_INT:
            if name in params:
                try:
                    value = int(params[name])
                except ValueError:
                    self._error(
                        400,
                        "InputValidationError",
                        f"bad {name} {params[name]!r}: expected an integer",
                    )
                    return
                if value < 0 or (name == "instances" and value < 1):
                    self._error(
                        400,
                        "InputValidationError",
                        f"bad {name} {value}: must be "
                        f"{'>= 1' if name == 'instances' else '>= 0'}",
                    )
                    return
                fleet[name] = value
        for name in self._CALIBRATE_SIGMA:
            if name in params:
                try:
                    value = float(params[name])
                except ValueError:
                    self._error(
                        400,
                        "InputValidationError",
                        f"bad {name} {params[name]!r}: expected a number",
                    )
                    return
                if not 0 <= value < 1:
                    self._error(
                        400,
                        "InputValidationError",
                        f"bad {name} {value}: must be a fraction in [0, 1)",
                    )
                    return
                fleet[name] = value
        report = svc.calibrate(design, fleet)
        if report is None:
            self._error(
                404,
                "NotCached",
                f"fleet calibration for {design!r} needs the compute hook, "
                f"which is disabled on this server",
            )
            return
        self._send(200, report)

    def _validate_upload(self, params: dict[str, str]) -> None:
        from ..core.errors import UPLOAD_MAX_BYTES
        from ..netlist.bench import parse_bench_upload
        from ..netlist.verilog import parse_verilog_upload
        from .fingerprint import netlist_fingerprint

        fmt = params.get("format", "bench")
        if fmt not in ("bench", "verilog"):
            raise InputValidationError(
                f"bad format {fmt!r}: must be 'bench' or 'verilog'"
            )
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise InputValidationError("bad Content-Length header") from None
        if length <= 0:
            raise InputValidationError("upload is empty")
        if length > UPLOAD_MAX_BYTES:
            raise InputValidationError(
                f"upload is {length} bytes; the limit is {UPLOAD_MAX_BYTES}"
            )
        text = self.rfile.read(length).decode("utf-8", errors="replace")
        parse = parse_bench_upload if fmt == "bench" else parse_verilog_upload
        netlist = parse(text)  # raises InputValidationError, mapped to 400
        self._send(
            200,
            {
                "ok": True,
                "format": fmt,
                "design": netlist.name,
                "fingerprint": netlist_fingerprint(netlist),
                "stats": netlist.stats(),
            },
        )


def make_server(
    host: str,
    port: int,
    store: CampaignStore,
    compute: ComputeFn | None = None,
    compute_calibrate: CalibrateFn | None = None,
    designs: tuple[str, ...] = (),
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    workers: int = DEFAULT_WORKERS,
    request_timeout: float | None = None,
    service: CampaignService | None = None,
) -> StoreHTTPServer:
    """Build (but do not start) the threaded store server.

    The service's compute pool starts with the first admitted job, so a
    server with compute disabled runs no service thread.
    """
    if service is None:
        service = CampaignService(
            store,
            compute=compute,
            compute_calibrate=compute_calibrate,
            designs=designs,
            queue_depth=queue_depth,
            workers=workers,
            request_timeout=request_timeout,
        )
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = StoreHTTPServer((host, port), handler)
    server.service = service
    return server


def serve_forever(
    server: ThreadingHTTPServer, drain_grace: float = DEFAULT_DRAIN_GRACE
) -> None:
    """Run until interrupted; SIGTERM and ^C drain gracefully.

    On SIGTERM the service stops admitting compute jobs, in-flight jobs
    finish (each publishes its finished stages to the store), and only then
    does the listener shut down.
    """
    service = getattr(server, "service", None)

    def _drain_and_stop(signum, frame):  # pragma: no cover - signal path
        logger.info("serve: SIGTERM received; draining")
        if service is not None:
            service.drain(grace=drain_grace)
        # shutdown() blocks until serve_forever exits, and signal handlers
        # run on the main thread -- hop threads to avoid self-deadlock.
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _drain_and_stop)
    except ValueError:  # not on the main thread (tests): skip the handler
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        if service is not None:
            service.drain(grace=drain_grace)
    finally:
        server.server_close()
