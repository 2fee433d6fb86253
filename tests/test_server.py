"""Tests for the crash-tolerant campaign service (:mod:`repro.store.service`,
:mod:`repro.store.server`, :mod:`repro.store.client`).

Covers the robustness acceptance surface of the serve layer: request
coalescing (one compute for N concurrent identical requests),
backpressure (503 + ``Retry-After`` at queue depth), per-request
deadlines (504, quarantine, worker slot reclaimed), crash-retry that
replays published stages (bit-identical to a cold single-threaded run),
graceful drain, structured JSON errors, fail-fast upload validation,
client retry behavior against a flaky stub server, and the combined
chaos scenario from the issue's acceptance criteria.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cli import main
from repro.core.errors import (
    DeadlineExceeded,
    InputValidationError,
    ServiceOverloaded,
    WorkerCrash,
    is_retryable,
)
from repro.core.integrity import STORE_CORRUPT_CHECK
from repro.netlist.bench import parse_bench_upload
from repro.netlist.verilog import parse_verilog_upload
from repro.store.cache import CampaignStore
from repro.store.client import RemoteStoreError, StoreClient
from repro.store.fingerprint import canonical_json, digest
from repro.store.server import make_server
from repro.store.service import MEMO_ENTRIES, CampaignService, campaign_view
from repro.testing.chaos import ServiceChaos

#: A service worker never dies: every compute attempt's exception is
#: handed to its waiters.  Any thread that dies with an unhandled
#: exception fails the test it happened in.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)


# ----------------------------------------------------------------- helpers
def _wait_until(predicate, timeout: float = 10.0, interval: float = 0.01,
                message: str = "condition") -> None:
    """Bounded poll: the event-based replacement for fixed sleeps.

    Every cross-thread synchronization in this file waits on an
    observable condition (a ``/stats`` counter, an in-flight count)
    instead of a magic sleep, so the suite is immune to scheduler
    jitter on loaded CI machines.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out after {timeout}s waiting for {message}")


def _report(design: str, threshold: float) -> dict:
    return {
        "schema": 1,
        "command": "grade",
        "design": design,
        "params": {},
        "counts": {"SFR": 1},
        "table2": {"design": design, "total_faults": 2, "sfr_faults": 1, "pct_sfr": 50.0},
        "faults": [
            {"fault": "1:out:5:0", "site": "g1", "category": "SFR", "quarantined": False},
        ],
        "grading": {
            "fault_free_uw": 100.0,
            "threshold": threshold,
            "summary": {},
            "figure7": [],
            "graded": [
                {"fault": "1:out:5:0", "site": "g1", "group": "select",
                 "power_uw": 90.0, "pct": -10.0, "detected": True},
            ],
        },
    }


def _publish(store: CampaignStore, design: str, threshold: float = 0.05) -> dict:
    report = _report(design, threshold)
    store.publish(
        "report",
        digest({"design": design, "threshold": threshold}),
        report,
        design=design,
        meta={"command": "grade"},
    )
    return report


def _publishing_compute(store: CampaignStore, delay: float = 0.0, counts=None):
    """A stub compute hook that simulates (sleeps), publishes and counts."""
    lock = threading.Lock()

    def compute(design: str, threshold: float) -> dict:
        if delay:
            time.sleep(delay)
        if counts is not None:
            with lock:
                counts[design] = counts.get(design, 0) + 1
        return _publish(store, design, threshold)

    return compute


def _fetch(url: str, method: str = "GET", body: bytes | None = None):
    """(status, parsed json, raw bytes, headers); never raises on 4xx/5xx."""
    req = urllib.request.Request(url, data=body, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            raw = resp.read()
            return resp.status, json.loads(raw), raw, dict(resp.headers)
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        return exc.code, json.loads(raw), raw, dict(exc.headers)


@pytest.fixture()
def served(tmp_path):
    """Factory fixture: start a server with given service knobs."""
    started = []

    def start(compute=None, designs=("facet", "diffeq", "poly"), **knobs):
        store = CampaignStore(tmp_path / "store")
        server = make_server(
            "127.0.0.1", 0, store, compute=compute, designs=designs, **knobs
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return f"http://127.0.0.1:{server.server_address[1]}", store, server.service

    yield start
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


# -------------------------------------------------------------- coalescing
def test_stampede_coalesces_to_one_compute(served):
    counts: dict = {}
    store_holder = []
    service_holder = []

    def compute(design, threshold):
        # hold the job open until every rider has provably attached, so
        # the one-compute assertion cannot race the request threads
        _wait_until(
            lambda: service_holder[0].stats()["service"]["coalesced"] >= 7,
            message="all riders coalesced",
        )
        counts[design] = counts.get(design, 0) + 1
        return _publish(store_holder[0], design, threshold)

    base, store, service = served(compute=compute, queue_depth=8)
    store_holder.append(store)
    service_holder.append(service)

    results = []

    def hit():
        results.append(_fetch(f"{base}/campaigns/diffeq?threshold=0.05"))

    threads = [threading.Thread(target=hit) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)

    assert len(results) == 8
    assert all(status == 200 for status, *_ in results)
    bodies = {raw for _, _, raw, _ in results}
    assert len(bodies) == 1  # every rider got byte-identical payloads
    assert counts == {"diffeq": 1}  # exactly one simulation
    stats = service.stats()
    assert stats["computed"] == 1
    assert stats["service"]["coalesced"] == 7


def test_cached_reads_not_blocked_by_compute(served):
    release = threading.Event()
    store_holder = []

    def compute(design, threshold):
        release.wait(timeout=10)
        return _publish(store_holder[0], design, threshold)

    base, store, service = served(compute=compute)
    store_holder.append(store)
    _publish(store, "facet", 0.05)

    slow = threading.Thread(
        target=_fetch, args=(f"{base}/campaigns/diffeq",), daemon=True
    )
    slow.start()
    _wait_until(
        lambda: service.stats()["service"]["in_flight"] >= 1,
        message="compute job admitted",
    )
    t0 = time.monotonic()
    status, report, _, _ = _fetch(f"{base}/campaigns/facet")
    elapsed = time.monotonic() - t0
    release.set()
    slow.join(timeout=10)
    assert status == 200 and report["design"] == "facet"
    assert elapsed < 5.0  # served from cache while the compute was wedged


# ------------------------------------------------------------ backpressure
def test_backpressure_503_with_retry_after(served):
    release = threading.Event()
    store_holder = []

    def compute(design, threshold):
        release.wait(timeout=10)
        return _publish(store_holder[0], design, threshold)

    base, store, service = served(compute=compute, queue_depth=1, workers=1)
    store_holder.append(store)

    first = threading.Thread(
        target=_fetch, args=(f"{base}/campaigns/facet",), daemon=True
    )
    first.start()
    _wait_until(
        lambda: service.stats()["service"]["in_flight"] >= 1,
        timeout=5,
        message="first job admitted",
    )

    status, body, _, headers = _fetch(f"{base}/campaigns/diffeq")
    assert status == 503
    assert body["error"] == "ServiceOverloaded" and body["retryable"] is True
    assert int(headers["Retry-After"]) >= 1
    assert service.stats()["service"]["rejected_overload"] == 1

    release.set()
    first.join(timeout=10)
    # depth frees up -> the same request is admitted and served
    status, report, _, _ = _fetch(f"{base}/campaigns/diffeq")
    assert status == 200 and report["design"] == "diffeq"


# ---------------------------------------------------------------- deadline
def test_deadline_504_quarantine_and_slot_reclaim(served):
    hung = threading.Event()
    store_holder = []

    def compute(design, threshold):
        if design == "poly":
            hung.wait(timeout=30)
        return _publish(store_holder[0], design, threshold)

    base, store, service = served(compute=compute, request_timeout=0.3, workers=1)
    store_holder.append(store)

    t0 = time.monotonic()
    status, body, _, _ = _fetch(f"{base}/campaigns/poly")
    assert status == 504
    assert body["error"] == "DeadlineExceeded" and body["retryable"] is True
    assert time.monotonic() - t0 < 10.0
    stats = service.stats()["service"]
    assert stats["deadline_expired"] >= 1
    assert any("poly" in q for q in stats["quarantined"])

    # repeat request fails fast out of quarantine instead of re-wedging
    status, body, _, _ = _fetch(f"{base}/campaigns/poly")
    assert status == 504 and body["error"] == "DeadlineExceeded"

    # the worker slot was reclaimed: another design computes fine
    status, report, _, _ = _fetch(f"{base}/campaigns/facet")
    assert status == 200 and report["design"] == "facet"

    # the stray attempt eventually finishes, publishes and clears quarantine
    hung.set()
    _wait_until(
        lambda: not service.stats()["service"]["quarantined"],
        timeout=5,
        message="quarantine cleared",
    )
    status, report, _, _ = _fetch(f"{base}/campaigns/poly")
    assert status == 200 and report["design"] == "poly"


# ------------------------------------------------- crash + store replay
def test_crash_retry_replays_published_stages_bit_identical(served):
    """A mid-request worker crash is retried, and the retry replays every
    stage the failed attempt published to the store: only the stage in
    flight at the crash is computed twice, and the served report is
    byte-identical to a cold single-threaded run."""
    stage_computes: list[str] = []
    stages = ("faultsim", "classify", "grading", "activity")

    def store_backed_compute(store):
        def compute(design, threshold):
            replayed = []
            for stage in stages:
                key = digest({"design": design, "stage": stage})
                payload = store.lookup(stage, key)
                if payload is None:
                    stage_computes.append(stage)
                    if stage_computes == ["faultsim", "classify", "grading"]:
                        raise WorkerCrash("chaos: worker died mid-campaign")
                    payload = {"stage": stage}
                    store.publish(stage, key, payload, design=design)
                replayed.append(payload["stage"])
            report = _publish(store, design, threshold)
            report["stages"] = replayed
            return report

        return compute

    base, store, service = served(compute=None)
    service.compute = store_backed_compute(store)
    service.max_retries = 2

    status, report, raw, _ = _fetch(f"{base}/campaigns/diffeq?threshold=0.05")
    assert status == 200
    assert service.stats()["service"]["retries"] == 1
    # finished stages replay; only the in-flight one recomputes
    assert stage_computes == ["faultsim", "classify", "grading", "grading", "activity"]

    # cold single-threaded reference, no crash
    cold_report = _report("diffeq", 0.05)
    cold_report["stages"] = list(stages)
    assert report == cold_report


# ------------------------------------------------------------------- drain
def test_graceful_drain_finishes_in_flight_then_refuses(tmp_path):
    store = CampaignStore(tmp_path / "store")
    service = CampaignService(
        store, compute=_publishing_compute(store, delay=0.2), queue_depth=4
    ).start()
    results = []
    t = threading.Thread(
        target=lambda: results.append(service.campaign("facet", 0.05)), daemon=True
    )
    t.start()
    _wait_until(
        lambda: service.stats()["service"]["in_flight"] >= 1,
        message="job in flight",
    )
    assert service.drain(grace=10.0) is True
    t.join(timeout=5)
    assert results and results[0]["design"] == "facet"  # in-flight finished

    with pytest.raises(ServiceOverloaded):  # new compute refused while draining
        service.campaign("diffeq", 0.05)
    # cached reads still serve during drain
    assert service.campaign("facet", 0.05)["design"] == "facet"
    ok, detail = service.ready()
    assert ok is False and detail["draining"] is True
    service.stop()


def test_readyz_endpoint(served):
    base, store, service = served(compute=None)
    status, body, _, _ = _fetch(f"{base}/readyz")
    assert status == 200 and body["ready"] is True
    service._draining = True
    status, body, _, _ = _fetch(f"{base}/readyz")
    assert status == 503 and body["ready"] is False and body["draining"] is True


# -------------------------------------------------------- thread start-up
def test_service_threads_start_on_first_miss(served):
    """With compute disabled a server runs no service thread; with it
    enabled, the first miss starts exactly ``workers`` workers."""
    before = set(threading.enumerate())

    def started(prefix):
        return [t.name for t in threading.enumerate()
                if t not in before and t.name.startswith(prefix)]

    base, store, _ = served(compute=None)
    _publish(store, "facet", 0.05)
    status, report, _, _ = _fetch(f"{base}/campaigns/facet")
    assert status == 200 and report["design"] == "facet"
    assert started("svc-") == []

    # the fixture roots both servers at one store directory
    base, _, _ = served(compute=_publishing_compute(store), workers=3)
    status, _, _, _ = _fetch(f"{base}/campaigns/facet")  # cached: no pool
    assert status == 200 and started("svc-") == []
    status, report, _, _ = _fetch(f"{base}/campaigns/diffeq?threshold=0.05")
    assert status == 200 and report["design"] == "diffeq"
    assert sorted(started("svc-worker-")) == ["svc-worker-1", "svc-worker-2", "svc-worker-3"]


# -------------------------------------------------------- structured errors
def test_structured_errors_for_bad_requests(served):
    base, _, _ = served(compute=None)
    status, body, _, _ = _fetch(f"{base}/campaigns/not-a-design")
    assert status == 404
    assert body["error"] == "UnknownDesign" and body["retryable"] is False

    status, body, _, _ = _fetch(f"{base}/campaigns/facet?threshold=banana")
    assert status == 400
    assert body["error"] == "InputValidationError" and "threshold" in body["message"]

    status, body, _, _ = _fetch(f"{base}/campaigns/facet?threshold=2.0")
    assert status == 400 and body["error"] == "InputValidationError"

    status, body, _, _ = _fetch(f"{base}/campaigns/facet?verdict=sideways")
    assert status == 400 and "verdict" in body["message"]

    status, body, _, _ = _fetch(f"{base}/nonsense")
    assert status == 404 and body["error"] == "NotFound"


def test_compute_error_maps_to_structured_500(served):
    def compute(design, threshold):
        raise RuntimeError("synthetic pipeline explosion")

    base, _, service = served(compute=compute)
    service.max_retries = 0
    status, body, raw, _ = _fetch(f"{base}/campaigns/facet")
    assert status == 500
    assert body["error"] == "RuntimeError" and body["retryable"] is False
    assert b"Traceback" not in raw


# -------------------------------------------------------- upload validation
GOOD_BENCH = """
INPUT(a)
INPUT(b)
OUTPUT(y)
w = AND(a, b)
y = DFF(w)
"""

CYCLIC_BENCH = """
INPUT(a)
OUTPUT(y)
x = AND(y, a)
y = AND(x, a)
"""

GOOD_VERILOG = """
module up (a, y);
  input a;
  output y;
  not g0(y, a);
endmodule
"""


def test_parse_bench_upload_typed_errors():
    netlist = parse_bench_upload(GOOD_BENCH)
    assert netlist.stats()["gates"] == 2

    with pytest.raises(InputValidationError, match="loop"):
        parse_bench_upload(CYCLIC_BENCH)
    with pytest.raises(InputValidationError, match="bad .bench"):
        parse_bench_upload("y = FROB(a)\n")
    with pytest.raises(InputValidationError, match="empty"):
        parse_bench_upload("   \n")
    with pytest.raises(InputValidationError, match="bytes"):
        parse_bench_upload("#" * 2048, max_bytes=1024)
    for exc in (InputValidationError("x"),):
        assert is_retryable(exc) is False


def test_parse_verilog_upload_typed_errors():
    netlist = parse_verilog_upload(GOOD_VERILOG)
    assert netlist.stats()["gates"] == 1
    with pytest.raises(InputValidationError, match="bad Verilog"):
        parse_verilog_upload("module broken (a);\n  frobnicate g0(a);\nendmodule\n")
    with pytest.raises(InputValidationError, match="no connections"):
        parse_verilog_upload("module b (a);\n  input a;\n  and g0();\nendmodule\n")


def test_upload_endpoint(served):
    base, _, _ = served(compute=None)
    status, body, _, _ = _fetch(
        f"{base}/designs/validate?format=bench",
        method="POST",
        body=GOOD_BENCH.encode(),
    )
    assert status == 200 and body["ok"] is True
    assert body["stats"]["gates"] == 2 and len(body["fingerprint"]) == 64

    status, body, _, _ = _fetch(
        f"{base}/designs/validate?format=bench",
        method="POST",
        body=CYCLIC_BENCH.encode(),
    )
    assert status == 400
    assert body["error"] == "InputValidationError" and "loop" in body["message"]

    status, body, _, _ = _fetch(
        f"{base}/designs/validate?format=verilog",
        method="POST",
        body=GOOD_VERILOG.encode(),
    )
    assert status == 200 and body["design"] == "up"

    status, body, _, _ = _fetch(
        f"{base}/designs/validate?format=weird", method="POST", body=b"x"
    )
    assert status == 400 and "format" in body["message"]


# ------------------------------------------------------------------ client
class _ScriptedHandler(BaseHTTPRequestHandler):
    script: list  # (status, payload, headers) consumed per request
    hits: list

    def log_message(self, fmt, *args):
        pass

    def do_GET(self):
        self.hits.append(self.path)
        status, payload, headers = (
            self.script.pop(0) if self.script else (200, {"ok": True}, {})
        )
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for k, v in headers.items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture()
def scripted_server():
    servers = []

    def start(script):
        handler = type(
            "Scripted", (_ScriptedHandler,), {"script": list(script), "hits": []}
        )
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_address[1]}", handler

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_client_retries_503_honoring_retry_after(scripted_server):
    overloaded = {"error": "ServiceOverloaded", "message": "full", "retryable": True}
    base, handler = scripted_server(
        [
            (503, overloaded, {"Retry-After": "3"}),
            (503, overloaded, {}),
            (200, {"design": "facet"}, {}),
        ]
    )
    naps: list[float] = []
    client = StoreClient(
        base, max_retries=4, backoff=0.5, jitter=0.0, sleep=naps.append
    )
    assert client.campaign("facet") == {"design": "facet"}
    assert client.attempts == 3 and len(handler.hits) == 3
    assert naps[0] == 3.0  # Retry-After honored over computed backoff
    assert naps[1] == 1.0  # exponential backoff (0.5 * 2**1) for attempt 1


def test_client_does_not_retry_terminal_errors(scripted_server):
    bad = {"error": "InputValidationError", "message": "nope", "retryable": False}
    base, handler = scripted_server([(400, bad, {})])
    client = StoreClient(base, sleep=lambda s: None)
    with pytest.raises(RemoteStoreError) as exc_info:
        client.campaign("facet")
    assert exc_info.value.status == 400
    assert exc_info.value.payload["error"] == "InputValidationError"
    assert client.attempts == 1 and len(handler.hits) == 1


def test_client_retries_connection_failures_then_raises():
    naps: list[float] = []
    client = StoreClient(
        "http://127.0.0.1:9", timeout=0.2, max_retries=2, jitter=0.0,
        sleep=naps.append,
    )
    with pytest.raises(RemoteStoreError, match="unreachable"):
        client.healthz()
    assert client.attempts == 3
    assert naps == [0.25, 0.5]  # exponential backoff between attempts


def test_client_single_endpoint_base_url_compat():
    client = StoreClient("http://127.0.0.1:8357/")
    assert client.base_url == "http://127.0.0.1:8357"


def test_client_against_real_server(served):
    base, store, _ = served(compute=None)
    _publish(store, "facet", 0.05)
    client = StoreClient(base)
    assert client.healthz() == {"ok": True}
    assert client.readyz()["ready"] is True
    assert client.campaign("facet", threshold=0.05)["design"] == "facet"
    assert client.faults("facet", verdict="power-detected")[0]["fault"] == "1:out:5:0"
    assert client.validate_design(GOOD_BENCH)["ok"] is True
    assert client.stats()["requests"] >= 5


# --------------------------------------------------- memoized cached reads
def _dumps(payload) -> bytes:
    return json.dumps(payload, indent=2, allow_nan=False).encode("utf-8")


def _stored(report: dict) -> dict:
    """A report as a store read parses it (canonical key order)."""
    return json.loads(canonical_json(report))


def test_bad_view_404s_without_computing(served):
    calls = []

    def compute(design, threshold):
        calls.append(design)
        return _report(design, threshold)

    base, _, _ = served(compute=compute)
    for view in ("bogus", "report"):
        status, body, _, _ = _fetch(f"{base}/campaigns/facet/{view}")
        assert status == 404 and body["error"] == "NotFound"
    assert calls == []


def test_served_bytes_are_the_json_rendering_of_every_view(served):
    base, store, service = served(compute=None)
    report = _stored(_publish(store, "facet", 0.05))
    sfr = report["faults"]
    views = {
        "/campaigns/facet": report,
        "/campaigns/facet/faults": report["faults"],
        "/campaigns/facet?verdict=SFR": dict(report, matched_faults=sfr),
        "/campaigns/facet/faults?verdict=SFR": sfr,
        "/campaigns/facet?threshold=0.05": report,
        "/campaigns/facet/faults?threshold=0.05&verdict=power-detected":
            report["grading"]["graded"],
    }
    for _ in range(2):  # the second round is served from the memo
        for path, payload in views.items():
            status, _, raw, _ = _fetch(base + path)
            assert status == 200 and raw == _dumps(payload), path
    counters = service.stats()["service"]
    # threshold reads go through query_campaigns and are not memoized
    assert (counters["memo_misses"], counters["memo_hits"]) == (4, 4)


def test_next_read_serves_a_newer_report(served):
    base, store, _ = served(compute=None)
    older = _stored(_publish(store, "facet", 0.05))
    assert _fetch(f"{base}/campaigns/facet")[2] == _dumps(older)
    newer = _stored(_publish(store, "facet", 0.10))
    assert _fetch(f"{base}/campaigns/facet")[2] == _dumps(newer)
    assert _fetch(f"{base}/campaigns/facet/faults?verdict=SFR")[2] == _dumps(newer["faults"])


def test_blob_corrupted_after_a_served_read_is_never_served(served):
    base, store, service = served(compute=None)
    older = _stored(_publish(store, "facet", 0.05))
    newer = _stored(_publish(store, "facet", 0.10))
    for path in ("/campaigns/facet", "/campaigns/facet/faults"):
        assert _fetch(base + path)[0] == 200  # both views memoized

    assert ServiceChaos.corrupt_report_blob(store, "facet")
    status, _, raw, _ = _fetch(f"{base}/campaigns/facet")
    assert status == 200 and raw == _dumps(older)
    assert raw != _dumps(newer)
    assert [v.check for v in store.violations] == [STORE_CORRUPT_CHECK]
    assert [r.key for r in store.artifacts.rows(kind="report")] == [
        digest({"design": "facet", "threshold": 0.05})
    ]

    assert ServiceChaos.corrupt_report_blob(store, "facet")
    status, body, _, _ = _fetch(f"{base}/campaigns/facet/faults")
    assert status == 404 and body["error"] == "NotCached"
    assert len(store.violations) == 2
    assert list(store.artifacts.rows(kind="report")) == []
    assert service.stats()["service"]["memo_hits"] == 0


def test_memo_never_holds_more_than_its_bound(tmp_path):
    store = CampaignStore(tmp_path / "store")
    service = CampaignService(store)
    designs = [f"d{i}" for i in range(MEMO_ENTRIES + 3)]
    for design in designs:
        _publish(store, design)
        for view in ("report", "faults"):
            service.render(service.campaign(design, None), view, None)
        assert len(service._memo) <= MEMO_ENTRIES
    assert len(service._memo) == MEMO_ENTRIES
    # an evicted report is read, parsed and rendered again
    assert service.render(service.campaign(designs[0], None), "report", None) == _dumps(
        _stored(_report(designs[0], 0.05))
    )
    assert len(service._memo) == MEMO_ENTRIES


def test_concurrent_memoized_reads_stay_exact(tmp_path):
    store = CampaignStore(tmp_path / "store")
    service = CampaignService(store)
    designs = [f"d{i}" for i in range(MEMO_ENTRIES)]  # all fit: none evicted
    expected = {}
    for design in designs:
        report = _stored(_publish(store, design))
        expected[design] = {
            (view, verdict): _dumps(campaign_view(report, view, verdict))
            for view in ("report", "faults")
            for verdict in (None, "SFR")
        }
    reads_per_thread = 60
    mismatches = []

    def reader(seed: int) -> None:
        for i in range(reads_per_thread):
            design = designs[(seed * 7 + i) % len(designs)]
            view, verdict = list(expected[design])[(seed + i) % 4]
            body = service.render(service.campaign(design, None), view, verdict)
            if body != expected[design][(view, verdict)]:
                mismatches.append((design, view, verdict))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
    assert len(service._memo) <= MEMO_ENTRIES
    stats = service.stats()
    hits, misses = stats["service"]["memo_hits"], stats["service"]["memo_misses"]
    # every read counted exactly once: no lost counter update
    assert stats["served_cached"] == hits + misses == 8 * reads_per_thread
    assert misses >= len(designs)


# ------------------------------------------------- combined chaos scenario
def test_chaos_scenario_acceptance(served, tmp_path):
    """The issue's acceptance scenario: a stampede of identical requests,
    one crashed worker, one hung compute and one malformed upload -- the
    server performs exactly one simulation per distinct fingerprint,
    returns only structured 200/400/503/504 responses, and every 200 body
    is byte-identical to the cold single-threaded path."""
    simulated: dict = {}
    store_holder = []
    hang_release = threading.Event()

    def compute(design, threshold):
        time.sleep(0.1)
        simulated[design] = simulated.get(design, 0) + 1
        return _publish(store_holder[0], design, threshold)

    chaos = ServiceChaos(crash=("diffeq",), hang=("poly",), hang_seconds=30.0)
    base, store, service = served(
        compute=chaos.wrap(compute), request_timeout=3.0, workers=2, queue_depth=8
    )
    store_holder.append(store)
    service.retry_backoff = 0.01

    # cold single-threaded reference for the stampeded fingerprint
    cold = json.dumps(_report("diffeq", 0.05), indent=2).encode()

    results: list = []

    def stampede():
        results.append(_fetch(f"{base}/campaigns/diffeq?threshold=0.05"))

    threads = [threading.Thread(target=stampede) for _ in range(6)]
    for t in threads:
        t.start()

    # one hung compute in parallel with the stampede
    hung_result: list = []
    hthread = threading.Thread(
        target=lambda: hung_result.append(_fetch(f"{base}/campaigns/poly"))
    )
    hthread.start()

    # one malformed upload in parallel too
    status, body, _, _ = _fetch(
        f"{base}/designs/validate?format=bench", method="POST", body=b"y = FROB(a)\n"
    )
    assert status == 400 and body["error"] == "InputValidationError"

    for t in threads:
        t.join(timeout=30)
    hthread.join(timeout=30)

    # stampede: all 200, byte-identical to the cold path, one simulation
    assert [status for status, *_ in results] == [200] * 6
    assert {raw for _, _, raw, _ in results} == {cold}
    assert simulated["diffeq"] == 1
    assert chaos.crashed == 1  # the crash happened and was absorbed

    # hung compute: structured 504, never a wedged connection
    assert hung_result and hung_result[0][0] == 504
    assert hung_result[0][1]["error"] == "DeadlineExceeded"

    stats = service.stats()
    assert stats["service"]["retries"] >= 1
    assert stats["service"]["deadline_expired"] >= 1
    assert stats["computed"] >= 1
    hang_release.set()


# --------------------------------------------------------- CLI validation
def test_serve_cli_rejects_bad_flags(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    for argv in (
        ["--store-dir", store_dir, "serve", "--port", "70000"],
        ["--store-dir", store_dir, "serve", "--port", "-1"],
        ["--store-dir", store_dir, "serve", "--queue-depth", "0"],
        ["--store-dir", store_dir, "serve", "--queue-depth", "9999"],
        ["--store-dir", store_dir, "serve", "--request-timeout", "0"],
        ["--store-dir", store_dir, "serve", "--request-timeout", "nope"],
        ["--store-dir", store_dir, "serve", "--drain-grace", "-5"],
    ):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert "usage" in capsys.readouterr().err
