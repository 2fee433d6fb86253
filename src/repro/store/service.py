"""Crash-tolerant campaign service core behind ``repro-faults serve``.

PR 4's server computed misses under one process-wide lock: correct, but
a stampede of distinct designs serialized behind a single compute, a
hung compute wedged every client forever, and overload was unbounded
thread pileup.  :class:`CampaignService` replaces the lock with a real
service core, transport-agnostic so protocol front ends
(:mod:`repro.store.server` today, others later) stay thin:

* **request coalescing** -- concurrent requests for the same
  ``(design, threshold)`` fingerprint attach to one in-flight
  :class:`Job`; one simulation runs, every waiter gets its report.
  Cached reads never touch the job machinery, so warm traffic for other
  designs is never blocked by a compute;
* **bounded admission** -- at most ``queue_depth`` distinct jobs may be
  queued or running; excess submissions raise
  :class:`~repro.core.errors.ServiceOverloaded` (HTTP 503 +
  ``Retry-After``) instead of piling up threads;
* **per-request deadlines** -- with ``request_timeout`` set, a compute
  that outlives its deadline is *abandoned*: the waiters get
  :class:`~repro.core.errors.DeadlineExceeded` (HTTP 504), the job
  moves to a quarantine map (repeat requests fail fast instead of
  re-wedging), and the worker slot is reclaimed because each attempt
  runs on a disposable thread.  If the stray attempt eventually
  finishes, it resolves the quarantine -- its result was published to
  the content-addressed store, so the next request is a cache hit;
* **job-level retries** -- a compute attempt that dies with a retryable
  failure (:func:`repro.core.errors.is_retryable`: chunk timeouts,
  store lock contention) is retried with exponential
  backoff.  The CLI's compute hook publishes every finished stage to
  the store, so a retry replays them bit-identically and recomputes
  only the stage that was in flight;
* **memoized cached reads** -- a read without a threshold resolves the
  design's newest ``report`` row from one index query and rereads and
  rehashes its blob every time; the parsed report and its rendered
  bodies are memoized per blob sha (:data:`MEMO_ENTRIES` blobs, least
  recently used out first).  A blob is named by the hash of its
  content, so an entry can never be stale;
* **graceful drain** -- :meth:`drain` refuses new compute jobs
  (cached reads still serve) and waits for in-flight jobs to finish,
  the SIGTERM path of ``repro-faults serve``.

The compute pool is ``workers`` daemon threads draining one job queue,
started by the first admitted job: a service that only serves cached
reads (``serve --no-compute``) runs no thread of its own.  A worker
never dies, so nothing supervises it: each attempt runs on a disposable
thread whose ``_attempt`` catches ``BaseException`` and hands it to the
waiters, and the worker loop catches ``Exception`` around the rest.
The threads are daemons so that a compute wedged without a deadline
cannot keep ``serve`` from exiting after the drain grace.

Counters feed ``/stats`` and the ``/readyz`` readiness probe.
"""

from __future__ import annotations

import json
import logging
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.errors import (
    DeadlineExceeded,
    ServiceOverloaded,
    is_retryable,
)
from ..core.grading import DEFAULT_THRESHOLD
from .cache import CampaignStore
from .fingerprint import digest
from .query import _fault_rows, query_campaigns

logger = logging.getLogger(__name__)

#: compute-on-miss hook: (design, threshold) -> report dict (already published)
ComputeFn = Callable[[str, float], dict]

#: fleet-calibration hook: (design, fleet params dict) -> report dict
CalibrateFn = Callable[[str, dict], dict]

DEFAULT_QUEUE_DEPTH = 8
DEFAULT_WORKERS = 2
DEFAULT_MAX_RETRIES = 2
#: seconds a draining service waits for its in-flight jobs
DEFAULT_DRAIN_GRACE = 30.0
RETRY_BACKOFF_S = 0.05

#: report blobs whose parsed report and rendered bodies a service keeps
MEMO_ENTRIES = 16


def json_body(payload: Any) -> bytes:
    """The bytes the server sends for a JSON payload."""
    return json.dumps(payload, indent=2, allow_nan=False).encode("utf-8")


def campaign_view(report: dict, view: str, verdict: str | None) -> Any:
    """The payload of one campaign view: the report (with its
    ``matched_faults`` under a verdict filter) or its ``faults`` rows."""
    if view == "faults":
        return _fault_rows(report, verdict)
    if verdict is None:
        return report
    return dict(report, matched_faults=_fault_rows(report, verdict))


@dataclass
class _Memo:
    """One report blob's parsed report and its rendered bodies."""

    report: dict
    #: (view, verdict) -> served bytes
    bodies: dict[tuple[str, str | None], bytes] = field(default_factory=dict)


def job_key(design: str, threshold: float) -> str:
    """Coalescing fingerprint of one campaign compute job."""
    return digest({"job": "campaign", "design": design, "threshold": threshold})


def calibrate_job_key(design: str, params: dict) -> str:
    """Coalescing fingerprint of one fleet-calibration job."""
    return digest({"job": "calibrate", "design": design, "params": params})


@dataclass
class Job:
    """One admitted compute job and everything waiting on it."""

    key: str
    design: str
    threshold: float
    #: which compute hook runs this job: "campaign" or "calibrate"
    kind: str = "campaign"
    #: kind-specific parameters (fleet configuration for "calibrate")
    params: dict = field(default_factory=dict)
    done: threading.Event = field(default_factory=threading.Event)
    report: dict | None = None
    error: BaseException | None = None
    attempts: int = 0
    waiters: int = 0
    #: deadline expired; the attempt thread may still be running detached
    abandoned: bool = False

    def resolve(self, report: dict | None = None, error: BaseException | None = None) -> None:
        self.report = report
        self.error = error
        self.done.set()


class CampaignService:
    """Transport-agnostic campaign-compute service over a store.

    Thread-safe; one instance is shared by every protocol handler
    thread.  ``compute`` is the injected miss hook
    ``(design, threshold) -> report`` (the CLI wires the real
    cache-aware pipeline; tests inject stubs and chaos wrappers).
    """

    def __init__(
        self,
        store: CampaignStore,
        compute: ComputeFn | None = None,
        compute_calibrate: CalibrateFn | None = None,
        designs: tuple[str, ...] = (),
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        workers: int = DEFAULT_WORKERS,
        request_timeout: float | None = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        retry_backoff: float = RETRY_BACKOFF_S,
        default_threshold: float = DEFAULT_THRESHOLD,
    ):
        self.store = store
        self.compute = compute
        self.compute_calibrate = compute_calibrate
        self.designs = designs
        self.queue_depth = queue_depth
        self.workers = workers
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.default_threshold = default_threshold

        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}  # admitted: queued or running
        self._quarantine: dict[str, Job] = {}  # abandoned after deadline expiry
        self._queue: queue.Queue[Job | None] = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._draining = False
        self._stopped = False
        # blob sha -> memoized read, least recently used first
        self._memo: OrderedDict[str, _Memo] = OrderedDict()

        # ---- counters surfaced by /stats
        self.requests = 0
        self.served_cached = 0
        self.computed = 0
        self.coalesced = 0
        self.retries = 0
        self.deadline_expired = 0
        self.rejected_overload = 0
        self.compute_errors = 0
        self.memo_hits = 0
        self.memo_misses = 0

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "CampaignService":
        """Spawn the worker pool (idempotent; :meth:`_admit` calls it)."""
        with self._lock:
            if self._threads or self._stopped:
                return self
            for n in range(1, self.workers + 1):
                t = threading.Thread(
                    target=self._worker_loop, name=f"svc-worker-{n}", daemon=True
                )
                t.start()
                self._threads.append(t)
        return self

    def stop(self) -> None:
        """Stop the worker pool without waiting for queued jobs."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            threads, self._threads = self._threads, []
        for _ in threads:
            self._queue.put(None)
        for t in threads:
            t.join(timeout=1.0)

    def drain(self, grace: float = DEFAULT_DRAIN_GRACE) -> bool:
        """Refuse new compute work and wait for in-flight jobs.

        Cached reads keep serving while the transport stays up.  Returns
        True when every admitted job finished within ``grace`` seconds.
        """
        with self._lock:
            self._draining = True
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            with self._lock:
                pending = list(self._jobs.values())
            if not pending:
                logger.info("service drain complete")
                return True
            for job in pending:
                job.done.wait(timeout=max(0.0, deadline - time.monotonic()))
        with self._lock:
            leftover = len(self._jobs)
        if leftover:
            logger.warning("service drain timed out with %d job(s) in flight", leftover)
        return leftover == 0

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # ------------------------------------------------------------- probes
    def ready(self) -> tuple[bool, dict]:
        """Readiness: store reachable, not draining, queue not saturated."""
        detail: dict = {"draining": False, "queue_saturated": False, "store": True}
        ok = True
        with self._lock:
            if self._draining or self._stopped:
                detail["draining"] = True
                ok = False
            if len(self._jobs) >= self.queue_depth:
                detail["queue_saturated"] = True
                ok = False
        try:
            self.store.artifacts.stats()
        except Exception as exc:  # unreadable index/lock dir -> not ready
            detail["store"] = False
            detail["store_error"] = f"{type(exc).__name__}: {exc}"
            ok = False
        detail["ready"] = ok
        return ok, detail

    def stats(self) -> dict:
        with self._lock:
            service = {
                "queue_depth": self.queue_depth,
                "workers": self.workers,
                "request_timeout": self.request_timeout,
                "in_flight": len(self._jobs),
                "coalesced": self.coalesced,
                "retries": self.retries,
                "deadline_expired": self.deadline_expired,
                "rejected_overload": self.rejected_overload,
                "compute_errors": self.compute_errors,
                "draining": self._draining,
                "memo_hits": self.memo_hits,
                "memo_misses": self.memo_misses,
                "quarantined": sorted(
                    f"{j.design}@{j.threshold}" for j in self._quarantine.values()
                ),
            }
            top = {
                "requests": self.requests,
                "served_cached": self.served_cached,
                "computed": self.computed,
            }
        # Fault-granular reuse accounting: every merged incremental
        # campaign records one "faultsim-incremental" provenance row
        # (see repro.incremental), so near-duplicate uploads show up as
        # replays with the wall time their baselines originally paid.
        inc = [p for p in self.store.provenance if p.stage == "faultsim-incremental"]
        top["incremental_replays"] = len(inc)
        top["incremental_saved_s"] = sum(p.saved_s for p in inc)
        return {"store": self.store.artifacts.stats(), **top, "service": service}

    # ------------------------------------------------------------ requests
    def count_request(self) -> None:
        with self._lock:
            self.requests += 1

    def campaign(self, design: str, threshold: float | None) -> dict | None:
        """Newest cached report for a design, computing (at most once per
        distinct fingerprint) on miss.

        Returns None when computation is disabled and nothing is cached.
        Without a threshold the report is the memoized one, shared by
        every reader of its blob: callers must not mutate it.
        Raises :class:`ServiceOverloaded`, :class:`DeadlineExceeded`, or
        whatever terminal error the compute job died with.
        """
        if threshold is None:
            report = self._newest_report(design)
        else:
            matches = query_campaigns(self.store, design=design, threshold=threshold)
            report = max(matches, key=lambda m: m.created_at).report if matches else None
        if report is not None:
            with self._lock:
                self.served_cached += 1
            return report
        if self.compute is None:
            return None
        effective = threshold if threshold is not None else self.default_threshold
        job = self._admit(
            Job(key=job_key(design, effective), design=design, threshold=effective)
        )
        return self._await(job)

    def _newest_report(self, design: str) -> dict | None:
        """The newest intact report of a design; its blob is reread and
        rehashed on every call, only the parse is memoized."""
        found = self.store.newest("report", design)
        if found is None:
            return None
        row, data = found
        with self._lock:
            memo = self._memo.get(row.blob_sha)
            if memo is not None:
                self._memo.move_to_end(row.blob_sha)
                return memo.report
        report = json.loads(data)
        with self._lock:
            memo = self._memo.setdefault(row.blob_sha, _Memo(report))
            while len(self._memo) > MEMO_ENTRIES:
                self._memo.popitem(last=False)
        return memo.report

    def render(self, report: dict, view: str, verdict: str | None) -> bytes:
        """The served bytes of one view of a report :meth:`campaign`
        returned (see :func:`campaign_view`); memoized when the report
        was read from the store without a threshold."""
        with self._lock:
            memo = next((m for m in self._memo.values() if m.report is report), None)
            body = None if memo is None else memo.bodies.get((view, verdict))
            if memo is not None:
                if body is None:
                    self.memo_misses += 1
                else:
                    self.memo_hits += 1
        if body is None:
            body = json_body(campaign_view(report, view, verdict))
            if memo is not None:
                with self._lock:
                    memo.bodies[(view, verdict)] = body
        return body

    def calibrate(self, design: str, params: dict) -> dict | None:
        """Fleet-calibration report for a design (compute hook required).

        Calibrate jobs ride the same machinery as campaign computes:
        per-configuration coalescing (the job key fingerprints the fleet
        parameters), bounded admission, deadlines, retries and drain.
        The hook itself is store-aware, so a warm store makes the job a
        pure replay.  Returns None when no calibrate hook is wired.
        """
        if self.compute_calibrate is None:
            return None
        job = self._admit(
            Job(
                key=calibrate_job_key(design, params),
                design=design,
                threshold=self.default_threshold,
                kind="calibrate",
                params=params,
            )
        )
        return self._await(job)

    def _admit(self, new_job: Job) -> Job:
        key = new_job.key
        with self._lock:
            if self._draining or self._stopped:
                raise ServiceOverloaded(
                    "service is draining and accepts no new compute jobs",
                    retry_after=5.0,
                )
            stale = self._quarantine.get(key)
            if stale is not None:
                # fail fast instead of stacking a second compute behind a
                # wedged one; the stray attempt clears this when it ends.
                self.deadline_expired += 1
                raise DeadlineExceeded(
                    f"{new_job.kind} job for {new_job.design!r} is quarantined "
                    f"after a deadline expiry; retry once the job clears"
                )
            job = self._jobs.get(key)
            if job is not None:
                job.waiters += 1
                self.coalesced += 1
                return job
            if len(self._jobs) >= self.queue_depth:
                self.rejected_overload += 1
                raise ServiceOverloaded(
                    f"compute queue is full ({self.queue_depth} jobs admitted)",
                    retry_after=max(1.0, self.request_timeout or 1.0),
                )
            job = new_job
            job.waiters = 1
            self._jobs[key] = job
        self._queue.put(job)
        self.start()
        return job

    def _await(self, job: Job) -> dict:
        finished = job.done.wait(
            timeout=None if self.request_timeout is None else self.request_timeout
        )
        if not finished:
            # Waiter-side deadline: the job may still be queued (not hung);
            # if nobody is left waiting and it never started, cancel it.
            with self._lock:
                job.waiters -= 1
                self.deadline_expired += 1
                if job.waiters <= 0 and job.attempts == 0:
                    job.abandoned = True
                    self._jobs.pop(job.key, None)
            raise DeadlineExceeded(
                f"request deadline ({self.request_timeout}s) expired before the "
                f"compute job for {job.design!r} finished"
            )
        if job.error is not None:
            raise job.error
        assert job.report is not None
        return job.report

    # ------------------------------------------------------------- workers
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            if job.abandoned:  # every waiter gave up before we started
                continue
            try:
                self._run_job(job)
            except Exception:  # pragma: no cover - defensive: keep the pool alive
                logger.exception("service: job %s crashed the worker loop", job.key)
                self._finish(job, error=job.error or RuntimeError("worker loop error"))

    def _run_job(self, job: Job) -> None:
        deadline = (
            None
            if self.request_timeout is None
            else time.monotonic() + self.request_timeout
        )
        while True:
            job.attempts += 1
            attempt_done = threading.Event()
            holder: dict = {}
            thread = threading.Thread(
                target=self._attempt,
                args=(job, holder, attempt_done),
                name=f"svc-compute-{job.design}",
                daemon=True,
            )
            thread.start()
            budget = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not attempt_done.wait(timeout=budget):
                self._abandon(job)
                return
            error = holder.get("error")
            if error is None:
                self._finish(job, report=holder.get("report"))
                return
            out_of_time = deadline is not None and time.monotonic() >= deadline
            if is_retryable(error) and job.attempts <= self.max_retries and not out_of_time:
                with self._lock:
                    self.retries += 1
                logger.warning(
                    "service: compute %s attempt %d failed (%s: %s); retrying",
                    job.design,
                    job.attempts,
                    type(error).__name__,
                    error,
                )
                time.sleep(self.retry_backoff * 2 ** (job.attempts - 1))
                continue
            self._finish(job, error=error)
            return

    def _attempt(self, job: Job, holder: dict, attempt_done: threading.Event) -> None:
        try:
            if job.kind == "calibrate":
                assert self.compute_calibrate is not None
                holder["report"] = self.compute_calibrate(job.design, job.params)
            else:
                assert self.compute is not None
                holder["report"] = self.compute(job.design, job.threshold)
        except BaseException as exc:  # noqa: BLE001 - ferried to the waiters
            holder["error"] = exc
        finally:
            attempt_done.set()
            with self._lock:
                stray = job.abandoned and self._quarantine.get(job.key) is job
                if stray:
                    # The wedged attempt finally ended.  Its result (if any)
                    # was published to the store by the compute hook, so the
                    # next request is a plain cache hit; either way the
                    # fingerprint is computable again.
                    del self._quarantine[job.key]
            if stray:
                logger.info(
                    "service: abandoned compute for %s finished (%s)",
                    job.design,
                    "error" if "error" in holder else "published",
                )

    def _finish(self, job: Job, report: dict | None = None, error: BaseException | None = None) -> None:
        with self._lock:
            self._jobs.pop(job.key, None)
            if error is None:
                self.computed += 1
            else:
                self.compute_errors += 1
        job.resolve(report=report, error=error)

    def _abandon(self, job: Job) -> None:
        """Deadline expired mid-compute: quarantine and reclaim the slot."""
        with self._lock:
            job.abandoned = True
            self._jobs.pop(job.key, None)
            self._quarantine[job.key] = job
            self.deadline_expired += 1
        logger.warning(
            "service: compute for %s exceeded the %ss deadline; job quarantined",
            job.design,
            self.request_timeout,
        )
        job.resolve(
            error=DeadlineExceeded(
                f"compute for {job.design!r} exceeded the "
                f"{self.request_timeout}s request deadline"
            )
        )
