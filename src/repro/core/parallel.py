"""Fault-tolerant process-parallel execution of per-fault campaign loops.

The Section-5 flow spends nearly all of its time in per-fault loops --
``fault_simulate`` runs one simulator per collapsed fault and
``grade_sfr_faults`` runs a Monte-Carlo campaign per SFR fault -- with no
data dependencies between faults.  :class:`ParallelExecutor` fans such a
loop across worker processes with ``concurrent.futures``:

* a *context* (netlist, stimulus, golden trace, ...) is shipped to each
  worker exactly once via the pool initializer, not once per task;
* work items are chunked so per-task pickling overhead amortizes across
  many faults;
* ``n_jobs=1`` short-circuits to a plain in-process loop producing
  bit-identical results (the parallel path preserves item order, so
  results are bit-identical there too -- only wall-time changes).

Long campaigns also have to *survive*: a worker OOM-killed mid-chunk, a
simulation that hangs, a transient failure.  Chunks are therefore
submitted as individual futures and each is awaited with an optional
per-chunk ``timeout``; a failed or timed-out chunk is retried with
exponential backoff up to ``max_retries`` times.  A hung or dead worker
compromises the whole pool, so the executor salvages every already
finished sibling future, hard-kills the pool, rebuilds it, and re-runs
only the chunks whose results were actually lost.  When a chunk's retry
budget runs out, a timeout raises
:class:`~repro.core.errors.ChunkTimeout`; a crash or worker exception
degrades gracefully to one in-process serial replay of the chunk (which
also surfaces a deterministic error with its real traceback) unless
``serial_fallback=False``, in which case
:class:`~repro.core.errors.WorkerCrash` (or the original exception) is
raised.  Per-chunk outcomes and aggregate retry/crash/timeout counters
land in :class:`RunReport` (``executor.last_report``).

Workers must be module-level functions of ``(context, item)`` so that they
pickle by reference.  Inside a worker process the per-netlist compile cache
(:func:`repro.logic.simulator.compile_netlist`) makes every simulator after
the first a cheap state allocation.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from .errors import ChunkTimeout, WorkerCrash

#: worker-process global holding (worker function, shared context)
_WORKER_STATE: tuple[Callable, Any] | None = None


def _init_worker(worker: Callable, context: Any) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (worker, context)


def _run_chunk(chunk: Sequence[Any]) -> list[Any]:
    assert _WORKER_STATE is not None, "worker pool not initialised"
    worker, context = _WORKER_STATE
    return [worker(context, item) for item in chunk]


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalise an ``n_jobs`` knob: None/0 -> 1, negative -> all cores,
    positive values capped at the machine's core count (oversubscribing
    worker processes only adds scheduling overhead)."""
    cores = max(1, os.cpu_count() or 1)
    if not n_jobs:
        return 1
    if n_jobs < 0:
        return cores
    return min(n_jobs, cores)


def _chunked(items: Sequence[Any], size: int) -> Iterable[Sequence[Any]]:
    for start in range(0, len(items), size):
        yield items[start : start + size]


@dataclass
class ChunkOutcome:
    """Fate of one submitted chunk across all its attempts."""

    index: int
    n_items: int
    attempts: int = 0
    #: 'pending' -> 'ok' | 'serial' (in-process fallback) | 'timed-out' | 'failed'
    status: str = "pending"
    #: failure kind per unsuccessful attempt: 'timeout' | 'crash' | 'error'
    failures: list[str] = field(default_factory=list)


@dataclass
class RunReport:
    """Resilience summary of one :meth:`ParallelExecutor.run` campaign."""

    n_items: int = 0
    n_chunks: int = 0
    completed: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0
    #: items seeded from an earlier campaign instead of computed -- a
    #: baseline's per-fault results, or the grading campaign behind an
    #: activity view (filled by the campaign layer, not by the executor)
    resumed: int = 0
    #: items replayed from per-fault store entries by the incremental
    #: planner (filled by the pipeline layer; see :mod:`repro.incremental`)
    replayed: int = 0
    chunks: list[ChunkOutcome] = field(default_factory=list)
    #: faults re-evaluated on an independent path by the integrity layer
    #: (filled by the campaign layer; see :mod:`repro.core.integrity`)
    audited: int = 0
    #: distinct faults quarantined by integrity violations
    quarantined: int = 0
    #: structured integrity violations recorded by the guard layer
    violations: list = field(default_factory=list)

    def has_incidents(self) -> bool:
        """True if anything beyond a clean first-attempt run happened."""
        return bool(
            self.retries
            or self.timeouts
            or self.crashes
            or self.pool_rebuilds
            or self.serial_fallbacks
            or self.violations
        )


class ParallelExecutor:
    """Run ``worker(context, item)`` over items, optionally across processes.

    Args:
        n_jobs: worker processes; 1 (default) runs serially in-process,
            negative means one per CPU core.
        chunk_size: items per task; defaults to an even split across
            workers capped at 8 so long campaigns still load-balance.
        timeout: seconds to wait for each chunk's result once the executor
            starts awaiting it; ``None`` waits forever.  A timed-out chunk
            hard-kills the pool (the hung worker would otherwise run on)
            and is retried against a fresh pool.
        max_retries: extra attempts granted to a failed/timed-out chunk
            before it is resolved terminally.
        backoff: base of the exponential retry delay -- attempt *k*
            sleeps ``backoff * 2**(k-1)`` seconds before resubmission.
        serial_fallback: when a chunk exhausts its retries through crashes
            or worker exceptions, replay it in-process (graceful
            degradation; deterministic errors then surface with their real
            traceback).  ``False`` raises
            :class:`~repro.core.errors.WorkerCrash` / the original
            exception instead.
    """

    def __init__(
        self,
        n_jobs: int = 1,
        chunk_size: int | None = None,
        timeout: float | None = None,
        max_retries: int = 2,
        backoff: float = 0.05,
        serial_fallback: bool = True,
    ):
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.chunk_size = chunk_size
        self.timeout = timeout
        self.max_retries = max(0, max_retries)
        self.backoff = backoff
        self.serial_fallback = serial_fallback
        #: report of the most recent :meth:`run`
        self.last_report: RunReport | None = None

    def _chunk_size_for(self, n_items: int) -> int:
        if self.chunk_size:
            return self.chunk_size
        return max(1, min(8, n_items // (4 * self.n_jobs) or 1))

    def run(
        self,
        worker: Callable[[Any, Any], Any],
        items: Sequence[Any],
        context: Any = None,
        on_chunk: Callable[[Sequence[Any], Sequence[Any]], None] | None = None,
    ) -> list[Any]:
        """Apply ``worker`` to every item, preserving order.

        ``worker`` must be a module-level (picklable) function when
        ``n_jobs > 1``.  ``on_chunk(items_slice, results_slice)`` fires in
        the coordinating process as each chunk completes (in completion
        order) -- campaigns collect and tamper-check results off this hook.
        """
        items = list(items)
        report = RunReport(n_items=len(items))
        self.last_report = report
        if self.n_jobs == 1 or len(items) <= 1:
            # Serial (or trivially small) campaigns never construct a pool.
            results: list[Any] = []
            for item in items:
                out = worker(context, item)
                results.append(out)
                if on_chunk is not None:
                    on_chunk([item], [out])
            report.n_chunks = len(items)
            report.completed = len(items)
            report.chunks = [
                ChunkOutcome(index=i, n_items=1, attempts=1, status="ok")
                for i in range(len(items))
            ]
            return results
        chunks = list(_chunked(items, self._chunk_size_for(len(items))))
        per_chunk = self._run_resilient(worker, context, chunks, report, on_chunk)
        return [result for chunk_results in per_chunk for result in chunk_results]

    # ------------------------------------------------------- parallel core
    def _new_pool(self, worker: Callable, context: Any, n_tasks: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max(1, min(self.n_jobs, n_tasks)),
            initializer=_init_worker,
            initargs=(worker, context),
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Hard-stop a compromised pool.

        ``shutdown`` alone leaves a hung worker running (and would block
        interpreter exit on join), so live worker processes are terminated
        outright.  The process table is snapshotted first: ``shutdown``
        drops the pool's ``_processes`` reference even with ``wait=False``.
        """
        processes = dict(getattr(pool, "_processes", None) or {})
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in processes.values():
            if proc.is_alive():
                proc.terminate()

    def _run_resilient(
        self,
        worker: Callable,
        context: Any,
        chunks: list[Sequence[Any]],
        report: RunReport,
        on_chunk: Callable[[Sequence[Any], Sequence[Any]], None] | None,
    ) -> list[list[Any]]:
        outcomes = [ChunkOutcome(index=i, n_items=len(c)) for i, c in enumerate(chunks)]
        report.n_chunks = len(chunks)
        report.chunks = outcomes
        results: list[list[Any] | None] = [None] * len(chunks)

        def complete(i: int, out: list[Any], status: str = "ok") -> None:
            results[i] = out
            outcomes[i].status = status
            report.completed += outcomes[i].n_items
            if on_chunk is not None:
                on_chunk(chunks[i], out)

        pending = list(range(len(chunks)))
        pool: ProcessPoolExecutor | None = None
        try:
            while pending:
                retry_wave = [i for i in pending if outcomes[i].attempts]
                if retry_wave:
                    report.retries += len(retry_wave)
                    wave = min(outcomes[i].attempts for i in retry_wave)
                    time.sleep(self.backoff * (2 ** (wave - 1)))
                if pool is None:
                    pool = self._new_pool(worker, context, len(pending))
                for i in pending:
                    outcomes[i].attempts += 1
                futures = [(i, pool.submit(_run_chunk, chunks[i])) for i in pending]
                failed: list[tuple[int, str, BaseException | None]] = []
                lost: list[int] = []
                for pos, (i, fut) in enumerate(futures):
                    try:
                        out = fut.result(timeout=self.timeout)
                    except FuturesTimeout:
                        report.timeouts += 1
                        failed.append((i, "timeout", None))
                    except BrokenExecutor as exc:
                        report.crashes += 1
                        failed.append((i, "crash", exc))
                    except Exception as exc:
                        # the worker itself raised; the pool is still healthy
                        failed.append((i, "error", exc))
                        continue
                    else:
                        complete(i, out)
                        continue
                    # A hung or dead worker compromises the whole pool:
                    # salvage finished siblings, requeue the truly lost,
                    # and rebuild from scratch.
                    for j, sibling in futures[pos + 1 :]:
                        if sibling.done() and not sibling.cancelled():
                            exc = sibling.exception()
                            if exc is None:
                                complete(j, sibling.result())
                            elif isinstance(exc, BrokenExecutor):
                                lost.append(j)
                            else:
                                failed.append((j, "error", exc))
                        else:
                            lost.append(j)
                    self._kill_pool(pool)
                    pool = None
                    report.pool_rebuilds += 1
                    break
                # Collateral losses never ran to failure -- their retry is
                # free (the guilty chunk's own budget bounds the loop).
                for j in lost:
                    outcomes[j].attempts -= 1
                pending = list(lost)
                for i, kind, exc in failed:
                    outcomes[i].failures.append(kind)
                    if outcomes[i].attempts <= self.max_retries:
                        pending.append(i)
                        continue
                    pending.sort()
                    if kind == "timeout":
                        outcomes[i].status = "timed-out"
                        raise ChunkTimeout(
                            f"chunk {i} ({outcomes[i].n_items} items) exceeded "
                            f"the {self.timeout}s timeout on all "
                            f"{outcomes[i].attempts} attempts"
                        )
                    if not self.serial_fallback:
                        outcomes[i].status = "failed"
                        if kind == "crash":
                            raise WorkerCrash(
                                f"chunk {i} ({outcomes[i].n_items} items) lost "
                                f"its worker on all {outcomes[i].attempts} "
                                f"attempts: {exc}"
                            ) from exc
                        assert exc is not None
                        raise exc
                    # Graceful degradation: one in-process replay.  A
                    # deterministic worker error re-raises here with its
                    # true traceback; a crashy-environment chunk completes.
                    report.serial_fallbacks += 1
                    complete(i, [worker(context, item) for item in chunks[i]], "serial")
                pending.sort()
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]
