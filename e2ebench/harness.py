"""Workload-independent pieces of the end-to-end benchmark.

Nothing here imports ``repro``: these helpers are the benchmark's own
machinery (statistics, host-speed normalization, failure accounting,
seeded input generation and span tracing), unit-tested in
``tests/test_harness.py``.
"""

from __future__ import annotations

import math
import random
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# ------------------------------------------------------------- statistics


def median(values: list[float]) -> float:
    """Median of a non-empty sample (mean of the middle pair when even)."""
    if not values:
        raise ValueError("median of an empty sample")
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile together with the sample it came from."""

    q: float
    value: float
    n: int

    @property
    def beyond(self) -> int:
        """Samples strictly ranked above the percentile's rank."""
        return self.n - max(1, math.ceil(self.q / 100 * self.n))


def percentile(values: list[float], q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    s = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(s)))
    return Percentile(q=q, value=s[rank - 1], n=len(s))


# ------------------------------------------------- host-speed normalization


def probe_kernel() -> None:
    """Fixed work that touches no program code, in the two styles the
    program's classifier and simulators run: interpreter-bound dict
    churn, and many small word-parallel NumPy operations."""
    table: dict[int, int] = {}
    for i in range(4000):
        table[i & 511] = table.get(i & 511, 0) + i
    words = np.arange(1 << 11, dtype=np.uint64).reshape(8, 256)
    rows = np.arange(8, dtype=np.intp)
    for _ in range(100):
        words[rows[3]] = np.bitwise_and.reduce(words[rows[:3]], axis=0) ^ words[rows[4]]


@dataclass
class Interval:
    """One timed block: wall time, the part the program ran, host speed."""

    wall: float = 0.0
    #: wall time minus the probe samples taken inside the block
    program: float = 0.0
    #: mean probe duration over the block (bracketing samples included)
    probe: float = 0.0

    @property
    def reference(self) -> float:
        """Program time rescaled to the host's reference speed."""
        return self.program * SpeedSampler.NOMINAL_S / self.probe


class SpeedSampler:
    """How fast the host runs, sampled while the program runs.

    On a shared host the vCPU flips between fast and slow states many
    times a second, and the mix drifts over minutes: the same pass can
    take 25% longer from one minute to the next.  A timer runs a fixed
    probe kernel, which shares no code with the program, every
    ``interval`` seconds on the main thread; a block timed with
    :meth:`timed` reports its program time (wall minus probe time)
    rescaled by ``NOMINAL_S / mean probe time`` over the block.  Host
    slowdowns slow the probe and the program alike and cancel; a change
    to the program moves its time and leaves the probe alone.
    """

    #: the probe kernel's duration at the reference speed (a constant)
    NOMINAL_S = 0.002

    def __init__(self, kernel=probe_kernel, clock=time.perf_counter, interval: float = 0.05):
        self.kernel = kernel
        self.clock = clock
        self.interval = interval
        self.samples: list[float] = []
        #: total seconds spent inside probe samples
        self.probe_s = 0.0

    def _sample(self) -> None:
        t0 = self.clock()
        self.kernel()
        d = self.clock() - t0
        self.samples.append(d)
        self.probe_s += d

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    @contextmanager
    def _quiet(self):
        """Hold the timer's signal off while bookkeeping runs."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # not SIG_DFL: an alarm already in flight would end the process
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def mark(self) -> tuple[int, float, float]:
        """Sample, then open a block: (first sample index, probe s, start)."""
        with self._quiet():
            self._sample()
            return len(self.samples) - 1, self.probe_s, self.clock()

    def close(self, mark: tuple[int, float, float]) -> Interval:
        """Close the block opened by ``mark``, sampling once more."""
        with self._quiet():
            end = self.clock()
            first, probe_s, start = mark
            inside = self.probe_s - probe_s
            self._sample()
            probes = self.samples[first:]
        wall = end - start
        return Interval(wall=wall, program=wall - inside, probe=sum(probes) / len(probes))

    @contextmanager
    def timed(self):
        """Time the ``with`` block; the yielded Interval is filled on exit."""
        out = Interval()
        mark = self.mark()
        try:
            yield out
        finally:
            done = self.close(mark)
            out.wall, out.program, out.probe = done.wall, done.program, done.probe


# ----------------------------------------------------- failure accounting


@dataclass
class Tally:
    """Attempted and failed operations, with the reason for each failure.

    A request that raises, answers with a non-200 status or returns an
    output that fails a check counts once as failed; a check that is not
    tied to a request (set-up references) counts as its own operation.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason or "unnamed failure")
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# -------------------------------------------------- seeded input generation


class InputPlan:
    """Every input the workload seed controls, and nothing else.

    * the order of the designs within each pass,
    * the controller gate edited in each design (``edit`` workload),
    * the sequence of read requests each pass sends.

    The program under test only ever sees these generated inputs; its
    own seeds (test patterns, Monte-Carlo, fleet sampling) stay at their
    command-line defaults so the outputs are pinned for every seed.
    Each item draws from its own named stream, so asking for pass 3's
    order does not depend on whether pass 2's reads were generated.
    """

    def __init__(self, seed: int, designs: list[str]):
        self.seed = seed
        self.designs = list(designs)

    def _rng(self, *label: object) -> random.Random:
        return random.Random("/".join(str(x) for x in (self.seed, *label)))

    def design_order(self, pass_index: int) -> list[str]:
        order = list(self.designs)
        self._rng("order", pass_index).shuffle(order)
        return order

    def edit_gates(self, eligible: dict[str, list[str]]) -> dict[str, str]:
        """One gate per design, drawn from that design's eligible gates."""
        return {
            design: self._rng("edit", design).choice(sorted(gates))
            for design, gates in sorted(eligible.items())
        }

    def reads(self, pass_index: int, n: int, kinds: tuple[str, ...]) -> list[tuple[str, str]]:
        """``n`` read requests for one pass: every ``(design, kind)`` pair
        equally often, in a seeded order.

        Latencies cluster by pair, so a seeded *mix* would move the
        percentiles from seed to seed; only the order is the seed's.
        """
        pairs = [(d, k) for d in self.designs for k in kinds]
        if n % len(pairs):
            raise ValueError(f"{n} reads do not split evenly over {len(pairs)} pairs")
        reads = pairs * (n // len(pairs))
        self._rng("reads", pass_index).shuffle(reads)
        return reads


# ---------------------------------------------------------------- tracing


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    children: list["Span"] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part of it that child spans cover."""
        inner = [(max(c.start, self.start), min(c.end, self.end)) for c in self.children]
        return self.duration - covered(inner)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """In-memory span tree: name, start, end, parent and counters.

    Spans nest per thread.  A span opened on a thread with no open span
    of its own (an HTTP handler thread, say) becomes a child of the
    root span currently open on the thread that created the tracer, so
    server-side work lands inside the client request that caused it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.roots: list[Span] = []
        self._owner = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        s = Span(name=name, start=self.clock())
        if parent is None:
            self.roots.append(s)
            if threading.get_ident() == self._owner:
                self._root = s
        else:
            with self._lock:
                parent.children.append(s)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            stack.pop()
            if s is self._root:
                self._root = None

    def count(self, key: str, n: float = 1) -> None:
        """Add ``n`` to counter ``key`` of the innermost open span."""
        stack = self._stack()
        target = stack[-1] if stack else self._root
        if target is not None:
            with self._lock:
                target.counts[key] = target.counts.get(key, 0) + n


def walk(spans: list[Span]):
    """Every span of the given trees, depth first."""
    todo = list(reversed(spans))
    while todo:
        s = todo.pop()
        yield s
        todo.extend(reversed(s.children))


def layer_totals(roots: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-name summed self time and summed counters over whole trees."""
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    for s in walk(roots):
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_time
        for key, n in s.counts.items():
            counts[key] = counts.get(key, 0) + n
    return self_s, counts


def coverage(roots: list[Span], layers: frozenset[str]) -> float:
    """Share of the roots' wall time covered by spans named in ``layers``.

    A root that is itself a layer span counts as fully covered.
    """
    total = cov = 0.0
    for root in roots:
        total += root.duration
        if root.name in layers:
            cov += root.duration
            continue
        cov += covered(
            [
                (max(s.start, root.start), min(s.end, root.end))
                for s in walk(root.children)
                if s.name in layers
            ]
        )
    return cov / total if total else 0.0
