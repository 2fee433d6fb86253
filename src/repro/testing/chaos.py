"""Deterministic, seedable chaos injection for campaign pipelines.

The recovery machinery (worker-crash rebuilds, chunk timeouts,
retries -- ``repro.core.parallel``) and the integrity machinery
(differential audits, invariant guards -- ``repro.core.integrity``)
both exist for failures that are rare in a clean CI environment.  This
module injects those failures on purpose, deterministically, so both
layers are exercised end-to-end on every run instead of only through
hand-built test doubles:

* **worker crash** -- a chunk's worker process calls ``os._exit`` on its
  first attempt (the pool-rebuild + retry path);
* **worker hang** -- a chunk's worker sleeps far past any timeout on its
  first attempt (the kill-pool + retry path; requires a timeout);
* **bit-flipped power word / verdict** -- a computed result is corrupted
  in flight, exactly as a bad DIMM or a cosmic ray would, targeted at
  *audited* faults so the differential audit provably catches it.

Every decision is a pure hash of ``(seed, kind, fault key)`` -- no RNG
state, no wall clock -- so a chaos campaign is reproducible bit for bit,
and "first attempt only" state lives in flag files under a work
directory (worker processes share no memory with the coordinator).

A chaos spec is a comma-separated string, e.g.::

    crash:0.15,hang:0.1,bitflip:1,seed:7

parsed by :class:`ChaosSpec.parse`.  The contract mirrors the
robustness layer's: **chaos never changes final results** -- crashes
and hangs are absorbed by retries, flipped verdicts are restored from
the audit's serial reference, and flipped powers are quarantined out.
``tests/test_chaos.py`` and the CI chaos job enforce this.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import struct
import tempfile
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..core import parallel as _parallel
from ..core.errors import CampaignError

#: how long a chaos-hung worker sleeps; anything far past a sane timeout
HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class ChaosSpec:
    """Parsed chaos knobs; all injection is off by default."""

    crash: float = 0.0  # per-chunk probability of a first-attempt worker death
    hang: float = 0.0  # per-chunk probability of a first-attempt hang
    bitflip: int = 0  # number of audited faults whose results get corrupted
    seed: int = 0  # salts every hash decision

    _FIELDS = {"crash": float, "hang": float, "bitflip": int, "seed": int}

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """Parse ``"crash:0.15,bitflip:1,seed:7"`` into a spec.

        Raises :class:`~repro.core.errors.CampaignError` on unknown keys
        or out-of-range values, so a typo dies at the CLI boundary.
        """
        values: dict[str, Any] = {}
        for part in filter(None, (p.strip() for p in text.split(","))):
            key, sep, raw = part.partition(":")
            if not sep:
                key, sep, raw = part.partition("=")
            kind = cls._FIELDS.get(key)
            if kind is None:
                raise CampaignError(
                    f"unknown chaos knob {key!r}; valid knobs: "
                    f"{', '.join(sorted(cls._FIELDS))}"
                )
            try:
                values[key] = kind(raw)
            except ValueError:
                raise CampaignError(
                    f"chaos knob {key!r} needs a {kind.__name__}, got {raw!r}"
                ) from None
        spec = cls(**values)
        for name in ("crash", "hang"):
            rate = getattr(spec, name)
            if not 0.0 <= rate < 1.0:
                raise CampaignError(
                    f"chaos {name} rate must be in [0, 1), got {rate}"
                )
        if spec.bitflip < 0:
            raise CampaignError("chaos bitflip count must be >= 0")
        return spec

    @property
    def active(self) -> bool:
        return bool(self.crash or self.hang or self.bitflip)


def _fraction(seed: int, kind: str, key: str) -> float:
    """Deterministic uniform-[0,1) decision hash."""
    digest = hashlib.sha256(f"chaos:{seed}:{kind}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def _flag_once(workdir: str, kind: str, key: str) -> bool:
    """True exactly once per (kind, key), across processes."""
    tag = hashlib.sha256(f"{kind}:{key}".encode("utf-8")).hexdigest()[:16]
    try:
        with open(Path(workdir) / f"{kind}-{tag}", "x"):
            return True
    except FileExistsError:
        return False


def _item_key(item: Any) -> str:
    """Stable key of one work item (a FaultSite, a chunk of them, ...)."""
    from ..logic.faults import fault_key

    probe = item[0] if isinstance(item, (list, tuple)) and item else item
    try:
        return fault_key(probe)
    except (AttributeError, TypeError):
        return repr(probe)


def _chaos_worker(context: Any, item: Any) -> Any:
    """Module-level (picklable) wrapper injecting crash/hang faults.

    Injection only fires inside a real worker process (the executor's
    serial path and the in-process serial fallback run in the
    coordinator, where an ``os._exit`` would kill the campaign itself
    instead of simulating a lost worker).
    """
    worker, inner_context, spec, workdir = context
    if _parallel._WORKER_STATE is not None:
        key = _item_key(item)
        if _fraction(spec.seed, "crash", key) < spec.crash and _flag_once(
            workdir, "crash", key
        ):
            os._exit(13)
        if _fraction(spec.seed, "hang", key) < spec.hang and _flag_once(
            workdir, "hang", key
        ):
            time.sleep(HANG_SECONDS)
    return worker(inner_context, item)


def flip_float_bit(value: float, bit: int = 60) -> float:
    """Flip one bit of a float's IEEE-754 representation.

    Bit 60 sits in the exponent, so the flipped value is wildly wrong
    (the realistic signature of memory corruption) while staying
    deterministic.
    """
    (word,) = struct.unpack("<Q", struct.pack("<d", value))
    (flipped,) = struct.unpack("<d", struct.pack("<Q", word ^ (1 << bit)))
    return flipped


class ChaosEngine:
    """One campaign's chaos decisions, built from a :class:`ChaosSpec`.

    The engine wraps campaign workers (crash/hang injection inside the
    pool) and tampers with completed results in the coordinator
    (bit-flips).  Flip targets are chosen from the *audited* fault keys
    -- the point of the exercise is to prove the audit catches silent
    corruption, so the corruption is aimed where the audit looks.
    """

    def __init__(self, spec: ChaosSpec, workdir: str | None = None):
        self.spec = spec
        self._workdir = workdir
        if workdir is not None:
            Path(workdir).mkdir(parents=True, exist_ok=True)
        self._flip_targets: set[str] = set()

    @property
    def workdir(self) -> str:
        """The flag-file directory of crash/hang injection.

        A caller-passed directory is used as is and left in place.
        Otherwise a temporary one is made on first use and removed once
        the engine is gone, so bit-flip-only engines never make one."""
        if self._workdir is None:
            self._workdir = tempfile.mkdtemp(prefix="repro-chaos-")
            weakref.finalize(self, shutil.rmtree, self._workdir, ignore_errors=True)
        return self._workdir

    @classmethod
    def from_spec(cls, text: str | None, workdir: str | None = None) -> "ChaosEngine | None":
        """Build an engine from a spec string; None when chaos is off."""
        if not text:
            return None
        return cls(ChaosSpec.parse(text), workdir=workdir)

    # ------------------------------------------------------- worker faults
    def wrap(self, worker: Callable, context: Any) -> tuple[Callable, Any]:
        """Wrap a campaign worker with crash/hang injection."""
        if not (self.spec.crash or self.spec.hang):
            return worker, context
        return _chaos_worker, (worker, context, self.spec, self.workdir)

    # ----------------------------------------------------------- bit-flips
    def set_flip_targets(self, audited_keys: list[str]) -> None:
        """Aim ``spec.bitflip`` corruptions at audited faults.

        Keys are ranked by decision hash so the target set is stable for
        any ordering of the input list.
        """
        ranked = sorted(audited_keys, key=lambda k: _fraction(self.spec.seed, "flip", k))
        self._flip_targets = set(ranked[: self.spec.bitflip])

    @property
    def flip_targets(self) -> set[str]:
        return set(self._flip_targets)

    def tamper_verdict(self, key: str, outcome: tuple) -> tuple:
        """Flip a fault-simulation verdict for targeted faults."""
        if key not in self._flip_targets:
            return outcome
        from ..logic.faultsim import Verdict

        verdict, cycle = outcome
        if verdict is Verdict.DETECTED:
            return (Verdict.UNDETECTED, -1)
        return (Verdict.DETECTED, max(0, cycle))

    def tamper_power(self, key: str, mc: Any) -> Any:
        """Flip an exponent bit in a Monte-Carlo power word."""
        if key not in self._flip_targets:
            return mc
        from ..power.montecarlo import MonteCarloResult

        return MonteCarloResult(
            power_uw=flip_float_bit(mc.power_uw),
            batches=mc.batches,
            patterns=mc.patterns,
            history=list(mc.history),
            converged=mc.converged,
        )


# --------------------------------------------------------------- service
class ServiceChaos:
    """Injectable compute-hook faults for the campaign *service* layer.

    :class:`ChaosEngine` above exercises the in-campaign recovery
    machinery (pool rebuilds, audits).  This class
    exercises the layer on top -- :class:`repro.store.service.
    CampaignService` -- by wrapping the ``(design, threshold) ->
    report`` compute hook the service calls on a cache miss:

    * **crash** -- the first ``crash_attempts`` compute attempts for a
      listed design raise :class:`~repro.core.errors.ChunkTimeout`, as
      the executor does when a chunk exhausts its attempts (retryable:
      the service's job-level retry must absorb it and,
      when the hook is store-backed, replay the stages the failed
      attempt published);
    * **hang** -- the first attempt for a listed design sleeps
      ``hang_seconds`` (far past any sane request deadline), driving
      the 504/abandon/quarantine path;
    * **corrupt** -- after a listed design's report is computed and
      published, one byte of the newest ``report`` blob in the store is
      damaged, so the next cached read must quarantine-and-recompute
      instead of serving garbage.

    No injection kills a service worker thread: a worker never dies
    (each attempt runs on a disposable thread that hands every exception
    to the waiters), so there is no recovery path to exercise.

    All decisions are per-design and first-N-attempts only, tracked
    in-memory under a lock (the service runs its computes in threads of
    one process, unlike the multi-process campaign chaos above).
    """

    def __init__(
        self,
        crash: tuple[str, ...] = (),
        hang: tuple[str, ...] = (),
        corrupt: tuple[str, ...] = (),
        crash_attempts: int = 1,
        hang_seconds: float = HANG_SECONDS,
        store: Any = None,
    ):
        import threading

        self.crash = tuple(crash)
        self.hang = tuple(hang)
        self.corrupt = tuple(corrupt)
        self.crash_attempts = crash_attempts
        self.hang_seconds = hang_seconds
        self.store = store
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        self.crashed = 0
        self.hung = 0
        self.corrupted = 0

    def wrap(self, compute: Callable[[str, float], dict]) -> Callable[[str, float], dict]:
        """Wrap a service compute hook with the configured injections."""

        def chaotic_compute(design: str, threshold: float) -> dict:
            with self._lock:
                attempt = self._calls[design] = self._calls.get(design, 0) + 1
            if design in self.hang and attempt == 1:
                with self._lock:
                    self.hung += 1
                time.sleep(self.hang_seconds)
            if design in self.crash and attempt <= self.crash_attempts:
                with self._lock:
                    self.crashed += 1
                from ..core.errors import ChunkTimeout

                raise ChunkTimeout(
                    f"chaos: compute worker for {design!r} died on attempt {attempt}"
                )
            report = compute(design, threshold)
            if design in self.corrupt and self.store is not None:
                if self.corrupt_report_blob(self.store, design):
                    with self._lock:
                        self.corrupted += 1
            return report

        return chaotic_compute

    def attempts(self, design: str) -> int:
        with self._lock:
            return self._calls.get(design, 0)

    @staticmethod
    def corrupt_report_blob(store: Any, design: str) -> bool:
        """Damage one byte of the newest ``report`` blob for a design.

        The blob's bytes then no longer hash to their content address,
        so the next lookup must detect the corruption, quarantine the
        artifact and recompute -- never serve the damaged payload.
        """
        rows = [r for r in store.artifacts.rows(kind="report", design=design)]
        if not rows:
            return False
        row = max(rows, key=lambda r: r.created_at)
        path = store.artifacts._blob_path(row.blob_sha)
        data = bytearray(path.read_bytes())
        if not data:
            return False
        data[len(data) // 2] ^= 0x20
        path.write_bytes(bytes(data))
        return True
