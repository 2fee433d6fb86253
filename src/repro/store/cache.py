"""Campaign-level cache over the artifact store, with provenance.

:class:`CampaignStore` is what the pipeline layers hold: a thin wrapper
around :class:`~repro.store.artifacts.ArtifactStore` that

* looks stage results up by key, treating a corrupted blob as a miss
  and recording a structured
  :class:`~repro.core.integrity.IntegrityViolation` (the campaign falls
  back to recomputation -- corruption must never crash or, worse,
  silently serve); a wiped root, index or schema is a plain miss too;
* publishes freshly computed stage payloads -- but only *clean* ones:
  a campaign that recorded integrity violations or quarantined faults
  is never written, so audited-out results cannot be served stale;
* accumulates per-stage :class:`StageProvenance` (hit/miss, wall time
  spent, wall time saved on hits) for the CLI/report layer.

Every cached stage of the pipeline goes through one protocol, the
:class:`Stage` handle of :func:`open_stage` (:meth:`CampaignStore.stage`):

* opening a stage starts its clock and, given a ``decode`` callable,
  looks its payload up (:meth:`CampaignStore.lookup`).  ``decode``
  checks the payload and turns it into the caller's result; a payload it
  rejects (returns None for) is a miss.  A hit records its provenance
  at once: ``wall_s`` is what the lookup and decode took, ``saved_s`` is
  the row's ``wall_s``;
* on a miss the caller computes, then calls :meth:`Stage.publish` with
  a payload builder and the campaign reports the result came from.
  The payload is built and published only when none of those reports
  recorded a violation.  The stage's ``wall_s`` runs from opening it to
  the built payload, and the published row carries the same number;
* a stage opened without ``decode`` only publishes (``grade`` writes
  the ``activity`` view of a campaign it just simulated);
* each opened stage records exactly one provenance row per invocation
  (a hit, or a miss once published or refused), and a store-less run
  holds a handle that never hits, never publishes and records nothing.

What a row's ``wall_s`` (a later hit's ``saved_s``) therefore measures
per kind: ``faultsim`` the fault simulation with its audit (or, after a
``--baseline`` merge, the planning, dirty simulation and merge);
``classify`` the classification of the undetected faults with its
audit; ``grading`` the Monte-Carlo campaign with its audit; ``activity``
the verification and payload build of the traces ``grade`` captured,
or the whole campaign when ``calibrate`` computed it; ``fleet`` the
population kernel; ``report`` the build of the result report.

Stage payload shapes (``kind`` -> canonical-JSON dict):

* ``faultsim``: ``{"verdicts": {fault_key: [verdict_value, cycle]}}``
* ``classify``: ``{"classifications": {fault_key: classification_json}}``
  over one campaign's undetected controller faults, keyed by the
  controller fingerprint (see :mod:`repro.core.pipeline`)
* ``grading``: ``{"baseline": mc_json, "faults": {fault_key: mc_json}}``
* ``report``: the full result report of one ``classify``/``grade`` run
  (see :func:`repro.core.report.build_result_report`)
* ``incremental-meta``: one campaign's planner manifest -- its params
  digest, the keys of its ``faultsim`` and ``classify`` rows (which hold
  every fault's verdict and classification), its fault universe by name
  and the classifier-context digests (see
  :mod:`repro.incremental.faultkeys`)
* ``netlist``: a round-trippable netlist payload
  (:func:`~repro.store.fingerprint.netlist_payload`) keyed by
  fingerprint, so ``--baseline <fingerprint>`` and ``--baseline auto``
  can reconstruct the baseline design from the store alone
* ``activity``: ``{"baseline": {"mc": mc_json, "activity": trace_json},
  "faults": {fault_key: same}}`` -- one campaign's converged per-fault
  integer activity counters (see :mod:`repro.fleet.activity`); a warm
  fleet calibration replays these with zero re-simulation
* ``fleet``: one :meth:`~repro.fleet.FleetResult.to_json_dict` payload
  keyed by campaign identity plus the fleet configuration, so a warm
  repeat of the same calibration skips even the population matmul
"""

from __future__ import annotations

import json
import logging
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..core.integrity import STORE_CORRUPT_CHECK, IntegrityViolation
from .artifacts import ArtifactCorrupt, ArtifactRow, ArtifactStore, StoreError

logger = logging.getLogger(__name__)


@dataclass
class StageProvenance:
    """Cache outcome of one campaign stage."""

    stage: str
    key: str
    hit: bool
    #: wall seconds this invocation spent in the stage (compute or lookup)
    wall_s: float = 0.0
    #: on a hit, the wall seconds the original cold run spent computing
    saved_s: float = 0.0
    published: bool = False

    def to_json_dict(self) -> dict:
        return {
            "stage": self.stage,
            "key": self.key,
            "hit": self.hit,
            "wall_s": self.wall_s,
            "saved_s": self.saved_s,
            "published": self.published,
        }


class CampaignStore:
    """Stage-result cache shared by one CLI invocation / serve process."""

    def __init__(self, root: str | os.PathLike, refresh: bool = False):
        self.artifacts = ArtifactStore(root)
        #: when True every lookup misses, so results are recomputed and
        #: republished (cache-busting without deleting the store)
        self.refresh = refresh
        self.provenance: list[StageProvenance] = []
        self.violations: list[IntegrityViolation] = []
        #: per thread (``serve`` workers share one store), the index row
        #: of the latest lookup hit: a stage hit reads its ``saved_s``
        #: from it instead of querying the index again
        self._last_hit = threading.local()

    # ---------------------------------------------------------------- lookup
    def lookup(self, kind: str, key: str) -> dict | None:
        """Fetch one stage payload; corruption or a wiped store degrades
        to a logged miss."""
        if self.refresh:
            return None
        try:
            found = self.artifacts.get_bytes(key)
        except ArtifactCorrupt as exc:
            self._corrupt(kind, exc)
            return None
        except sqlite3.OperationalError as exc:
            # a deleted root, index or schema: every entry is recomputable,
            # and the next publish recreates the layout
            logger.warning("store: %s lookup degraded to a miss: %s", kind, exc)
            return None
        if found is None:
            return None
        data, self._last_hit.row = found
        return json.loads(data)

    def newest(self, kind: str, design: str) -> tuple[ArtifactRow, bytes] | None:
        """The newest intact ``kind`` entry of a design: its row and its
        verified bytes, from one index query.

        A corrupted blob is quarantined and recorded as :meth:`lookup`
        records it, and the next-newest row is tried.  Among rows created
        in the same instant the smallest key counts as newest.
        """
        if self.refresh:
            return None
        for row in self.artifacts.rows(kind=kind, design=design, newest_first=True):
            data = self.read(kind, row)
            if data is not None:
                return row, data
        return None

    def read(self, kind: str, row: ArtifactRow) -> bytes | None:
        """``row``'s verified bytes; None once a corrupted blob has been
        quarantined and recorded as :meth:`lookup` records it."""
        try:
            return self.artifacts.read(row)
        except ArtifactCorrupt as exc:
            self._corrupt(kind, exc)
            return None

    def _corrupt(self, kind: str, exc: ArtifactCorrupt) -> None:
        """Record a quarantined, corrupted entry as an integrity violation."""
        violation = IntegrityViolation(
            check=STORE_CORRUPT_CHECK,
            fault=exc.key,
            detail=(
                f"stored {kind} artifact failed its content hash and was "
                f"quarantined; stage recomputed from scratch"
            ),
            expected=exc.expected[:16],
            actual=exc.actual[:16],
        )
        self.violations.append(violation)
        logger.warning("store: %s", violation.describe())

    # --------------------------------------------------------------- publish
    def publish(
        self,
        kind: str,
        key: str,
        payload: Any,
        design: str = "",
        meta: dict | None = None,
        wall_s: float = 0.0,
    ) -> bool:
        """Best-effort publication; a held lock degrades to a warning."""
        try:
            self.artifacts.put(
                kind, key, payload, design=design, meta=meta, wall_s=wall_s
            )
            return True
        except StoreError as exc:
            logger.warning("store: could not publish %s artifact: %s", kind, exc)
            return False

    def publish_many(self, rows: list[tuple], wall_s: float = 0.0) -> int:
        """Batch-publish ``(kind, key, payload, design, meta)`` rows in one
        transaction.  Best-effort like :meth:`publish`."""
        try:
            return self.artifacts.put_many(rows, wall_s=wall_s)
        except StoreError as exc:
            logger.warning("store: batch publication degraded: %s", exc)
            return 0

    # ----------------------------------------------------------------- stages
    def stage(
        self, kind: str, key: str, decode: Callable[[Any], Any] | None = None
    ) -> "Stage":
        """Open one cached stage (see the module docstring): with
        ``decode``, look it up and record a hit when ``decode`` accepts
        the payload."""
        stage = Stage(self, kind, key)
        if decode is None:
            return stage
        payload = self.lookup(kind, key)
        if payload is not None:
            stage.cached = decode(payload)
        if stage.hit:
            stage.wall_s = time.perf_counter() - stage._t0
            self.record(
                StageProvenance(
                    kind,
                    key,
                    hit=True,
                    wall_s=stage.wall_s,
                    saved_s=self._last_hit.row.wall_s,
                )
            )
        return stage

    # ------------------------------------------------------------ provenance
    def record(self, provenance: StageProvenance) -> None:
        self.provenance.append(provenance)

    def hit_ratio(self) -> float:
        if not self.provenance:
            return 0.0
        return sum(1 for p in self.provenance if p.hit) / len(self.provenance)

    def saved_s(self) -> float:
        return sum(p.saved_s for p in self.provenance if p.hit)


class Stage:
    """One cached stage of one invocation (see the module docstring).

    ``cached`` is the decoded payload on a hit, None on a miss.  A
    store-less handle (``store`` None) never hits and never publishes.
    """

    def __init__(self, store: CampaignStore | None, kind: str, key: str | None):
        self.store = store
        self.kind = kind
        self.key = key
        self.cached: Any = None
        #: seconds spent: the lookup on a hit, the whole stage on a miss
        self.wall_s = 0.0
        self._t0 = time.perf_counter()

    @property
    def hit(self) -> bool:
        return self.cached is not None

    def publish(
        self,
        payload: Callable[[], Any],
        *campaigns: Any,
        design: str = "",
        meta: dict | None = None,
        replaced_s: float | None = None,
    ) -> bool:
        """Close a missed stage: build and publish ``payload()`` unless a
        report in ``campaigns`` recorded violations, and record the miss.

        ``replaced_s`` marks a fault-granular merge (``--baseline``): the
        stage is recorded as ``<kind>-incremental``, a hit that saved
        ``replaced_s`` (the baseline's full cost) minus its own wall.
        Returns whether the payload was published.
        """
        assert not self.hit, "a stage that hit has nothing to publish"
        if self.store is None:
            return False
        clean = all(c is None or not c.violations for c in campaigns)
        data = payload() if clean else None
        self.wall_s = time.perf_counter() - self._t0
        published = clean and self.store.publish(
            self.kind, self.key, data, design=design, meta=meta, wall_s=self.wall_s
        )
        record = StageProvenance(
            self.kind, self.key, hit=False, wall_s=self.wall_s, published=published
        )
        if replaced_s is not None:
            record.stage = f"{self.kind}-incremental"
            record.hit = True
            record.saved_s = max(0.0, replaced_s - self.wall_s)
        self.store.record(record)
        return published


def open_stage(
    store: CampaignStore | None,
    kind: str,
    key: Callable[[], str],
    decode: Callable[[Any], Any] | None = None,
) -> Stage:
    """:meth:`CampaignStore.stage`, or the inert handle of a store-less
    run; ``key`` is only called with a store."""
    if store is None:
        return Stage(None, kind, None)
    return store.stage(kind, key(), decode)
