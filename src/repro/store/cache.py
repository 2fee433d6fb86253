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

Stage payload shapes (``kind`` -> canonical-JSON dict):

* ``faultsim``: ``{"verdicts": {fault_key: [verdict_value, cycle]}}``
* ``classify``: ``{"classifications": {fault_key: classification_json}}``
  over one campaign's undetected controller faults, keyed by the
  controller fingerprint (see :mod:`repro.core.pipeline`)
* ``grading``: ``{"baseline": mc_json, "faults": {fault_key: mc_json}}``
* ``report``: the full result report of one ``classify``/``grade`` run
  (see :func:`repro.core.report.build_result_report`)
* ``fault-entry``: one collapsed fault's verdict + classification,
  addressed by aligned and content keys (see
  :mod:`repro.incremental.faultkeys`)
* ``incremental-meta``: per-campaign planner metadata (params digest,
  fault universe, classifier-context digests)
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

import logging
import os
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Any

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

    # ---------------------------------------------------------------- lookup
    def lookup(self, kind: str, key: str) -> dict | None:
        """Fetch one stage payload; corruption or a wiped store degrades
        to a logged miss."""
        if self.refresh:
            return None
        try:
            return self.artifacts.get(key)
        except ArtifactCorrupt as exc:
            self._corrupt(kind, exc)
            return None
        except sqlite3.OperationalError as exc:
            # a deleted root, index or schema: every entry is recomputable,
            # and the next publish recreates the layout
            logger.warning("store: %s lookup degraded to a miss: %s", kind, exc)
            return None

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
            try:
                return row, self.artifacts.read(row)
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

    # ------------------------------------------------------------ provenance
    def record(self, provenance: StageProvenance) -> None:
        self.provenance.append(provenance)

    def hit_ratio(self) -> float:
        if not self.provenance:
            return 0.0
        return sum(1 for p in self.provenance if p.hit) / len(self.provenance)

    def saved_s(self) -> float:
        return sum(p.saved_s for p in self.provenance if p.hit)


def clean_campaign(report: Any) -> bool:
    """True when a campaign's results are publishable.

    A campaign that flagged integrity violations (diverged audits,
    broken invariants, chaos-tampered values) holds quarantined or
    reference-substituted results; publishing it would let a later warm
    run serve data that the guard layer already distrusted once.
    """
    return report is None or not report.violations


class StageTimer:
    """Tiny perf_counter context used around each cacheable stage."""

    def __enter__(self) -> "StageTimer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
