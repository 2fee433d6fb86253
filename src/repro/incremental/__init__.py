"""Incremental recompute: diff a netlist against a baseline, replay the store.

A one-gate edit used to change :func:`~repro.store.fingerprint.netlist_fingerprint`
and miss every stage blob, so iterative users paid the full cold campaign.
This package makes campaign caching *fault-granular*:

* :mod:`~repro.incremental.netdiff` -- structural netlist diffing
  (name-stable alignment plus signature matching for renames), a typed
  :class:`~repro.incremental.netdiff.NetlistDelta`, exhaustive 3-valued
  equivalence certification of the rewritten region, and the scripted
  one-gate edit helpers CI/benchmarks drive;
* :mod:`~repro.incremental.faultkeys` -- the campaign-level digests
  and the key of each campaign's ``incremental-meta`` manifest;
* :mod:`~repro.incremental.replay` -- the recompute planner that
  partitions a fault universe into replayable vs dirty, reading the
  baseline's verdicts and classifications from the ``faultsim`` and
  ``classify`` stage rows its manifest names, and the publication path
  that writes the manifest and the netlist payload.

The pipeline entry point is ``run_pipeline(..., baseline=...)`` and the
CLI surface is ``--baseline`` plus the ``repro-faults diff`` subcommand.
"""

from .netdiff import (
    NetlistDelta,
    RegionReport,
    StabilityReport,
    apply_gate_edit,
    certify_delta,
    diff_netlists,
    edit_system_controller,
    pick_editable_gate,
)
from .replay import (
    IncrementalPlan,
    grading_seed_results,
    plan_recompute,
    project_dirty,
    publish_incremental,
    resolve_baseline,
)

__all__ = [
    "NetlistDelta",
    "RegionReport",
    "StabilityReport",
    "IncrementalPlan",
    "apply_gate_edit",
    "certify_delta",
    "diff_netlists",
    "edit_system_controller",
    "grading_seed_results",
    "pick_editable_gate",
    "plan_recompute",
    "project_dirty",
    "publish_incremental",
    "resolve_baseline",
]
