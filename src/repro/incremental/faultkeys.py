"""Per-collapsed-fault store fingerprints.

Stage blobs key an *entire* campaign; these keys address one collapsed
fault's verdict (and classification) so a near-identical design can
replay most of a baseline campaign fault by fault.  Every entry is
published under two keys:

* the **aligned key** -- ``digest(baseline fingerprint + stage params +
  the fault's index-based campaign key)``.  Cheap to derive, but only
  meaningful together with the planner's soundness argument (the diff
  proves the edit cannot reach the fault);
* the **content key** -- ``digest(stage params + cone-content hash)``,
  where the cone-content hash covers exactly the gates in the fault's
  sequential fan-out cone from
  :func:`~repro.logic.cones.compute_cones`, *plus* the golden value
  columns of the cone's boundary nets.  Two faults with equal content
  keys see byte-identical inputs to a byte-identical sub-machine under
  byte-identical sampling, so the cached verdict transfers with no
  planner at all -- a cached verdict survives any edit outside its cone
  by construction, because such an edit either leaves the boundary
  columns alone (key hits) or disturbs them (key misses honestly).

Classification payloads additionally carry the classifier-context and
golden-control-trace digests they were computed under; a consumer only
reuses the classification when both match its own (verdicts come from
the integrated system, classifications from the standalone controller
plus the RT-level oracle, so their invalidation rules differ).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from ..logic.cones import FaultCone
from ..logic.faults import FaultSite
from ..netlist.netlist import Netlist
from ..store.fingerprint import SCHEMA_VERSION, canonical_json, digest


def params_digest(
    netlist: Netlist,
    config,
    observe: list[int],
    masks: Iterable[np.ndarray],
    n_cycles: int,
) -> str:
    """Digest of every campaign knob a per-fault verdict depends on.

    Nets are named, not numbered, so the digest survives renumbering;
    the hold masks are hashed as raw planes because verdict sampling
    windows must match bit for bit for any replay to be sound.
    """
    masks_sha = hashlib.sha256()
    for m in masks:
        masks_sha.update(np.ascontiguousarray(m).tobytes())
    return digest(
        {
            "schema": SCHEMA_VERSION,
            "pipeline": config.fingerprint_params(),
            "stimulus": {
                "kind": "tpgr-normal-mode",
                "n_patterns": config.n_patterns,
                "n_cycles": n_cycles,
                "tpgr_seed": config.tpgr_seed,
            },
            "observe": [netlist.net_names[n] for n in observe],
            "masks": masks_sha.hexdigest(),
        }
    )


def meta_store_key(netlist_fp: str, pdigest: str) -> str:
    """Key of the per-campaign incremental metadata blob."""
    return digest(
        {
            "schema": SCHEMA_VERSION,
            "stage": "incremental-meta",
            "netlist": netlist_fp,
            "params": pdigest,
        }
    )


def aligned_entry_key(baseline_fp: str, pdigest: str, fault_campaign_key: str) -> str:
    """Per-fault key addressed through the baseline campaign's identity."""
    return digest(
        {
            "schema": SCHEMA_VERSION,
            "stage": "fault-entry",
            "netlist": baseline_fp,
            "params": pdigest,
            "fault": fault_campaign_key,
        }
    )


def content_entry_key(pdigest: str, cone_hash: str) -> str:
    """Per-fault key addressed purely by cone content (no baseline)."""
    return digest(
        {
            "schema": SCHEMA_VERSION,
            "stage": "fault-entry",
            "params": pdigest,
            "cone": cone_hash,
        }
    )


def cone_boundary_nets(netlist: Netlist, cone: FaultCone) -> list[int]:
    """Nets the cone reads from the fault-free machine, sorted.

    Everything a cone gate reads that can never diverge (is outside
    ``cone.nets``) is boundary: during faulty simulation those nets hold
    exactly their golden values, so hashing the golden columns pins the
    cone's entire input space.
    """
    return sorted(
        {
            n
            for g in cone.gates
            for n in netlist.gates[g].inputs
            if n not in cone.nets
        }
    )


def golden_column_digest(planes: list[np.ndarray], net: int) -> str:
    """sha-256 of one net's golden (Z, O) columns across all cycles."""
    h = hashlib.sha256()
    for cycle_planes in planes:
        h.update(np.ascontiguousarray(cycle_planes[0, net]).tobytes())
        h.update(np.ascontiguousarray(cycle_planes[1, net]).tobytes())
    return h.hexdigest()


@dataclass
class ConeHashMemo:
    """Work :func:`cone_content_hash` shares across the faults of one trace.

    ``columns`` holds each boundary net's golden column digest;
    ``bodies`` holds, per distinct ``(cone.gates, cone.nets)`` pair, a
    sha-256 state already fed with the cone's canonical body.  Both
    fields key the body: faults that share gates but not nets read
    different boundaries.  A memo is only valid for one netlist and one
    golden trace.
    """

    columns: dict[int, str] = field(default_factory=dict)
    bodies: dict[tuple[frozenset[int], frozenset[int]], Any] = field(
        default_factory=dict
    )


def _cone_body(
    netlist: Netlist, cone: FaultCone, planes: list[np.ndarray], columns: dict[int, str]
):
    """sha-256 state over the canonical JSON of a cone hash up to its site.

    Canonical JSON sorts keys, and ``site`` sorts after ``boundary``,
    ``gates`` and ``schema``: the full object's encoding is this prefix,
    the site's encoding and a closing brace, byte for byte.
    """
    names = netlist.net_names
    rows = sorted(
        [
            netlist.gates[g].gtype.name,
            names[netlist.gates[g].output],
            [names[i] for i in netlist.gates[g].inputs],
        ]
        for g in cone.gates
    )
    boundary = {}
    for net in cone_boundary_nets(netlist, cone):
        col = columns.get(net)
        if col is None:
            col = columns[net] = golden_column_digest(planes, net)
        boundary[names[net]] = col
    body = canonical_json(
        {"schema": SCHEMA_VERSION, "gates": rows, "boundary": boundary}
    )
    return hashlib.sha256(body[:-1].encode("utf-8") + b',"site":')


def cone_content_hash(
    netlist: Netlist,
    site: FaultSite,
    cone: FaultCone,
    planes: list[np.ndarray],
    memo: ConeHashMemo | None = None,
) -> str:
    """Content hash of one fault's cone: site, gates, boundary columns.

    The digest of ``{"schema", "site", "gates", "boundary"}``: gate rows
    are name-based and sorted, so the hash is independent of gate
    indices and net ids; ``planes`` is the full golden trace from
    :func:`~repro.logic.faultsim.run_golden` (``full=True``), used to
    pin the boundary values the cone would read during faulty replay.
    With a shared ``memo`` each distinct cone body is serialized and
    hashed once, and only the site is encoded per fault.
    """
    if memo is None:
        memo = ConeHashMemo()
    cone_id = (cone.gates, cone.nets)
    body = memo.bodies.get(cone_id)
    if body is None:
        body = memo.bodies[cone_id] = _cone_body(netlist, cone, planes, memo.columns)
    h = body.copy()
    h.update(
        canonical_json(
            {
                "gate": (
                    None
                    if site.gate_index is None
                    else netlist.gates[site.gate_index].name
                ),
                "pin": site.pin,
                "net": netlist.net_names[site.net],
                "value": site.value,
            }
        ).encode("utf-8")
        + b"}"
    )
    return h.hexdigest()


def classifier_context_digest(rtl, iteration_counts, hold_cycles: int) -> str:
    """Digest of the RT-level oracle's inputs besides the controller.

    Covers the datapath structure the symbolic replay walks (registers,
    muxes, functional units, bindings, schedule) and the scenario knobs;
    the controller's own behavior is pinned separately by the golden
    control-trace digest plus the controller fingerprint rules in
    :mod:`~repro.incremental.replay`.
    """

    def mux(m) -> dict:
        return {
            "name": m.name,
            "sel": list(m.sel_names),
            "sources": [s.label() for s in m.sources],
        }

    return digest(
        {
            "schema": SCHEMA_VERSION,
            "iteration_counts": list(iteration_counts),
            "hold_cycles": hold_cycles,
            "rtl": {
                "name": rtl.name,
                "width": rtl.width,
                "n_steps": rtl.schedule.n_steps,
                "steps": dict(rtl.schedule.steps),
                "load_lines": list(rtl.load_lines),
                "sel_lines": list(rtl.sel_lines),
                "cond_fu": rtl.cond_fu,
                "value_reg": dict(rtl.value_reg),
                "registers": [
                    {
                        "name": r.name,
                        "load": r.load_line,
                        "mux": mux(r.input_mux),
                        "holds": list(r.holds),
                    }
                    for r in rtl.registers
                ],
                "fus": [
                    {
                        "name": f.name,
                        "kind": str(f.kind),
                        "mux_a": mux(f.mux_a),
                        "mux_b": mux(f.mux_b),
                    }
                    for f in rtl.fus
                ],
                "bindings": {
                    op: {"fu": b.fu, "step": b.step, "dest": b.dest_register}
                    for op, b in rtl.bindings.items()
                },
            },
        }
    )


def golden_trace_digest(classifier) -> str:
    """Digest of the classifier's golden control traces, all scenarios."""
    rows = []
    for sc, trace, _table, _replay, _timeline in classifier._golden:
        rows.append(
            {
                "iterations": sc.iterations,
                "n_steps": sc.n_steps,
                "hold_cycles": sc.hold_cycles,
                "idle_cycles": sc.idle_cycles,
                "lines": trace.lines,
                "states": trace.states,
            }
        )
    return digest({"schema": SCHEMA_VERSION, "scenarios": rows})
