"""Recompute planner + merger for incremental campaigns.

Given a baseline netlist and its published ``incremental-meta``
manifest, :func:`plan_recompute` partitions the current design's
collapsed fault universe into *reusable* (verdict provably unchanged)
and *dirty* (everything else), so the pipeline re-simulates only the
dirty set and merges the baseline's verdicts back into a result that is
byte-identical to a cold full run.  The verdicts and classifications
come from the baseline campaign's own ``faultsim`` and ``classify``
stage rows, which the manifest names; each is read once per plan, and a
missing or corrupted row makes the whole run an honest cold one.

Soundness of verdict reuse, in decreasing order of precision:

1. **Structurally empty delta** (pure renames): indices, behavior and
   sampling are untouched; every fault replays.
2. **Certified region** (see :func:`~repro.incremental.netdiff.certify_delta`):
   the changed gates compute the identical 3-valued function under every
   boundary assignment, so any fault sited outside the region drives the
   exact same values on every original net -- golden and faulty alike.
   Only faults sited *on* region gates are dirty.
3. **Cone intersection** (fallback): a fault whose sequential fan-out
   cone is gate-disjoint from the edit's fan-out closure cannot observe
   the edit (no cone gate reads an edit-disturbed net -- any gate that
   did would be in the closure), and the edit cannot observe the fault
   (any gate reading a cone net is a cone gate), so both machines agree
   on every net the verdict samples.

All three are additionally gated on a parameter digest that pins the
stimulus plan, observed nets and the per-cycle hold masks bit for bit
(an edit that shifts golden HOLD timing changes the masks, misses the
manifest, and degrades to an honest full recompute).

Reused *classifications* need more: the RT-level oracle runs on the
standalone controller, so the baseline's classifications only transfer
when the manifest's classifier-context and golden-trace digests match
ours and the controller itself is either untouched or rewritten inside a
certified region.  Otherwise the verdicts replay and the classifier
reruns -- still far cheaper than fault simulation.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field

from ..core.classify import EffectLabel, FaultClassification, LabeledEffect
from ..core.effects import ControlLineEffect
from ..core.grading import grading_stage_key
from ..logic.cones import compute_cones, net_closure
from ..logic.faults import FaultSite, fault_key
from ..logic.faultsim import Verdict
from ..netlist.netlist import Netlist
from ..power.montecarlo import MonteCarloResult, mc_campaign_params
from ..store.cache import CampaignStore
from ..store.fingerprint import (
    SCHEMA_VERSION,
    netlist_fingerprint,
    netlist_from_payload,
    netlist_payload,
    netlist_store_key,
)
from .faultkeys import golden_trace_digest, meta_store_key, params_digest
from .netdiff import NetlistDelta, RegionReport, certify_delta, diff_netlists

logger = logging.getLogger(__name__)


# --------------------------------------------- classification serialization


def classification_to_json(c: FaultClassification) -> dict:
    return {
        "category": c.category,
        "reason": c.reason,
        "effects": [
            [
                e.effect.cycle,
                e.effect.state,
                e.effect.line,
                e.effect.golden,
                e.effect.faulty,
                e.label.name,
                e.register,
            ]
            for e in c.effects
        ],
    }


def classification_from_json(payload: dict, fault: FaultSite) -> FaultClassification:
    return FaultClassification(
        fault=fault,
        category=payload["category"],
        effects=[
            LabeledEffect(
                effect=ControlLineEffect(
                    cycle=cycle, state=state, line=line, golden=golden, faulty=faulty
                ),
                label=EffectLabel[label],
                register=register,
            )
            for cycle, state, line, golden, faulty, label, register in payload[
                "effects"
            ]
        ],
        reason=payload["reason"],
    )


# ------------------------------------------------------------------ planning


@dataclass
class ReplayedFault:
    """One baseline fault's verdict and classification, admitted for
    replay by the planner."""

    verdict: Verdict
    detect_cycle: int
    #: the baseline's classification JSON; None for a detected fault
    classification: dict | None


@dataclass
class IncrementalPlan:
    """Partition of one fault universe into replayable vs dirty."""

    baseline_fp: str
    params: str
    delta: NetlistDelta
    region: RegionReport
    #: system fault site -> admitted store entry
    reusable: dict[FaultSite, ReplayedFault] = field(default_factory=dict)
    #: system fault sites needing simulation, in universe order
    dirty: list[FaultSite] = field(default_factory=list)
    reasons: dict[str, int] = field(default_factory=dict)
    #: a certified/empty *controller-side* delta: classifications may
    #: transfer across the controller-fingerprint change
    ctrl_preserving: bool = False
    #: wall seconds the baseline's cold faultsim stage spent (for saved_s)
    baseline_wall_s: float = 0.0
    #: the baseline manifest's classifier-context and golden-trace digests
    #: and controller fingerprint
    classify_ctx: str = ""
    ctrl_traces: str = ""
    ctrl_fp: str = ""

    @property
    def n_faults(self) -> int:
        return len(self.reusable) + len(self.dirty)

    @property
    def dirty_fraction(self) -> float:
        return len(self.dirty) / self.n_faults if self.n_faults else 0.0

    def classification_ok(
        self, ctx_digest: str, traces_digest: str, ctrl_fp: str
    ) -> bool:
        """May the baseline's classifications stand in for fresh ones?"""
        if self.classify_ctx != ctx_digest or self.ctrl_traces != traces_digest:
            return False
        return self.ctrl_fp == ctrl_fp or self.ctrl_preserving

    def summary(self) -> dict:
        return {
            "baseline": self.baseline_fp[:16],
            "faults": self.n_faults,
            "reusable": len(self.reusable),
            "dirty": len(self.dirty),
            "dirty_fraction": self.dirty_fraction,
            "reasons": dict(sorted(self.reasons.items())),
            "region_equivalent": self.region.equivalent,
            "region_reason": self.region.reason,
            "delta": self.delta.summary(),
        }


def _count(reasons: dict[str, int], why: str) -> None:
    reasons[why] = reasons.get(why, 0) + 1


def _ctrl_prefixed(netlist: Netlist, indices) -> bool:
    return all(netlist.gates[g].name.startswith("ctrl/") for g in indices)


def structural_dirty_sites(
    netlist: Netlist,
    delta: NetlistDelta,
    region: RegionReport,
    system_sites: list[FaultSite],
) -> tuple[set[FaultSite], dict[FaultSite, str]]:
    """Faults whose verdicts the structural argument cannot preserve."""
    dirty: set[FaultSite] = set()
    why: dict[FaultSite, str] = {}
    if delta.structurally_empty:
        return dirty, why
    touched = set(delta.touched_new)
    if region.equivalent:
        for s in system_sites:
            if s.gate_index in touched:
                dirty.add(s)
                why[s] = "sited-in-region"
        return dirty, why
    seeds = sorted({netlist.gates[g].output for g in touched})
    impact_gates, _impact_nets = net_closure(netlist, seeds)
    impact = set(impact_gates) | touched
    cones = compute_cones(netlist, system_sites)
    for s in system_sites:
        if s.gate_index in touched:
            dirty.add(s)
            why[s] = "sited-in-region"
        elif not cones[s].gates.isdisjoint(impact):
            dirty.add(s)
            why[s] = "cone-intersects-edit"
    return dirty, why


def project_dirty(
    baseline: Netlist,
    system,
    system_sites: list[FaultSite],
) -> tuple[NetlistDelta, RegionReport, dict]:
    """Structural dirty projection for ``repro-faults diff`` (no store).

    Returns the delta, the region certification attempt and a summary
    with the projected dirty fraction -- an upper bound on what an
    actual ``--baseline`` replay would re-simulate, assuming the
    baseline campaign's stage rows are present.
    """
    delta = diff_netlists(baseline, system.netlist)
    region = certify_delta(baseline, system.netlist, delta)
    if delta.io_changed:
        dirty = set(system_sites)
    else:
        dirty, _why = structural_dirty_sites(
            system.netlist, delta, region, system_sites
        )
    total = len(system_sites)
    return (
        delta,
        region,
        {
            "faults": total,
            "projected_dirty": len(dirty),
            "projected_dirty_fraction": len(dirty) / total if total else 0.0,
            "region_equivalent": region.equivalent,
            "region_reason": region.reason,
            "delta": delta.summary(),
        },
    )


def plan_recompute(
    store: CampaignStore,
    baseline: Netlist,
    system,
    config,
    system_sites: list[FaultSite],
    stimulus,
    observe: list[int],
    masks,
) -> IncrementalPlan | None:
    """Partition the fault universe against a baseline campaign.

    Returns None when the store holds no usable baseline campaign: no
    compatible manifest (different params, masks or schema, never
    published, or published without stage keys), or a ``faultsim`` or
    ``classify`` row it names is missing or corrupted.  The caller then
    runs a normal cold campaign.  Makes three store lookups, whatever
    the universe size.
    """
    netlist = system.netlist
    pdigest = params_digest(netlist, config, observe, masks, stimulus.n_cycles)
    baseline_fp = netlist_fingerprint(baseline)
    meta = store.lookup("incremental-meta", meta_store_key(baseline_fp, pdigest))
    verdicts = classified = None
    if (
        meta is not None
        and meta.get("schema") == SCHEMA_VERSION
        and {"faultsim", "classify"} <= meta.keys()
    ):
        verdicts = (store.lookup("faultsim", meta["faultsim"]) or {}).get("verdicts")
        classified = (store.lookup("classify", meta["classify"]) or {}).get(
            "classifications"
        )
    if verdicts is None or classified is None:
        logger.info(
            "incremental: no usable baseline campaign for %s; cold run",
            baseline_fp[:16],
        )
        return None

    delta = diff_netlists(baseline, netlist)
    region = certify_delta(baseline, netlist, delta)
    plan = IncrementalPlan(
        baseline_fp=baseline_fp,
        params=pdigest,
        delta=delta,
        region=region,
        baseline_wall_s=float(meta.get("faultsim_wall_s", 0.0)),
        classify_ctx=meta["classify_ctx"],
        ctrl_traces=meta["ctrl_traces"],
        ctrl_fp=meta["ctrl_fp"],
    )
    plan.ctrl_preserving = delta.structurally_empty or (
        region.equivalent
        and _ctrl_prefixed(netlist, delta.touched_new)
        and _ctrl_prefixed(baseline, delta.touched_old)
    )
    if delta.io_changed:
        plan.dirty = list(system_sites)
        plan.reasons = {"primary-io-changed": len(system_sites)}
        return plan

    dirty_set, why = structural_dirty_sites(netlist, delta, region, system_sites)

    # Translate the baseline universe into new-side identities through the
    # alignment, so each surviving fault finds its baseline campaign keys.
    old_gate_names = {
        baseline.gates[o].name: netlist.gates[n].name
        for o, n in delta.gate_map.items()
    }
    old_net_names = {
        baseline.net_names[o]: netlist.net_names[n]
        for o, n in delta.net_map.items()
    }
    old_keys: dict[tuple, tuple[str, str]] = {}
    for entry in meta.get("universe", ()):
        gate = entry["gate"]
        tgate = old_gate_names.get(gate) if gate is not None else None
        tnet = old_net_names.get(entry["net"])
        if (gate is not None and tgate is None) or tnet is None:
            continue  # the fault's site did not survive the edit
        old_keys[(tgate, entry["pin"], tnet, entry["value"])] = (
            entry["key"],
            entry["ctrl_key"],
        )

    names = netlist.net_names
    for site in system_sites:
        if site in dirty_set:
            plan.dirty.append(site)
            _count(plan.reasons, why[site])
            continue
        gate = (
            None if site.gate_index is None else netlist.gates[site.gate_index].name
        )
        old = old_keys.get((gate, site.pin, names[site.net], site.value))
        if old is None:
            plan.dirty.append(site)
            _count(plan.reasons, "new-site")
            continue
        verdict_value, cycle = verdicts[old[0]]
        plan.reusable[site] = ReplayedFault(
            verdict=Verdict(verdict_value),
            detect_cycle=int(cycle),
            classification=classified.get(old[1]),
        )
        _count(plan.reasons, "replayed")
    return plan


# ------------------------------------------------------------------ baseline


def resolve_baseline(
    store: CampaignStore | None,
    spec,
    design: str | None = None,
    exclude_fp: str | None = None,
) -> Netlist | None:
    """Turn a ``--baseline`` spec into a netlist, or None.

    Accepts a :class:`Netlist` (passed through), a 64-hex fingerprint
    (looked up among published ``netlist`` blobs), a path to a netlist
    payload JSON (as written by ``repro-faults diff --dump``), or
    ``"auto"`` -- the most recently published netlist for ``design``
    whose fingerprint differs from ``exclude_fp`` (what the campaign
    service uses so near-duplicate uploads replay their predecessor).
    """
    if isinstance(spec, Netlist):
        return spec
    if not isinstance(spec, str) or not spec:
        return None
    if spec == "auto":
        if store is None or design is None:
            return None
        best = None
        for row in store.artifacts.rows(kind="netlist", design=design):
            fp = (row.meta or {}).get("fingerprint")
            if fp and fp != exclude_fp:
                best = row  # rows() orders by created_at: keep the latest
        if best is None:
            return None
        payload = store.lookup("netlist", best.key)
        return netlist_from_payload(payload) if payload else None
    if len(spec) == 64 and all(c in "0123456789abcdef" for c in spec):
        if store is None:
            return None
        payload = store.lookup("netlist", netlist_store_key(spec))
        if payload is None:
            logger.warning("incremental: no published netlist for %s", spec[:16])
            return None
        return netlist_from_payload(payload)
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                return netlist_from_payload(json.load(fh))
        except Exception as exc:
            logger.warning("incremental: could not load baseline %s: %s", spec, exc)
            return None
    logger.warning("incremental: unresolvable baseline spec %r", spec)
    return None


# ---------------------------------------------------------- grading transfer


def grading_seed_results(
    store: CampaignStore,
    plan: IncrementalPlan,
    design: str,
    sfr_sites: list[FaultSite],
    seed: int,
    batch_patterns: int,
    max_batches: int,
    iterations_window: int,
) -> dict | None:
    """Replay a baseline grading campaign across a pure-rename delta.

    Power reuse is deliberately narrower than verdict reuse: Monte-Carlo
    powers integrate toggle activity over the *whole* netlist, so even a
    certified behavior-preserving rewrite (extra gates, different types)
    changes them.  Only a structurally empty delta -- identical gates and
    connectivity, names aside -- leaves every power bit-identical.  The
    baseline's per-fault results are translated through the alignment
    into this design's campaign keys and handed to
    :func:`~repro.core.grading.grade_sfr_faults` as ``seed_results``.

    Returns None (cold grading) unless the delta is structurally empty,
    the whole SFR universe translates, and the baseline's grading stage
    blob covers exactly the translated universe.
    """
    if not plan.delta.structurally_empty:
        return None
    inv_gate = {n: o for o, n in plan.delta.gate_map.items()}
    inv_net = {n: o for o, n in plan.delta.net_map.items()}
    old_keys: list[str] = []
    for site in sfr_sites:
        old_gate = (
            "pi" if site.gate_index is None else inv_gate.get(site.gate_index)
        )
        old_net = inv_net.get(site.net)
        if old_gate is None or old_net is None:
            return None
        old_keys.append(f"{old_gate}:{site.pin}:{old_net}:{site.value}")
    mc_params = mc_campaign_params(seed, batch_patterns, max_batches, iterations_window)
    cached = store.lookup(
        "grading",
        grading_stage_key("grading", plan.baseline_fp, design, old_keys, mc_params),
    )
    if (
        cached is None
        or "baseline" not in cached
        or set(cached.get("faults", ())) != set(old_keys)
    ):
        return None
    seeds = {"__fault_free__": MonteCarloResult.from_json_dict(cached["baseline"])}
    for site, old_key in zip(sfr_sites, old_keys):
        seeds[fault_key(site)] = MonteCarloResult.from_json_dict(
            cached["faults"][old_key]
        )
    logger.info(
        "incremental: seeding %d graded powers from baseline %s",
        len(seeds) - 1,
        plan.baseline_fp[:16],
    )
    return seeds


# --------------------------------------------------------------- publication


def publish_incremental(
    store: CampaignStore,
    system,
    config,
    stimulus,
    observe: list[int],
    masks,
    result,
    classifier,
    campaign: dict,
    faultsim_wall_s: float = 0.0,
) -> int:
    """Publish the campaign's ``incremental-meta`` manifest and its netlist
    payload, so the design can serve as a future baseline.

    Only called for clean campaigns (the caller skips a fault simulation
    or classification that recorded violations).  ``campaign`` names the
    campaign's ``faultsim`` and ``classify`` stage keys, its controller
    fingerprint (``ctrl_fp``) and its classifier context
    (``classify_ctx``); the manifest adds the params and golden-trace
    digests and the fault universe, each fault by name with its system
    and controller campaign keys.  Returns the number of index rows
    written.
    """
    netlist = system.netlist
    fp = result.netlist_fp
    pdigest = params_digest(netlist, config, observe, masks, stimulus.n_cycles)
    names = netlist.net_names
    universe = []
    for record in result.records:
        site = record.system_site
        universe.append(
            {
                "key": fault_key(site),
                "ctrl_key": fault_key(record.site),
                "gate": (
                    None
                    if site.gate_index is None
                    else netlist.gates[site.gate_index].name
                ),
                "pin": site.pin,
                "net": names[site.net],
                "value": site.value,
            }
        )
    design = system.rtl.name
    meta = {
        **campaign,
        "schema": SCHEMA_VERSION,
        "design": design,
        "netlist": fp,
        "params": pdigest,
        "ctrl_traces": golden_trace_digest(classifier),
        "faultsim_wall_s": faultsim_wall_s,
        "universe": universe,
    }
    return store.publish_many(
        [
            ("incremental-meta", meta_store_key(fp, pdigest), meta, design, None),
            (
                "netlist",
                netlist_store_key(fp),
                netlist_payload(netlist),
                design,
                {"fingerprint": fp},
            ),
        ]
    )
