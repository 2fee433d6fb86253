"""The paper's Section-5 methodology, end to end.

Given an integrated controller-datapath system:

1. **Fault simulate** the entire system under TPGR pseudorandom data,
   sampling the data outputs whenever the fault-free machine is in HOLD.
   Faults definitely detected are SFI and leave consideration.
2. **Practical cleanup**: faults only *potentially* detected (the faulty
   machine drove X where a value was expected -- GENTEST's limitation with
   never-loaded registers) are, as the paper argues, detected on real
   silicon where the register holds some boot value; they are marked
   practically-SFI.
3. **CFR screen**: remaining faults are injected into the standalone
   controller and simulated through normal-mode scenarios; faults with no
   control line effect are controller-functionally redundant.
4. **SFR analysis**: the rest are classified by the symbolic RT-level
   oracle (with Section-3 taxonomy labels); equivalent faults are SFR,
   the rest are SFI that escaped the random test set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hls.system import NormalModeStimulus, System, hold_masks_from_trace
from ..logic.faults import FaultSite, collapse_faults, enumerate_faults, fault_key
from ..logic.faultsim import (
    FaultSimResult,
    GoldenTrace,
    Verdict,
    fault_simulate,
    run_golden,
    verdicts_from_payload,
    verdicts_payload,
)
from ..store.cache import CampaignStore, open_stage
from ..store.fingerprint import netlist_fingerprint, stage_key
from ..tpg.tpgr import TPGR
from .classify import Classifier, FaultClassification
from .errors import validate_config, validate_netlist, validate_stimulus
from .integrity import (
    DEFAULT_AUDIT_RATE,
    IntegrityGuard,
    check_sfr_is_cfi,
    select_audit,
)
from .parallel import RunReport


@dataclass
class PipelineConfig:
    """Tunables for the Section-5 pipeline."""

    n_patterns: int = 256
    tpgr_seed: int = 0xACE1
    iterations_window: int = 4
    hold_cycles: int = 3
    iteration_counts: tuple[int, ...] = (1, 2, 3)
    #: worker processes for the per-fault simulation loop (1 = serial,
    #: negative = one per core); results are identical for any value.
    n_jobs: int = 1
    #: per-chunk seconds before a hung worker is killed and retried
    #: (None waits forever); only meaningful with ``n_jobs > 1``.
    timeout: float | None = None
    #: extra attempts granted to a failed/timed-out chunk of work.
    max_retries: int = 2
    #: fraction of faults re-simulated on an independent path after the
    #: campaign (see :mod:`repro.core.integrity`); 0 disables the audit.
    audit_rate: float = DEFAULT_AUDIT_RATE
    #: abort on the first integrity violation instead of quarantining the
    #: offending fault and continuing.
    strict: bool = False
    #: chaos-injection spec (test/CI only), e.g.
    #: ``"crash:0.15,hang:0.1,bitflip:1,seed:7"``; None disables it.
    chaos: str | None = None

    def fingerprint_params(self) -> dict:
        """The result-relevant knobs that key a campaign's store entries.

        Audit, strict and chaos knobs are deliberately absent:
        none of them changes the results of a clean campaign, so toggling
        them must not miss a warm store entry.
        """
        return {
            "n_patterns": self.n_patterns,
            "tpgr_seed": self.tpgr_seed,
            "iterations_window": self.iterations_window,
            "hold_cycles": self.hold_cycles,
            "iteration_counts": list(self.iteration_counts),
        }

    def chaos_engine(self):
        """A fresh :class:`~repro.testing.chaos.ChaosEngine` for one
        campaign of this run, or None when chaos is off."""
        if not self.chaos:
            return None
        # Deferred: the chaos harness lives in the test-support package and
        # only loads when injection is actually requested.
        from ..testing.chaos import ChaosEngine

        return ChaosEngine.from_spec(self.chaos)


@dataclass
class FaultRecord:
    """Journey of one collapsed controller fault through the pipeline."""

    site: FaultSite
    system_site: FaultSite
    simulation: Verdict
    classification: FaultClassification | None = None
    #: set when an integrity check rejected this fault's result; a
    #: quarantined record is excluded from downstream grading.
    quarantined: bool = False

    @property
    def category(self) -> str:
        """Final bucket: 'SFI-detected', 'SFI-practical', 'CFR', 'SFR',
        or 'SFI-escaped'."""
        if self.simulation is Verdict.DETECTED:
            return "SFI-detected"
        if self.simulation is Verdict.POTENTIAL:
            return "SFI-practical"
        assert self.classification is not None
        if self.classification.category == "CFR":
            return "CFR"
        if self.classification.category == "SFR":
            return "SFR"
        return "SFI-escaped"


@dataclass
class PipelineResult:
    """Everything Table 2 (and the grading stage) needs."""

    design: str
    #: :func:`~repro.store.fingerprint.netlist_fingerprint` of the system
    #: netlist, computed once per run; every store key of the campaign
    #: (fault simulation, grading, activity, fleet, report) reads it
    netlist_fp: str
    records: list[FaultRecord] = field(default_factory=list)
    #: resilience summary of the fault-simulation fan-out
    campaign: RunReport | None = None
    #: classification of the undetected faults: how many were classified,
    #: replayed, audited on the per-fault oracle and quarantined
    classify_campaign: RunReport | None = None
    #: incremental-recompute plan summary when a ``baseline`` replayed
    #: part of the campaign (see :mod:`repro.incremental`); None for
    #: cold and plain warm-cache runs
    incremental: dict | None = None
    #: the live :class:`~repro.incremental.replay.IncrementalPlan` behind
    #: ``incremental`` -- the grading layer uses its alignment maps to
    #: transfer baseline powers across pure renames; never serialized
    incremental_plan: object | None = field(default=None, repr=False)

    def by_category(self, category: str) -> list[FaultRecord]:
        return [r for r in self.records if r.category == category]

    @property
    def total_faults(self) -> int:
        return len(self.records)

    @property
    def sfr_records(self) -> list[FaultRecord]:
        return [r for r in self.by_category("SFR") if not r.quarantined]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.category] = out.get(r.category, 0) + 1
        return out

    def table2_row(self) -> dict:
        """The paper's Table 2 row: total faults, SFR faults, % SFR."""
        sfr = len(self.sfr_records)
        total = self.total_faults
        return {
            "design": self.design,
            "total_faults": total,
            "sfr_faults": sfr,
            "pct_sfr": 100.0 * sfr / total if total else 0.0,
        }


def controller_fault_universe(system: System) -> list[FaultSite]:
    """Collapsed stuck-at faults within the controller (standalone ids)."""
    ctrl_netlist = system.controller.netlist
    sites = enumerate_faults(ctrl_netlist)
    reps, _ = collapse_faults(ctrl_netlist, sites)
    return reps


def _classify_undetected(
    system: System,
    config: PipelineConfig,
    classifier: Classifier,
    result: PipelineResult,
    plan,
    store: CampaignStore | None,
) -> tuple[RunReport, dict]:
    """Steps 3-4 over the undetected records, in place.

    With ``store`` set, the whole campaign is one ``classify`` stage keyed
    by the controller fingerprint, the classifier context and the
    classified fault keys: a hit replays every classification.  On a
    miss, the incremental ``plan``'s baseline classifications replay when
    its manifest's digests allow, and the rest go through one
    :meth:`~repro.core.classify.Classifier.classify_all` call; a sampled
    fraction (``config.audit_rate``) is re-derived on the per-fault oracle
    and a mismatch quarantines the fault.  Clean campaigns publish the
    stage (a dirty fault-simulation campaign publishes nothing either).

    Returns the campaign report and the stage's identity for the
    incremental manifest: its key (``classify``), the controller
    fingerprint (``ctrl_fp``) and the classifier context
    (``classify_ctx``), all None in a store-less run.
    """
    from ..incremental.faultkeys import classifier_context_digest, golden_trace_digest
    from ..incremental.replay import classification_from_json, classification_to_json

    pending = [r for r in result.records if r.simulation is Verdict.UNDETECTED]
    report = RunReport(n_items=len(pending))
    guard = IntegrityGuard(strict=config.strict)
    keys = [fault_key(r.site) for r in pending]
    ctx_digest = ctrl_fp = None
    if store is not None:
        ctx_digest = classifier_context_digest(
            system.rtl, config.iteration_counts, classifier.hold_cycles
        )
        ctrl_fp = netlist_fingerprint(system.controller.netlist)

    def decode(payload: dict) -> list[FaultClassification] | None:
        stored = payload.get("classifications", {})
        if set(stored) != set(keys):
            return None
        return [classification_from_json(stored[k], r.site) for k, r in zip(keys, pending)]

    stage = open_stage(
        store,
        "classify",
        lambda: stage_key("classify", ctrl_fp, {"context": ctx_digest, "faults": keys}),
        decode,
    )
    if stage.hit:
        for record, classification in zip(pending, stage.cached):
            record.classification = classification
    else:
        todo = pending
        if plan is not None and plan.classification_ok(
            ctx_digest, golden_trace_digest(classifier), ctrl_fp
        ):
            todo = []
            for record in pending:
                entry = plan.reusable.get(record.system_site)
                if entry is not None and entry.classification is not None:
                    record.classification = classification_from_json(
                        entry.classification, record.site
                    )
                else:
                    todo.append(record)
            report.replayed = len(pending) - len(todo)
        todo_keys = {r.site: fault_key(r.system_site) for r in todo}
        audit_keys = set(select_audit(todo_keys.values(), config.audit_rate))
        audit = {site: k for site, k in todo_keys.items() if k in audit_keys}
        classified = classifier.classify_all(
            [r.site for r in todo], audit=audit, guard=guard
        )
        for record, classification in zip(todo, classified):
            record.classification = classification
        report.completed = len(todo)
        report.audited = len(audit)
    for record in pending:
        if record.classification.category == "SFR":
            check_sfr_is_cfi(guard, fault_key(record.system_site), record)
    bad = {v.fault for v in guard.violations}
    for record in pending:
        record.quarantined = fault_key(record.system_site) in bad
    guard.attach(report)
    if not stage.hit:
        stage.publish(
            lambda: {
                "classifications": {
                    k: classification_to_json(r.classification)
                    for k, r in zip(keys, pending)
                }
            },
            report,
            result.campaign,
            design=system.rtl.name,
            meta={"faults": len(pending)},
        )
    identity = {"classify": stage.key, "ctrl_fp": ctrl_fp, "classify_ctx": ctx_digest}
    return report, identity


def _fault_free_run(
    system: System, config: PipelineConfig, n_cycles: int, observe: list[int]
) -> tuple[NormalModeStimulus, GoldenTrace, list[np.ndarray]]:
    """The fault-simulation stage's inputs: the TPGR normal-mode stimulus,
    its one fault-free trace (:func:`~repro.logic.faultsim.run_golden`
    with ``full=True``) and the HOLD masks read off that trace."""
    tpgr = TPGR(system.rtl.dfg.inputs, system.rtl.width, seed=config.tpgr_seed)
    data = {k: np.asarray(v) for k, v in tpgr.generate(config.n_patterns).items()}
    stimulus = NormalModeStimulus(system, data, n_cycles)
    validate_stimulus(stimulus)
    golden = run_golden(system.netlist, stimulus, observe, full=True)
    return stimulus, golden, hold_masks_from_trace(system, golden)


def _merge_replayed(
    plan, dirty_result: FaultSimResult, system_sites: list[FaultSite]
) -> FaultSimResult:
    """Replayed entries and freshly simulated verdicts, in universe order,
    indistinguishable from a cold full campaign."""
    report = dirty_result.campaign or RunReport()
    report.n_items = len(system_sites)
    report.replayed = len(plan.reusable)
    merged = FaultSimResult(verdicts={}, campaign=report, cone=dirty_result.cone)
    for site in system_sites:
        entry = plan.reusable.get(site)
        if entry is not None:
            merged.verdicts[site] = entry.verdict
            if entry.verdict is Verdict.DETECTED:
                merged.detect_cycle[site] = entry.detect_cycle
        else:
            merged.verdicts[site] = dirty_result.verdicts[site]
            if site in dirty_result.detect_cycle:
                merged.detect_cycle[site] = dirty_result.detect_cycle[site]
    return merged


def run_pipeline(
    system: System,
    config: PipelineConfig | None = None,
    store: CampaignStore | None = None,
    baseline=None,
) -> PipelineResult:
    """Execute the full Section-5 flow on ``system``.

    With ``store`` set (see :mod:`repro.store`), the fault-simulation
    stage consults the persistent content-addressed store first: a cached
    campaign keyed by the netlist content, stimulus plan, config knobs
    and code schema replays bit-identically without simulating -- it
    builds neither the TPGR stimulus nor its fault-free trace, which
    only the fault simulation reads -- and a freshly computed clean
    campaign is published back for future runs.

    A miss (a cold or refreshed run, a store-less run, the incremental
    path) simulates the fault-free machine once
    (:func:`~repro.logic.faultsim.run_golden` with ``full=True``): the
    hold masks are read off that trace, and it is handed to the fault
    simulation.

    ``baseline`` (with ``store``) additionally enables *fault-granular*
    reuse when the whole-stage key misses: a :class:`~repro.netlist.netlist.Netlist`,
    a published fingerprint, a netlist-payload path, or ``"auto"`` (see
    :func:`~repro.incremental.replay.resolve_baseline`) names an earlier
    design version; the planner diffs the two netlists, replays every
    fault the edit provably cannot affect from the baseline campaign's
    ``faultsim`` and ``classify`` stage rows, re-simulates only the dirty
    remainder and merges -- byte-identical to a cold run of the edited
    design (``result.incremental`` reports the partition).
    """
    config = config or PipelineConfig()
    validate_config(config)
    validate_netlist(system.netlist)
    universe = controller_fault_universe(system)

    # Step 1: integrated fault simulation under TPGR data.  The stage key
    # needs only the window length, the observed nets and the faults, so
    # the stimulus and its fault-free trace are built on a miss alone.
    n_cycles = system.cycles_for(config.iterations_window, config.hold_cycles)
    observe = [net for bus in system.output_buses.values() for net in bus]
    system_sites = [system.to_system_fault(s) for s in universe]
    netlist_fp = netlist_fingerprint(system.netlist)
    stage = open_stage(
        store,
        "faultsim",
        lambda: stage_key(
            "faultsim",
            netlist_fp,
            {
                "design": system.rtl.name,
                "faults": [fault_key(s) for s in system_sites],
                "observe": observe,
                "stimulus": {
                    "kind": "tpgr-normal-mode",
                    "n_patterns": config.n_patterns,
                    "n_cycles": n_cycles,
                    "tpgr_seed": config.tpgr_seed,
                },
                "pipeline": config.fingerprint_params(),
            },
        ),
        lambda payload: verdicts_from_payload(payload, system_sites),
    )
    plan = None
    if stage.hit:
        sim_result = stage.cached
    else:
        stimulus, golden, masks = _fault_free_run(system, config, n_cycles, observe)
        # Incremental planning: only worth attempting when a baseline
        # resolves.  ``store.refresh`` naturally disables it -- the planner's
        # metadata lookup misses too, so refreshed runs stay honestly cold.
        if store is not None and baseline is not None:
            from ..incremental.replay import plan_recompute, resolve_baseline

            base_netlist = resolve_baseline(
                store,
                baseline,
                design=system.rtl.name,
                exclude_fp=netlist_fp,
            )
            if base_netlist is not None:
                plan = plan_recompute(
                    store,
                    base_netlist,
                    system,
                    config,
                    system_sites,
                    stimulus,
                    observe,
                    masks,
                )
                if plan is not None and not plan.reusable:
                    plan = None  # nothing replays; run the ordinary cold path
        sim_result = fault_simulate(
            system.netlist,
            system_sites if plan is None else plan.dirty,
            stimulus,
            observe=observe,
            valid_masks=masks,
            n_jobs=config.n_jobs,
            timeout=config.timeout,
            max_retries=config.max_retries,
            audit_rate=config.audit_rate,
            strict=config.strict,
            chaos=config.chaos_engine(),
            golden=golden,
        )
        if plan is not None:
            sim_result = _merge_replayed(plan, sim_result, system_sites)
        # A merged campaign graduates into the ordinary stage blob, so
        # plain warm reruns of the edited design hit without a planner.
        stage.publish(
            lambda: verdicts_payload(sim_result, system_sites),
            sim_result.campaign,
            design=system.netlist.name,
            meta={"faults": len(system_sites), "patterns": config.n_patterns},
            replaced_s=None if plan is None else plan.baseline_wall_s,
        )

    # Steps 2-4.
    # The classifier picks its own (longer, adaptive) HOLD window -- it must
    # outlast any post-completion divergence of a faulty controller;
    # ``config.hold_cycles`` only shapes the fault-simulation stimulus.
    classifier = Classifier(
        system.rtl,
        system.controller,
        iteration_counts=config.iteration_counts,
    )
    result = PipelineResult(
        design=system.rtl.name, netlist_fp=netlist_fp, campaign=sim_result.campaign
    )
    if plan is not None:
        result.incremental = plan.summary()
        result.incremental_plan = plan
    for site, sys_site in zip(universe, system_sites):
        result.records.append(
            FaultRecord(
                site=site, system_site=sys_site, simulation=sim_result.verdicts[sys_site]
            )
        )
    result.classify_campaign, classify_stage = _classify_undetected(
        system, config, classifier, result, plan, store
    )

    # Publish the incremental manifest so this design can serve as a
    # future baseline.  Skipped when the stage replayed from its own
    # whole-campaign blob (the manifest exists from the original cold
    # run) and for dirty campaigns (quarantined results must never be
    # served warm, fault-granularly or otherwise).
    if (
        store is not None
        and not stage.hit
        and not sim_result.campaign.violations
        and not result.classify_campaign.violations
    ):
        from ..incremental.replay import publish_incremental

        publish_incremental(
            store,
            system,
            config,
            stimulus,
            observe,
            masks,
            result,
            classifier,
            {"faultsim": stage.key, **classify_stage},
            faultsim_wall_s=stage.wall_s if plan is None else plan.baseline_wall_s,
        )
    return result
