"""Power grading of SFR faults and threshold-based detection.

Implements Section 5's final stage and the data behind Table 1, Table 3
and Figure 7: Monte-Carlo power of every SFR fault, percentage change
against the fault-free machine, and a +/- threshold band (the paper uses
5 %) deciding which SFR faults the power test catches.  Faults are grouped
exactly as Figure 7 plots them: faults affecting only multiplexer select
lines first, then faults affecting register load lines, each group sorted
by increasing power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..hls.system import NormalModeStimulus, System
from ..power.estimator import PowerEstimator
from ..logic import values as V
from ..logic.faults import fault_key
from ..logic.faultsim import chunk_capacity
from ..power.montecarlo import (
    MC_DEFAULT_BATCH_PATTERNS,
    MC_DEFAULT_ITERATIONS_WINDOW,
    MC_DEFAULT_MAX_BATCHES,
    MC_DEFAULT_SEED,
    MonteCarloResult,
    first_pass_batches,
    mc_campaign_params,
    monte_carlo_baseline,
    monte_carlo_power,
    monte_carlo_power_block,
    shared_batches,
    traced_from_json_dict,
    traced_json_dict,
    verify_trace,
)
from ..store.cache import CampaignStore, open_stage
from ..store.fingerprint import stage_key
from ..tpg.tpgr import TPGR
from .errors import CampaignError, IntegrityError, validate_config, validate_netlist
from .integrity import (
    IntegrityGuard,
    IntegrityViolation,
    adds_register_loads,
    check_finite_power,
    check_load_monotonicity,
    check_power_ceiling,
    format_value,
    select_audit,
)
from .parallel import ParallelExecutor, RunReport
from .pipeline import FaultRecord, PipelineConfig, PipelineResult

#: campaign key of the fault-free Monte-Carlo baseline
_BASELINE_KEY = "__fault_free__"

#: the paper's +/- 5 % power band: the default detection threshold
DEFAULT_THRESHOLD = 0.05


def power_detected(pct_change: float, threshold: float) -> bool:
    """Single source of truth for the power-screen detection predicate.

    ``pct_change`` is a percentage (Figure-7 units), ``threshold`` a
    fraction; a fault is flagged when the magnitude of its power shift
    exceeds the threshold.
    """
    return abs(pct_change) > 100.0 * threshold


@dataclass
class GradedFault:
    """One SFR fault with its Monte-Carlo power grade."""

    record: FaultRecord
    power_uw: float
    pct_change: float
    group: str  # 'select' (select lines only) or 'load' (affects loads)

    def effect_summary(self) -> list[str]:
        assert self.record.classification is not None
        return self.record.classification.effect_summary()


@dataclass
class GradingResult:
    """Figure-7-shaped result: fault-free power, band, ordered fault grades."""

    design: str
    fault_free_uw: float
    threshold: float
    graded: list[GradedFault] = field(default_factory=list)
    #: resilience summary of the Monte-Carlo fan-out
    campaign: RunReport | None = None
    #: every Monte-Carlo result with its activity trace, keyed by campaign
    #: fault key in SFR record order (baseline under ``_BASELINE_KEY``
    #: first) -- only when this call simulated all of them: ``None`` after
    #: a store replay or a seeded grade
    captured: dict[str, MonteCarloResult] | None = field(default=None, repr=False)

    def detected_flags(self) -> list[bool]:
        return [power_detected(g.pct_change, self.threshold) for g in self.graded]

    def group(self, name: str) -> list[GradedFault]:
        return [g for g in self.graded if g.group == name]

    def summary(self) -> dict:
        sel = self.group("select")
        load = self.group("load")
        return {
            "design": self.design,
            "fault_free_uw": self.fault_free_uw,
            "n_sfr": len(self.graded),
            "n_select_only": len(sel),
            "n_load": len(load),
            "select_detected": sum(
                1 for g in sel if power_detected(g.pct_change, self.threshold)
            ),
            "load_detected": sum(
                1 for g in load if power_detected(g.pct_change, self.threshold)
            ),
        }


def _context_batches(context) -> list:
    """The packed batch stimuli of a worker context, regenerated locally.

    The context carries only the campaign knobs -- each worker process
    regenerates the packed batch stimuli through the
    :func:`~repro.power.montecarlo.shared_batches` memo (bit-identical by
    construction: one RNG stream from one seed), so the pool never
    pickles the batch list itself.
    """
    system, _estimator, seed, batch_patterns, max_batches, iterations_window = context
    return shared_batches(
        system,
        seed=seed,
        batch_patterns=batch_patterns,
        max_batches=max_batches,
        iterations_window=iterations_window,
    )


def _grade_chunk_worker(context, chunk):
    """Monte-Carlo a whole fault chunk through the block-parallel kernel.

    One wide simulation of the batches every fault must run, then one
    per later Monte-Carlo batch for every still-unconverged fault of the
    chunk; every per-fault result carries its activity
    trace and is bit-identical to a per-fault ``monte_carlo_power`` run
    on the same knobs.
    """
    system, estimator, _seed, _bp, max_batches, iterations_window = context
    return monte_carlo_power_block(
        system,
        estimator,
        chunk,
        max_batches=max_batches,
        iterations_window=iterations_window,
        batches=_context_batches(context),
        capture_activity=True,
    )


def _grade_baseline(context) -> MonteCarloResult:
    """The campaign's fault-free result, activity trace included.

    Read off the fault-free runs the block kernel simulates for every
    fault chunk anyway (:func:`~repro.power.montecarlo.monte_carlo_baseline`),
    so the fault-free machine runs once per batch group in this process.
    """
    system, estimator, _seed, _bp, max_batches, _iw = context
    return monte_carlo_baseline(
        system, estimator, _context_batches(context), max_batches=max_batches
    )


def simulate_campaign(
    context: tuple,
    sites: list,
    on_result,
    config: PipelineConfig,
    chaos=None,
) -> RunReport:
    """Monte-Carlo every fault site of one campaign; ``on_result(site, mc)``
    receives each result (activity trace attached) as its chunk finishes.

    ``context`` is the worker context ``(system, estimator, seed,
    batch_patterns, max_batches, iterations_window)``; ``config`` supplies
    the fan-out (``n_jobs``, ``timeout``, ``max_retries``).  The faults go in
    order-preserving block-parallel chunks sized like fault simulation's
    (:func:`~repro.logic.faultsim.chunk_capacity`): one chunk per worker,
    capped so the chunk's widest blocks -- the first pass lays
    :func:`~repro.power.montecarlo.first_pass_batches` batches of
    ``V.num_words(batch_patterns)`` words side by side in each -- stay
    within :data:`~repro.logic.faultsim.MAX_BLOCK_WORDS`.
    """
    _system, _estimator, _seed, batch_patterns, max_batches, _iw = context
    wpb = V.num_words(batch_patterns) * first_pass_batches(max_batches)
    size = chunk_capacity(len(sites), config.n_jobs, wpb)
    chunks = [sites[i : i + size] for i in range(0, len(sites), size)]

    def _collect(chunk_items, chunk_results) -> None:
        for chunk, mcs in zip(chunk_items, chunk_results):
            for site, mc in zip(chunk, mcs):
                on_result(site, mc)

    worker, run_context = _grade_chunk_worker, context
    if chaos is not None:
        worker, run_context = chaos.wrap(worker, context)
    executor = ParallelExecutor(
        config.n_jobs,
        chunk_size=1,
        timeout=config.timeout,
        max_retries=config.max_retries,
    )
    executor.run(worker, chunks, run_context, on_chunk=_collect)
    assert executor.last_report is not None
    return executor.last_report


def grading_stage_key(
    stage: str, netlist_fp: str, design: str, sfr_keys: list[str], mc_params: dict
) -> str:
    """Store key of a ``grading`` or ``activity`` stage: both views of one
    campaign share the netlist content, SFR universe and Monte-Carlo knobs."""
    return stage_key(
        stage, netlist_fp, {"design": design, "faults": sfr_keys, "mc": mc_params}
    )


def verify_traces(estimator: PowerEstimator, results: dict[str, MonteCarloResult]) -> None:
    """Every trace of a campaign must recover its scalar power exactly."""
    for k, mc in results.items():
        verify_trace(estimator, k, mc)


def activity_payload(results: dict[str, MonteCarloResult]) -> dict:
    """The ``activity`` store payload of a verified campaign (baseline
    under ``_BASELINE_KEY``)."""
    return {
        "baseline": traced_json_dict(results[_BASELINE_KEY]),
        "faults": {
            k: traced_json_dict(mc) for k, mc in results.items() if k != _BASELINE_KEY
        },
    }


def activity_from_payload(
    payload: dict, sfr_keys: list[str]
) -> dict[str, MonteCarloResult] | None:
    """Replay an :func:`activity_payload` holding exactly ``sfr_keys``
    (baseline first, then SFR record order); None otherwise."""
    if "baseline" not in payload or set(payload.get("faults", ())) != set(sfr_keys):
        return None
    results = {_BASELINE_KEY: traced_from_json_dict(payload["baseline"])}
    for k in sfr_keys:
        results[k] = traced_from_json_dict(payload["faults"][k])
    return results


def _grading_from_payload(
    payload: dict, sfr_keys: list[str]
) -> tuple[MonteCarloResult, dict[str, MonteCarloResult]] | None:
    """Replay a ``grading`` payload holding exactly ``sfr_keys``: the
    baseline and the per-fault results; None otherwise."""
    if "baseline" not in payload or set(payload.get("faults", ())) != set(sfr_keys):
        return None
    return MonteCarloResult.from_json_dict(payload["baseline"]), {
        k: MonteCarloResult.from_json_dict(v) for k, v in payload["faults"].items()
    }


def grade_sfr_faults(
    system: System,
    pipeline_result: PipelineResult,
    estimator: PowerEstimator | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    seed: int = MC_DEFAULT_SEED,
    batch_patterns: int = MC_DEFAULT_BATCH_PATTERNS,
    max_batches: int = MC_DEFAULT_MAX_BATCHES,
    iterations_window: int = MC_DEFAULT_ITERATIONS_WINDOW,
    config: PipelineConfig | None = None,
    store: CampaignStore | None = None,
    seed_results: dict[str, "MonteCarloResult"] | None = None,
) -> GradingResult:
    """Monte-Carlo grade every SFR fault of a pipeline result.

    Each random batch is generated and packed once (``shared_batches``)
    and replayed for every SFR fault.  The fault-free baseline is not a
    campaign of its own: it is read off the fault-free reference run of
    each batch group that the block kernel simulates (and memoizes) anyway
    (:func:`~repro.power.montecarlo.monte_carlo_baseline`), bit-identical
    to a fault-free ``monte_carlo_power`` run on the same batches.  Faults
    are graded in block-parallel chunks: each fault of a chunk owns one
    pattern block of a single wide cone-restricted simulator, so the
    batches every fault must run are one pass over the chunk's union
    fault cone, and each later Monte-Carlo batch one more, instead of one
    simulator per fault per batch.  Powers and
    convergence histories are bit-identical to the per-fault
    ``monte_carlo_power`` reference at any batch size, and the chunks fan
    out across ``config.n_jobs`` processes with bit-identical powers
    regardless of job count.

    Every simulated result carries its per-batch integer activity trace
    (:class:`~repro.power.montecarlo.ActivityTrace`); when this call
    simulated the baseline and every fault, the results are kept on
    :attr:`GradingResult.captured` -- the fleet calibration's activity
    campaign (:mod:`repro.fleet.activity`) is this same campaign.

    Integrity layer (see :mod:`repro.core.integrity`): the fault-free
    baseline must be finite, positive and below the estimator's
    theoretical ceiling, or the whole grading aborts (a poisoned
    baseline poisons every percentage).  Every per-fault power is held
    to the same finite/ceiling invariants, register-load-adding faults
    to Section-5 monotonicity, and a hash-selected ``config.audit_rate``
    fraction is recomputed through the per-fault generate-per-call
    ``monte_carlo_power`` (independent of the campaign's block kernel).
    A violating fault is excluded from ``graded`` and recorded on the
    campaign report -- or, with ``config.strict``, aborts the run.
    ``config.chaos`` optionally injects worker crashes/hangs and
    power-word bit-flips (test and CI use only).  ``config`` (None means
    ``PipelineConfig()``) is the run's pipeline configuration: only its
    fan-out and integrity knobs apply here.

    With ``store`` set (see :mod:`repro.store`), a previously published
    grading campaign with the same netlist content, fault universe and
    Monte-Carlo knobs replays baseline and per-fault powers from the
    persistent store (bit-identical grades, no simulation).  A freshly
    computed campaign is published back only when its report is free of
    integrity violations, so a rerun after a kill in a later stage replays
    it.  With its traces captured, the campaign is published twice:
    as the scalar ``grading`` stage and, every trace verified against its
    scalar power first, as the ``activity`` stage a later fleet
    calibration replays.

    ``seed_results`` optionally pre-loads per-fault Monte-Carlo results
    (keyed by campaign fault key, baseline included) computed elsewhere,
    e.g. replayed from a structurally-identical baseline campaign by the
    incremental planner (see :mod:`repro.incremental`).  Seeded faults
    are counted as ``resumed`` and skip simulation bit-identically.
    Seeds carry no traces, so such a campaign publishes ``grading`` only.
    """
    config = config or PipelineConfig()
    validate_config(config)
    validate_netlist(system.netlist)
    if not 0 < threshold < 1:
        raise CampaignError(f"threshold must be a fraction in (0, 1), got {threshold}")
    mc_params = mc_campaign_params(seed, batch_patterns, max_batches, iterations_window)
    records = pipeline_result.sfr_records
    sfr_keys = [fault_key(r.system_site) for r in records]
    estimator = estimator or PowerEstimator(system.netlist)
    ceiling_uw = estimator.theoretical_max_uw()
    guard = IntegrityGuard(strict=config.strict)

    # Persistent-store fast path: a cached grading campaign keyed by the
    # netlist content, SFR fault universe and Monte-Carlo knobs replays the
    # baseline and every per-fault power bit-identically (floats round-trip
    # exactly through canonical JSON) without simulating a single batch.
    stage = open_stage(
        store,
        "grading",
        lambda: grading_stage_key(
            "grading",
            pipeline_result.netlist_fp,
            pipeline_result.design,
            sfr_keys,
            mc_params,
        ),
        lambda payload: _grading_from_payload(payload, sfr_keys),
    )
    if stage.hit:
        base, mc_by_key = stage.cached
        report = RunReport(n_items=len(records))
        audited: list[FaultRecord] = []
        quarantined_keys: set[str] = set()
    else:
        valid = set(sfr_keys) | {_BASELINE_KEY}
        mc_by_key = {k: v for k, v in (seed_results or {}).items() if k in valid}
        todo = [r for r in records if fault_key(r.system_site) not in mc_by_key]
        report = RunReport(n_items=len(records), resumed=len(records) - len(todo))

        audit_keys = set(select_audit(sfr_keys, config.audit_rate))
        chaos = config.chaos_engine()
        if chaos is not None:
            chaos.set_flip_targets(sorted(audit_keys))
        context = (system, estimator, seed, batch_patterns, max_batches, iterations_window)
        if _BASELINE_KEY in mc_by_key:
            base = mc_by_key[_BASELINE_KEY]
        else:
            base = _grade_baseline(context)
    # The baseline divides every percentage, so it cannot be quarantined:
    # a bad value here aborts unconditionally, strict or not -- replayed
    # store values included (defense against a tampered-but-valid blob).
    if not (math.isfinite(base.power_uw) and 0 < base.power_uw <= ceiling_uw):
        raise IntegrityError(
            f"fault-free Monte-Carlo power {base.power_uw!r} uW is unusable "
            f"(must be finite, positive and <= the theoretical ceiling "
            f"{ceiling_uw:.6g} uW); a poisoned baseline poisons every grade"
        )
    if not stage.hit and todo:

        def _collect_fault(site, mc) -> None:
            key = fault_key(site)
            if chaos is not None:
                mc = chaos.tamper_power(key, mc)
            mc_by_key[key] = mc

        report = simulate_campaign(
            context,
            [r.system_site for r in todo],
            _collect_fault,
            config,
            chaos=chaos,
        )
        report.n_items = len(records)
        report.completed = len(todo)
        report.resumed = len(records) - len(todo)

    if not stage.hit:
        # Differential audit: recompute the hash-selected subset through the
        # per-fault generate-per-call oracle (fresh data from the same seed
        # -- bit-identical to batch replay by construction) and require
        # exact agreement with the campaign's value.  Replayed store hits
        # skip this: only audited-clean campaigns are ever published.
        quarantined_keys = set()
        audited = [r for r in records if fault_key(r.system_site) in audit_keys]
        for record in audited:
            key = fault_key(record.system_site)
            reference = monte_carlo_power(
                system,
                estimator,
                fault=record.system_site,
                seed=seed,
                batch_patterns=batch_patterns,
                max_batches=max_batches,
                iterations_window=iterations_window,
            )
            got = mc_by_key[key]
            if got.power_uw != reference.power_uw or got.batches != reference.batches:
                guard.flag(
                    IntegrityViolation(
                        check="grading-differential",
                        fault=key,
                        site=record.site.describe(system.controller.netlist),
                        detail=(
                            "block-kernel Monte-Carlo power diverges from the "
                            "per-fault recomputation; fault excluded "
                            "from grading"
                        ),
                        expected=format_value(reference.power_uw),
                        actual=format_value(got.power_uw),
                    )
                )
                quarantined_keys.add(key)

    graded: list[GradedFault] = []
    for record in records:
        key = fault_key(record.system_site)
        if key in quarantined_keys:
            continue
        mc = mc_by_key[key]
        assert record.classification is not None
        site_desc = record.site.describe(system.controller.netlist)
        if not check_finite_power(guard, key, mc.power_uw, site_desc):
            continue
        if not check_power_ceiling(guard, key, mc.power_uw, ceiling_uw, site_desc):
            continue
        group = "load" if record.classification.affects_load_line else "select"
        pct = 100.0 * (mc.power_uw - base.power_uw) / base.power_uw
        if adds_register_loads(record.classification) and not check_load_monotonicity(
            guard, key, pct, site_desc
        ):
            continue
        graded.append(
            GradedFault(record=record, power_uw=mc.power_uw, pct_change=pct, group=group)
        )
    guard.attach(report, audited=len(audited))
    captured = None
    if not stage.hit and all(
        mc.activity is not None for mc in [base, *mc_by_key.values()]
    ):
        captured = {_BASELINE_KEY: base, **{k: mc_by_key[k] for k in sfr_keys}}
    published = not stage.hit and stage.publish(
        lambda: {
            "baseline": base.to_json_dict(),
            "faults": {k: mc_by_key[k].to_json_dict() for k in sfr_keys},
        },
        report,
        design=pipeline_result.design,
        meta={"faults": len(sfr_keys), "audited": len(audited)},
    )
    if published and captured is not None:
        # The traces are a by-product of the grading campaign: the
        # activity row costs only their verification and its payload,
        # so a later hit on both stages does not count the campaign
        # twice in ``saved_s``.
        activity = open_stage(
            store,
            "activity",
            lambda: grading_stage_key(
                "activity",
                pipeline_result.netlist_fp,
                pipeline_result.design,
                sfr_keys,
                mc_params,
            ),
        )
        verify_traces(estimator, captured)
        activity.publish(
            lambda: activity_payload(captured),
            design=pipeline_result.design,
            meta={"faults": len(sfr_keys)},
        )
    # Figure 7 ordering: select-only faults first, then load-line faults,
    # each sorted by increasing power.
    graded.sort(key=lambda g: (g.group != "select", g.power_uw))
    return GradingResult(
        design=pipeline_result.design,
        fault_free_uw=base.power_uw,
        threshold=threshold,
        graded=graded,
        campaign=report,
        captured=captured,
    )


@dataclass
class Table3Row:
    """One Table-3 row: a fault's power under several fixed test sets."""

    label: str
    monte_carlo_uw: float
    per_set_uw: list[float]
    monte_carlo_pct: float | None = None
    per_set_pct: list[float] | None = None


def table3_rows(
    system: System,
    estimator: PowerEstimator,
    grading: GradingResult,
    picks: list[GradedFault],
    seeds: tuple[int, ...] = (0xACE1, 0xBEEF, 0x1),
    n_patterns: int = 1200,
) -> list[Table3Row]:
    """Power under several 1200-pattern test sets; seed 0x1 is the paper's
    deliberately less-pseudorandom "almost all 0s" third set.

    Each TPGR test set is packed once and priced as a one-batch campaign:
    the fault-free power is read off its golden run
    (:func:`~repro.power.montecarlo.monte_carlo_baseline`) and every pick
    runs in one block-parallel pass
    (:func:`~repro.power.montecarlo.monte_carlo_power_block`), each power
    bit-identical to a full-netlist simulation of the set.
    """
    n_cycles = system.cycles_for(MC_DEFAULT_ITERATIONS_WINDOW)
    sites = [g.record.system_site for g in picks]
    base_sets: list[float] = []
    pick_sets: list[list[float]] = []
    for seed in seeds:
        tpgr = TPGR(system.rtl.dfg.inputs, system.rtl.width, seed=seed)
        data = {k: np.asarray(v) for k, v in tpgr.generate(n_patterns).items()}
        stim = [NormalModeStimulus(system, data, n_cycles)]
        base = monte_carlo_baseline(system, estimator, stim, max_batches=1)
        base_sets.append(base.power_uw)
        block = monte_carlo_power_block(
            system, estimator, sites, batches=stim, max_batches=1
        )
        pick_sets.append([mc.power_uw for mc in block])
    rows = [Table3Row("fault-free", grading.fault_free_uw, base_sets)]
    for i, g in enumerate(picks):
        per_set = [powers[i] for powers in pick_sets]
        rows.append(
            Table3Row(
                label=g.record.site.describe(system.controller.netlist),
                monte_carlo_uw=g.power_uw,
                per_set_uw=per_set,
                monte_carlo_pct=g.pct_change,
                per_set_pct=[
                    100.0 * (p - b) / b for p, b in zip(per_set, base_sets)
                ],
            )
        )
    return rows


def pick_representative(grading: GradingResult, count: int = 5) -> list[GradedFault]:
    """Table-1 style picks spanning the full range of power effects."""
    if not grading.graded:
        return []
    by_pct = sorted(grading.graded, key=lambda g: g.pct_change)
    if len(by_pct) <= count:
        return by_pct
    idx = np.linspace(0, len(by_pct) - 1, count).round().astype(int)
    return [by_pct[i] for i in dict.fromkeys(idx)]
