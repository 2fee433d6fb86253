"""Activity campaigns: the per-fault integer counters behind every grade.

The fleet kernel rests on one structural fact (see ``docs/theory.md``):
switching activity is *instance-independent*.  Which nets toggle, and how
often, is decided by the netlist and the stimulus -- never by the
manufacturing spread of one chip's capacitances.  So a single Monte-Carlo
campaign per fault yields an activity vector that prices power for every
instance of the fleet via :meth:`repro.power.estimator.PowerEstimator.
power_from_counts`'s linearity.

That campaign is the grading campaign itself: every result
:func:`~repro.core.grading.grade_sfr_faults` simulates carries its
per-batch integer :class:`~repro.power.montecarlo.ActivityTrace`, and a
clean grade publishes the traces as their own content-addressed store
artifact (stage ``"activity"``) next to the scalar ``grading`` stage,
under the same netlist fingerprint / fault universe / Monte-Carlo knobs.
This module returns that campaign: from a grade that just captured it,
from the store (zero re-simulation), or -- when neither has it, e.g.
after a grade seeded from a baseline campaign -- by running the grading
campaign's own kernel.  The scalar powers are a pure function of the
counters (:func:`recovered_power_uw`), checked on every replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import validate_netlist
from ..core.grading import (
    _BASELINE_KEY,
    GradingResult,
    _grade_baseline,
    activity_from_payload,
    activity_payload,
    grading_stage_key,
    simulate_campaign,
    verify_traces,
)
from ..core.parallel import RunReport
from ..core.pipeline import PipelineConfig, PipelineResult
from ..hls.system import System
from ..logic.faults import fault_key
from ..power.estimator import PowerEstimator

# ``monte_carlo_power``/``monte_carlo_power_block`` are bound here as well so
# per-module instrumentation (``e2ebench/layers.py``) keeps finding them.
from ..power.montecarlo import (  # noqa: F401
    MC_DEFAULT_BATCH_PATTERNS,
    MC_DEFAULT_ITERATIONS_WINDOW,
    MC_DEFAULT_MAX_BATCHES,
    MC_DEFAULT_SEED,
    MonteCarloResult,
    mc_campaign_params,
    monte_carlo_power,
    monte_carlo_power_block,
    recovered_power_uw,
)
from ..store.cache import CampaignStore, open_stage


@dataclass
class ActivityCampaign:
    """One design's converged per-fault activity matrices.

    ``baseline`` and every entry of ``by_key`` carry a non-``None``
    ``activity`` trace; ``by_key`` is keyed by campaign fault key in SFR
    record order.
    """

    design: str
    baseline: MonteCarloResult
    by_key: dict[str, MonteCarloResult]
    key: str | None = None
    campaign: RunReport | None = None
    store_hit: bool = False
    fault_keys: list[str] = field(default_factory=list)


def activity_campaign(
    system: System,
    pipeline_result: PipelineResult,
    estimator: PowerEstimator | None = None,
    seed: int = MC_DEFAULT_SEED,
    batch_patterns: int = MC_DEFAULT_BATCH_PATTERNS,
    max_batches: int = MC_DEFAULT_MAX_BATCHES,
    iterations_window: int = MC_DEFAULT_ITERATIONS_WINDOW,
    config: PipelineConfig | None = None,
    store: CampaignStore | None = None,
    grading: GradingResult | None = None,
) -> ActivityCampaign:
    """Converged activity matrices for the fault-free machine + every SFR fault.

    A ``grading`` result on the same knobs that captured its campaign
    (:attr:`~repro.core.grading.GradingResult.captured`) *is* the
    campaign: no lookup, no simulation.  Otherwise, with ``store`` set, a
    previously published campaign with the same netlist content, fault
    universe and Monte-Carlo knobs replays every integer counter from the
    store with zero simulation (the replay is verified: counters must
    recover the recorded scalar power exactly).  Failing both, the
    grading campaign's kernel runs here, fanned out as ``config`` (None
    means ``PipelineConfig()``) says; every trace is verified, and the
    campaign is published unless ``grading`` reports integrity violations.
    """
    validate_netlist(system.netlist)
    mc_params = mc_campaign_params(seed, batch_patterns, max_batches, iterations_window)
    records = pipeline_result.sfr_records
    sfr_keys = [fault_key(r.system_site) for r in records]
    estimator = estimator or PowerEstimator(system.netlist)
    report = RunReport(n_items=len(records), resumed=len(records))
    stage = None
    results = grading.captured if grading is not None else None
    if results is None:
        stage = open_stage(
            store,
            "activity",
            lambda: grading_stage_key(
                "activity",
                pipeline_result.netlist_fp,
                pipeline_result.design,
                sfr_keys,
                mc_params,
            ),
            lambda payload: activity_from_payload(payload, sfr_keys),
        )
        results = stage.cached
    fresh = results is None
    if fresh:
        config = config or PipelineConfig()
        context = (system, estimator, seed, batch_patterns, max_batches, iterations_window)
        results = {_BASELINE_KEY: _grade_baseline(context)}

        def _collect(site, mc) -> None:
            results[fault_key(site)] = mc

        report = simulate_campaign(
            context,
            [r.system_site for r in records],
            _collect,
            config,
            chaos=config.chaos_engine(),
        )
        report.n_items = report.completed = len(records)
    verify_traces(estimator, results)
    if fresh:
        stage.publish(
            lambda: activity_payload(results),
            None if grading is None else grading.campaign,
            design=pipeline_result.design,
            meta={"faults": len(sfr_keys)},
        )
    return ActivityCampaign(
        design=pipeline_result.design,
        baseline=results[_BASELINE_KEY],
        by_key={k: results[k] for k in sfr_keys},
        key=None if stage is None else stage.key,
        campaign=report,
        store_hit=stage is not None and stage.hit,
        fault_keys=sfr_keys,
    )
