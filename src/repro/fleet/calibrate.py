"""End-to-end fleet calibration: grading -> activity -> population ROC.

One call ties the three layers together and enforces the identity the
whole construction rests on: the scalar powers the grading path reports
must be *bit-identical* to the powers recovered from the activity
campaign's integer counters (they are the same simulations -- the
activity campaign is the grading campaign's captured traces, or their
store replay).  The population matmul then prices the fleet off those
same counters, so at zero sigma its verdicts reproduce the scalar
grading verdicts.  Faults the grading campaign quarantined stay out of
the fleet, and a campaign with integrity violations publishes nothing.

Fleet results are store artifacts of their own (stage ``"fleet"``),
keyed by the activity campaign's identity plus the fleet configuration:
a warm ``repro-faults calibrate`` run -- even at a million instances --
touches no simulator at all, and a warm *repeat* of the same
configuration skips even the matmul.
"""

from __future__ import annotations

from ..core.errors import IntegrityError
from ..core.grading import DEFAULT_THRESHOLD, GradingResult, grade_sfr_faults
from ..core.pipeline import PipelineConfig, PipelineResult
from ..core.report import RESULT_SCHEMA_VERSION
from ..hls.system import System
from ..logic.faults import fault_key
from ..power.estimator import PowerEstimator
from ..power.montecarlo import (
    DATAPATH_TAG,
    MC_DEFAULT_BATCH_PATTERNS,
    MC_DEFAULT_ITERATIONS_WINDOW,
    MC_DEFAULT_MAX_BATCHES,
    MC_DEFAULT_SEED,
    mc_campaign_params,
)
from ..store.cache import CampaignStore, open_stage
from ..store.fingerprint import stage_key
from .activity import ActivityCampaign, activity_campaign
from .population import FleetConfig, FleetResult, activity_matrix, run_population


def fleet_store_key(
    pipeline_result: PipelineResult, mc_params: dict, config: FleetConfig
) -> str:
    """Content-addressed key of one fleet ROC artifact."""
    sfr_keys = [fault_key(r.system_site) for r in pipeline_result.sfr_records]
    return stage_key(
        "fleet",
        pipeline_result.netlist_fp,
        {
            "design": pipeline_result.design,
            "faults": sfr_keys,
            "mc": mc_params,
            "fleet": config.params_dict(),
        },
    )


def _check_bit_identity(campaign: ActivityCampaign, grading: GradingResult) -> None:
    """Grading powers and activity-recovered powers must agree exactly.

    This is the sigma=0 anchor of the whole fleet model: the integer
    counters are the measurement, the scalar grade is a pure function of
    them.  ``activity_campaign`` has already checked that every trace
    recovers its own result's power, so comparing those powers with the
    grades compares the counters with them.  Any divergence -- a tampered
    artifact, a drifted float pipeline -- invalidates every ROC point, so
    it aborts.
    """
    if campaign.baseline.power_uw != grading.fault_free_uw:
        raise IntegrityError(
            f"activity baseline recovers {campaign.baseline.power_uw!r} uW but "
            f"grading reports {grading.fault_free_uw!r} uW; the campaigns diverged"
        )
    for g in grading.graded:
        key = fault_key(g.record.system_site)
        mc = campaign.by_key.get(key)
        if mc is None:
            raise IntegrityError(
                f"graded fault {key!r} is missing from the activity campaign"
            )
        if mc.power_uw != g.power_uw:
            raise IntegrityError(
                f"activity counters of {key!r} recover {mc.power_uw!r} uW but "
                f"grading reports {g.power_uw!r} uW; the campaigns diverged"
            )


def calibrate_fleet(
    system: System,
    pipeline_result: PipelineResult,
    fleet: FleetConfig,
    threshold: float = DEFAULT_THRESHOLD,
    estimator: PowerEstimator | None = None,
    seed: int = MC_DEFAULT_SEED,
    batch_patterns: int = MC_DEFAULT_BATCH_PATTERNS,
    max_batches: int = MC_DEFAULT_MAX_BATCHES,
    iterations_window: int = MC_DEFAULT_ITERATIONS_WINDOW,
    config: PipelineConfig | None = None,
    store: CampaignStore | None = None,
) -> tuple[FleetResult, ActivityCampaign, GradingResult]:
    """Calibrate one design's fleet threshold; returns (fleet, activity, grading).

    Runs (or replays from ``store``) the grading campaign, takes its
    captured activity traces (or replays the ``activity`` stage, or --
    after a grade that captured none -- computes them), cross-checks the
    two bit-identically, then runs (or replays) the population kernel
    over the faults that survived grading.  ``threshold`` only
    parameterises the embedded scalar grading report; the fleet sweeps
    ``fleet.thresholds``.  ``config`` (None means ``PipelineConfig()``)
    carries the run's fan-out and integrity knobs into both campaigns.
    """
    fleet.validate()
    estimator = estimator or PowerEstimator(system.netlist)
    mc = dict(
        seed=seed,
        batch_patterns=batch_patterns,
        max_batches=max_batches,
        iterations_window=iterations_window,
    )
    grading = grade_sfr_faults(
        system,
        pipeline_result,
        estimator=estimator,
        threshold=threshold,
        config=config,
        store=store,
        **mc,
    )
    campaign = activity_campaign(
        system,
        pipeline_result,
        estimator=estimator,
        config=config,
        store=store,
        grading=grading,
        **mc,
    )
    _check_bit_identity(campaign, grading)
    survivors = {fault_key(g.record.system_site) for g in grading.graded}
    fault_keys = [k for k in campaign.fault_keys if k in survivors]

    mc_params = mc_campaign_params(**mc)
    # a campaign with integrity violations neither replays nor publishes
    stage = open_stage(
        None if grading.campaign.violations else store,
        "fleet",
        lambda: fleet_store_key(pipeline_result, mc_params, fleet),
        lambda payload: (
            FleetResult.from_json_dict(payload)
            if payload.get("params") == fleet.params_dict()
            else None
        ),
    )
    if stage.hit:
        return stage.cached, campaign, grading

    decomp = estimator.cap_decomposition(tag_prefix=DATAPATH_TAG)
    A = activity_matrix(campaign, estimator, fault_keys)
    result = run_population(
        estimator,
        decomp,
        A,
        fault_keys,
        fleet,
        p_ref_uw=grading.fault_free_uw,
        design=pipeline_result.design,
    )
    stage.publish(
        result.to_json_dict,
        design=pipeline_result.design,
        meta={"instances": fleet.instances, "faults": len(fault_keys)},
    )
    return result, campaign, grading


def calibrate_report_dict(result: FleetResult) -> dict:
    """Deterministic JSON body of one calibrate run (no timings)."""
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "command": "calibrate",
        "design": result.design,
        "fleet": result.to_json_dict(),
        "roc": result.roc(),
    }
