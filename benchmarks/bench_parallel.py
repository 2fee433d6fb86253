"""Serial-vs-parallel scaling of the fault-parallel engine.

Times the two fan-out stages of the pipeline -- fault simulation and
Monte-Carlo power grading -- at increasing ``n_jobs``, times the
cone-restricted fault-sim engine alone and checks every verdict against
the serial per-fault oracle, verifies the results stay bit-identical,
and records the wall-clock table in ``benchmarks/results/parallel.txt``.  On a
single-core host the parallel rows only show process overhead; the
bit-identity assertions are the point there.
"""

import os
import time

import numpy as np

from repro.core.grading import grade_sfr_faults
from repro.core.pipeline import PipelineConfig, controller_fault_universe
from repro.hls.system import NormalModeStimulus, hold_masks
from repro.logic.faults import fault_key
from repro.logic.faultsim import (
    fault_simulate,
    run_golden,
    simulate_one_fault,
    verdicts_from_payload,
    verdicts_payload,
)
from repro.power.estimator import PowerEstimator
from repro.power.montecarlo import monte_carlo_power
from repro.store.cache import CampaignStore
from repro.store.fingerprint import netlist_fingerprint, stage_key
from repro.tpg.tpgr import TPGR

from _config import MC_BATCH, MC_MAX_BATCHES, PATTERNS

JOB_COUNTS = (1, 2, 4)


def _campaign(system):
    """Stimulus, sampling masks, observed nets and faults of the bench."""
    tpgr = TPGR(system.rtl.dfg.inputs, system.rtl.width, seed=0xACE1)
    data = {k: np.asarray(v) for k, v in tpgr.generate(PATTERNS).items()}
    stim = NormalModeStimulus(system, data, system.cycles_for(4))
    masks = hold_masks(system, stim)
    observe = [n for bus in system.output_buses.values() for n in bus]
    faults = [system.to_system_fault(s) for s in controller_fault_universe(system)]
    return stim, masks, observe, faults


def _fault_sim_once(system, n_jobs, audit_rate=None):
    stim, masks, observe, faults = _campaign(system)
    kwargs = {} if audit_rate is None else {"audit_rate": audit_rate}
    t0 = time.perf_counter()
    result = fault_simulate(
        system.netlist,
        faults,
        stim,
        observe=observe,
        valid_masks=masks,
        n_jobs=n_jobs,
        **kwargs,
    )
    return time.perf_counter() - t0, result


def _fault_sim_stored(system, store):
    """One ``faultsim`` store stage: replayed on a hit, else simulated
    and published."""
    faults = _campaign(system)[3]
    key = stage_key(
        "faultsim",
        netlist_fingerprint(system.netlist),
        {"bench": "parallel", "patterns": PATTERNS},
    )
    t0 = time.perf_counter()
    stage = store.stage(
        "faultsim", key, lambda payload: verdicts_from_payload(payload, faults)
    )
    if stage.hit:
        result = stage.cached
    else:
        result = _fault_sim_once(system, 1)[1]
        stage.publish(lambda: verdicts_payload(result, faults), result.campaign)
    return time.perf_counter() - t0, result


def test_parallel_scaling(systems, pipelines, save_result, save_json, tmp_path):
    system = systems["diffeq"]
    lines = [
        "parallel scaling (diffeq)",
        f"host cores: {os.cpu_count()}",
        "",
        f"{'stage':<16}{'n_jobs':>8}{'wall s':>10}{'speedup':>10}",
    ]

    metrics = {"bench": "parallel", "design": "diffeq", "host_cores": os.cpu_count(),
               "patterns": PATTERNS, "stages": []}
    base_time, base_result = None, None
    for n_jobs in JOB_COUNTS:
        elapsed, result = _fault_sim_once(system, n_jobs)
        if base_result is None:
            base_time, base_result = elapsed, result
        assert result.verdicts == base_result.verdicts
        assert result.detect_cycle == base_result.detect_cycle
        lines.append(
            f"{'fault_sim':<16}{n_jobs:>8}{elapsed:>10.2f}{base_time / elapsed:>10.2f}"
        )
        metrics["stages"].append(
            {
                "stage": "fault_sim",
                "n_jobs": n_jobs,
                "wall_s": elapsed,
                "faults_per_s": len(result.verdicts) / elapsed,
            }
        )

    base_time, base_grading = None, None
    for n_jobs in JOB_COUNTS:
        t0 = time.perf_counter()
        grading = grade_sfr_faults(
            system,
            pipelines["diffeq"],
            batch_patterns=MC_BATCH,
            max_batches=MC_MAX_BATCHES,
            config=PipelineConfig(n_jobs=n_jobs),
        )
        elapsed = time.perf_counter() - t0
        if base_grading is None:
            base_time, base_grading = elapsed, grading
        assert grading.fault_free_uw == base_grading.fault_free_uw
        assert [
            (g.power_uw, g.pct_change, g.group) for g in grading.graded
        ] == [(g.power_uw, g.pct_change, g.group) for g in base_grading.graded]
        lines.append(
            f"{'grading':<16}{n_jobs:>8}{elapsed:>10.2f}{base_time / elapsed:>10.2f}"
        )
        metrics["stages"].append(
            {
                "stage": "grading",
                "n_jobs": n_jobs,
                "wall_s": elapsed,
                "faults_per_s": len(pipelines["diffeq"].sfr_records) / elapsed,
            }
        )

    # Grading kernel: the per-fault Monte-Carlo oracle vs the
    # cone-restricted block-parallel kernel, bit-identical by contract.
    sfr = pipelines["diffeq"].sfr_records
    mc_kwargs = dict(batch_patterns=MC_BATCH, max_batches=MC_MAX_BATCHES)
    estimator = PowerEstimator(system.netlist)
    t0 = time.perf_counter()
    oracle_base = monte_carlo_power(system, estimator, **mc_kwargs).power_uw
    oracle = {
        fault_key(r.system_site): monte_carlo_power(
            system, estimator, fault=r.system_site, **mc_kwargs
        ).power_uw
        for r in sfr
    }
    mc_oracle_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    grading = grade_sfr_faults(
        system,
        pipelines["diffeq"],
        config=PipelineConfig(audit_rate=0.0),
        **mc_kwargs,
    )
    mc_kernel_s = time.perf_counter() - t0
    assert grading.fault_free_uw == oracle_base == base_grading.fault_free_uw
    assert {fault_key(g.record.system_site): g.power_uw for g in grading.graded} == oracle
    kernel_rows = {
        label: {"wall_s": wall, "faults_per_s": len(sfr) / wall}
        for label, wall in (("oracle", mc_oracle_s), ("kernel", mc_kernel_s))
    }

    fault_sim_fps = next(
        s["faults_per_s"]
        for s in metrics["stages"]
        if s["stage"] == "fault_sim" and s["n_jobs"] == 1
    )
    grading_fps = kernel_rows["kernel"]["faults_per_s"]
    ratio = fault_sim_fps / grading_fps
    metrics["grading_kernel"] = {
        **{f"{k}_{f}": v[f] for k, v in kernel_rows.items() for f in v},
        "speedup": mc_oracle_s / mc_kernel_s,
        "fault_sim_faults_per_s": fault_sim_fps,
        "fault_sim_to_grading_ratio": ratio,
    }
    lines += [
        "",
        "grading kernel vs per-fault oracle (audits off, bit-identical):",
    ] + [
        f"  {label:<14}{row['wall_s']:>8.2f}s{row['faults_per_s']:>10.1f} faults/s"
        for label, row in kernel_rows.items()
    ] + [
        f"  fault_sim/grading throughput ratio: {ratio:.1f}x",
    ]
    if ratio > 8.0:
        msg = (
            f"LOUD: grading is still {ratio:.1f}x slower than fault "
            f"simulation (target <= 8x) -- the power kernel has regressed"
        )
        print(msg)
        lines.append(f"  {msg}")

    # The cone-restricted engine alone (audits off, so the row times the
    # engine, not the serial audit re-simulations), then every verdict
    # and detect cycle checked against the serial per-fault oracle.
    cone_s = min(_fault_sim_once(system, 1, audit_rate=0.0)[0] for _ in range(3))
    cone_result = _fault_sim_once(system, 1, audit_rate=0.0)[1]
    assert cone_result.verdicts == base_result.verdicts
    assert cone_result.cone is not None
    stim, masks, observe, faults = _campaign(system)
    t0 = time.perf_counter()
    golden = run_golden(system.netlist, stim, observe)
    for fault in faults:
        verdict, cycle = simulate_one_fault(
            system.netlist, fault, stim, observe, golden, masks
        )
        assert cone_result.verdicts[fault] is verdict, fault
        assert cone_result.detect_cycle.get(fault, -1) == cycle, fault
    oracle_s = time.perf_counter() - t0
    metrics["cone"] = {
        "cone_wall_s": cone_s,
        "oracle_wall_s": oracle_s,
        "evaluated_gate_fraction": cone_result.cone.evaluated_gate_fraction,
        "early_death_rate": cone_result.cone.early_death_rate,
    }
    lines += [
        "",
        f"cone engine: {cone_s:.2f}s vs serial oracle {oracle_s:.2f}s "
        f"(gate fraction {cone_result.cone.evaluated_gate_fraction:.2f}, "
        f"early death {cone_result.cone.early_death_rate:.2f}, "
        f"every verdict equals the oracle)",
    ]

    # Store replay: publish once cold, then measure the warm hit path and
    # confirm it stays bit-identical to the simulated baseline.
    store_root = tmp_path / "store"
    cold_s, cold_result = _fault_sim_stored(system, CampaignStore(store_root))
    warm_store = CampaignStore(store_root)
    warm_s, warm_result = _fault_sim_stored(system, warm_store)
    assert warm_store.hit_ratio() == 1.0
    assert warm_result.verdicts == cold_result.verdicts == base_result.verdicts
    metrics["store"] = {
        "cold_wall_s": cold_s,
        "warm_wall_s": warm_s,
        "warm_hit_ratio": warm_store.hit_ratio(),
        "warm_speedup": cold_s / warm_s if warm_s else None,
        "faults": len(cold_result.verdicts),
    }
    lines += [
        "",
        f"store replay: cold {cold_s:.2f}s -> warm {warm_s:.3f}s "
        f"(hit ratio {warm_store.hit_ratio():.0%}, bit-identical)",
    ]

    lines += ["", "all rows bit-identical to the n_jobs=1 baseline"]
    save_result("parallel", "\n".join(lines))
    save_json("parallel", metrics)


#: per-design dirty-fraction ceilings for a single-gate restructure; the
#: CI replay job asserts the diffeq one independently (see ci.yml)
DIRTY_CEILING = {"diffeq": 0.25, "ewf": 0.25, "biquad": 0.25}


def test_incremental_replay(save_result, save_json, tmp_path):
    """Cold vs incremental wall time after a one-gate edit, per design.

    For each design: publish a cold campaign, apply a scripted
    behavior-preserving restructure (AND -> NAND+NOT), rerun with the
    original netlist as ``--baseline`` and record the wall-clock ratio
    plus the dirty fraction the planner actually re-simulated.  Appends
    an ``incremental`` section to ``BENCH_parallel.json`` (the scaling
    test writes the rest of the file first).
    """
    import json as _json

    from repro.core.pipeline import run_pipeline
    from repro.designs.catalog import cached_system
    from repro.incremental import edit_system_controller, pick_editable_gate

    from conftest import RESULTS

    cfg = PipelineConfig(n_patterns=PATTERNS)
    rows = {}
    lines = ["incremental replay (one-gate restructure edit)", ""]
    for name in ("diffeq", "ewf", "biquad"):
        system = cached_system(name)
        store_root = tmp_path / f"store-{name}"
        t0 = time.perf_counter()
        run_pipeline(system, cfg, store=CampaignStore(store_root))
        cold_s = time.perf_counter() - t0
        edited = edit_system_controller(
            system, pick_editable_gate(system, "restructure"), "restructure"
        )
        t0 = time.perf_counter()
        inc = run_pipeline(
            edited,
            cfg,
            store=CampaignStore(store_root),
            baseline=system.netlist,
        )
        inc_s = time.perf_counter() - t0
        assert inc.incremental is not None, f"{name}: planner never engaged"
        fraction = inc.incremental["dirty_fraction"]
        assert fraction < DIRTY_CEILING[name], (
            f"{name}: dirty fraction {fraction:.3f} over the "
            f"{DIRTY_CEILING[name]:.2f} ceiling"
        )
        assert inc.campaign.replayed > 0
        rows[name] = {
            "cold_wall_s": cold_s,
            "incremental_wall_s": inc_s,
            "speedup": cold_s / inc_s if inc_s else None,
            "faults": inc.incremental["faults"],
            "dirty": inc.incremental["dirty"],
            "dirty_fraction": fraction,
            "region_equivalent": inc.incremental["region_equivalent"],
        }
        lines.append(
            f"  {name:<8} cold {cold_s:>7.2f}s -> incremental {inc_s:>6.2f}s "
            f"({cold_s / inc_s:>5.1f}x), dirty {rows[name]['dirty']}/"
            f"{rows[name]['faults']} ({fraction:.1%})"
        )

    path = RESULTS / "BENCH_parallel.json"
    metrics = _json.loads(path.read_text()) if path.exists() else {
        "bench": "parallel"
    }
    metrics["incremental"] = {"patterns": PATTERNS, "designs": rows}
    save_json("parallel", metrics)
    save_result("incremental_replay", "\n".join(lines))
