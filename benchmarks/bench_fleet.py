"""Fleet-calibration population kernel -- instances*faults per second.

The headline claim of the fleet layer: because power is linear in the
per-row activity counters, a manufactured fleet of any size is priced by
chunked float64 matmuls over one Monte-Carlo campaign's activity
matrices, so million-instance threshold ROCs are interactive.  This
bench captures one activity campaign per paper design, runs the
population kernel at a fixed instance count, verifies the sigma=0 anchor
(recovered powers bit-identical to the scalar grading fixture), and
records the kernel's wall-clock throughput (RNG, matmul, noise and
threshold counting) into ``BENCH_fleet.json``.
"""

from repro.core.report import render_table
from repro.fleet import (
    FleetConfig,
    activity_matrix,
    recovered_power_uw,
    run_population,
)
from repro.logic.faults import fault_key
from repro.power.montecarlo import DATAPATH_TAG

#: fleet size per design; many chunks, small enough for a CI smoke lane
INSTANCES = 250_000

#: the acceptance floor for the population kernel, in instances * faults
#: per second of the kernel's whole wall time
MIN_THROUGHPUT = 1e6


def test_fleet_kernel(
    benchmark, systems, estimators, activities, gradings, save_result, save_json
):
    campaigns = activities

    # sigma=0 anchor: the integer counters recover the grading fixture's
    # scalar powers bit-identically (same knobs, same simulations).
    for name, grading in gradings.items():
        campaign = campaigns[name]
        est = estimators[name]
        assert campaign.baseline.activity is not None
        assert recovered_power_uw(est, campaign.baseline.activity) == grading.fault_free_uw
        for g in grading.graded:
            mc = campaign.by_key[fault_key(g.record.system_site)]
            assert mc.activity is not None
            assert recovered_power_uw(est, mc.activity) == g.power_uw

    config = FleetConfig(instances=INSTANCES)
    mats = {
        name: (
            estimators[name].cap_decomposition(tag_prefix=DATAPATH_TAG),
            activity_matrix(campaigns[name], estimators[name]),
        )
        for name in systems
    }

    def run():
        return {
            name: run_population(
                estimators[name],
                decomp,
                A,
                campaigns[name].fault_keys,
                config,
                p_ref_uw=gradings[name].fault_free_uw,
                design=name,
            )
            for name, (decomp, A) in mats.items()
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    payload = {"instances": INSTANCES, "designs": {}}
    rows = []
    for name, result in results.items():
        n_faults = len(result.fault_keys)
        payload["designs"][name] = {
            "faults": n_faults,
            "rows": int(mats[name][1].shape[0]),
            "matmul_s": result.matmul_s,
            "wall_s": result.wall_s,
            "instances_faults_per_s": result.throughput,
            "chosen_threshold": result.chosen["threshold"],
            "chosen_yield_loss": result.chosen["yield_loss"],
            "chosen_escape_rate": result.chosen["escape_rate"],
        }
        rows.append(
            [
                name,
                str(n_faults),
                f"{result.wall_s:.3f}s",
                f"{result.matmul_s:.3f}s",
                f"{result.throughput:.3e}",
                f"{result.chosen['threshold']:.3f}",
            ]
        )
        assert result.throughput >= MIN_THROUGHPUT, (
            f"{name}: population kernel ran at {result.throughput:.3e} "
            f"instances*faults/s, below the {MIN_THROUGHPUT:.0e} floor"
        )
    payload["instances_faults_per_s"] = min(
        d["instances_faults_per_s"] for d in payload["designs"].values()
    )
    save_json("fleet", payload)
    save_result(
        "fleet",
        render_table(
            ["Design", "Faults", "Kernel", "Matmul", "inst*faults/s", "Chosen t"],
            rows,
            title=f"Fleet population kernel -- {INSTANCES} instances/design",
        ),
    )
