"""Store-backed ``grade`` stage walls on the three largest catalog designs.

Runs ``grade`` the way the CLI does -- :func:`run_pipeline` then
:func:`grade_sfr_faults` against a fresh store, at the CLI's default
pattern count and Monte-Carlo knobs -- and reads each stage's wall time
off the store's provenance rows (the ``--report-json`` ``store.stages``
of ``repro-faults --store-dir DIR --audit-rate 0 grade DESIGN``).  Audits
are off so the ``grading`` row times the block kernel alone and the
``classify`` row the array replay alone.  e2ebench covers only facet,
poly and diffeq (its largest design, where ``classify`` is the
second-largest stage); this bench is where a chunking or pass-width
change on biquad and ewf shows up.  Writes
``benchmarks/results/BENCH_grade_stages.json`` and ``grade_stages.txt``.

Set ``REPRO_GRADE_STAGES_REFERENCE`` to another build's
``BENCH_grade_stages.json`` (say, one written at the parent commit) to
render its stage walls under each design's row for comparison.
"""

import json
import os
import statistics
import time
from pathlib import Path

from repro.core.grading import grade_sfr_faults
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.designs.catalog import build_rtl
from repro.hls.system import build_system
from repro.store.cache import CampaignStore

from _config import FULL

DESIGNS = ("diffeq", "biquad", "ewf")
STAGES = ("faultsim", "classify", "grading")
ROUNDS = 3 if FULL else 2
REFERENCE = os.environ.get("REPRO_GRADE_STAGES_REFERENCE")


def _grade(design: str, store_dir, warm: bool) -> dict:
    """One store-backed grade: stage walls, process wall, counts.  A cold
    grade must miss every stage; a warm rerun against the store the cold
    one filled must hit every stage, and only its process wall counts."""
    t0 = time.perf_counter()
    system = build_system(build_rtl(design))
    store = CampaignStore(store_dir)
    config = PipelineConfig(audit_rate=0.0)
    result = run_pipeline(system, config, store=store)
    grading = grade_sfr_faults(system, result, config=config, store=store)
    wall = time.perf_counter() - t0
    walls = {p.stage: p.wall_s for p in store.provenance if p.stage in STAGES}
    assert set(walls) == set(STAGES) and all(
        p.hit == warm for p in store.provenance
    ), store.provenance
    if warm:
        return {"wall_s": wall}
    assert grading.captured is not None
    return {
        **walls,
        "wall_s": wall,
        "sfr": len(grading.graded),
        "mc_batches": sum(mc.batches for mc in grading.captured.values()),
    }


def test_grade_stage_walls(save_result, save_json, tmp_path):
    metrics = {"bench": "grade_stages", "host_cores": os.cpu_count(),
               "rounds": ROUNDS, "audit_rate": 0.0, "designs": {}}
    reference = json.loads(Path(REFERENCE).read_text())["designs"] if REFERENCE else {}
    lines = [
        "store-backed cold grade, stage walls (s), median of "
        f"{ROUNDS} rounds, audits off; warm: process wall of a second grade "
        "against the filled store (every stage a hit)",
        f"host cores: {os.cpu_count()}",
        *(["ref: the reference build's walls (REPRO_GRADE_STAGES_REFERENCE)"]
          if reference else []),
        "",
        f"{'design':<8}{'sfr':>5}{'mc_batches':>12}"
        + "".join(f"{s:>10}" for s in STAGES)
        + f"{'process':>10}{'warm':>10}",
    ]
    for design in DESIGNS:
        runs, warm = [], []
        for r in range(ROUNDS):
            store_dir = tmp_path / f"{design}-{r}"
            runs.append(_grade(design, store_dir, warm=False))
            warm.append(_grade(design, store_dir, warm=True)["wall_s"])
        # Same inputs, same store keys: every round grades the same faults
        # with the same Monte-Carlo batch counts.
        assert len({(r["sfr"], r["mc_batches"]) for r in runs}) == 1
        row = {
            f"{k}_s": statistics.median(r[k] for r in runs)
            for k in (*STAGES, "wall_s")
        }
        row["process_s"] = row.pop("wall_s_s")
        row["warm_s"] = statistics.median(warm)
        row["rounds_s"] = {k: [r[k] for r in runs] for k in (*STAGES, "wall_s")}
        row["rounds_s"]["warm"] = warm
        row["sfr"] = runs[0]["sfr"]
        row["mc_batches"] = runs[0]["mc_batches"]
        metrics["designs"][design] = row
        lines.append(
            f"{design:<8}{row['sfr']:>5}{row['mc_batches']:>12}"
            + "".join(f"{row[f'{s}_s']:>10.2f}" for s in STAGES)
            + f"{row['process_s']:>10.2f}{row['warm_s']:>10.3f}"
        )
        if design in reference:
            ref = reference[design]
            row["reference_s"] = {
                k: ref[f"{k}_s"] for k in (*STAGES, "process", "warm") if f"{k}_s" in ref
            }
            ref_warm = row["reference_s"].get("warm")
            lines.append(
                f"{'  ref':<25}"
                + "".join(f"{row['reference_s'][s]:>10.2f}" for s in STAGES)
                + f"{row['reference_s']['process']:>10.2f}"
                + (f"{ref_warm:>10.3f}" if ref_warm is not None else f"{'-':>10}")
            )
    save_result("grade_stages", "\n".join(lines))
    save_json("grade_stages", metrics)
