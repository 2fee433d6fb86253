"""Shared fixtures for the benchmark harness.

Every bench regenerates one table or figure of the paper (see DESIGN.md's
experiment index) and writes its rendering to ``benchmarks/results/``.
Scale is controlled by ``REPRO_FULL=1`` (paper-scale: 1200-pattern test
sets, full Monte-Carlo budgets); the default is a faster configuration
that preserves every qualitative conclusion.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.grading import grade_sfr_faults
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.designs.catalog import PAPER_DESIGNS, cached_system
from repro.fleet import activity_campaign
from repro.power.estimator import PowerEstimator

from _config import MC_BATCH, MC_MAX_BATCHES, PATTERNS

RESULTS = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def save_result():
    RESULTS.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (RESULTS / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _save


@pytest.fixture(scope="session")
def save_json():
    """Machine-readable benchmark metrics: ``results/BENCH_<name>.json``.

    CI and trend tooling parse these (wall seconds, faults/sec, cache hit
    ratios) instead of scraping the human-oriented ``.txt`` renderings.
    """
    RESULTS.mkdir(exist_ok=True)

    def _save(name: str, payload: dict) -> None:
        path = RESULTS / f"BENCH_{name}.json"
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
        print(f"\nwrote {path}")

    return _save


@pytest.fixture(scope="session")
def systems():
    return {name: cached_system(name) for name in PAPER_DESIGNS}


@pytest.fixture(scope="session")
def pipelines(systems):
    cfg = PipelineConfig(n_patterns=PATTERNS)
    return {name: run_pipeline(system, cfg) for name, system in systems.items()}


@pytest.fixture(scope="session")
def estimators(systems):
    return {name: PowerEstimator(s.netlist) for name, s in systems.items()}


@pytest.fixture(scope="session")
def gradings(systems, pipelines, estimators):
    """Scalar SFR grades: the session's single Monte-Carlo run per design.

    Each grade captures its activity traces, which the ``activities``
    fixture reuses, so no fault is simulated twice across the bench suite.
    """
    return {
        name: grade_sfr_faults(
            systems[name],
            pipelines[name],
            estimator=estimators[name],
            threshold=0.05,
            batch_patterns=MC_BATCH,
            max_batches=MC_MAX_BATCHES,
        )
        for name in systems
    }


@pytest.fixture(scope="session")
def activities(systems, pipelines, estimators, gradings):
    """Per-design activity campaigns: the grading campaigns' captured
    traces (same seed, batch size and budget), so the per-fault powers
    recovered from the counters are bit-identical to the scalar grades."""
    return {
        name: activity_campaign(
            systems[name],
            pipelines[name],
            estimator=estimators[name],
            batch_patterns=MC_BATCH,
            max_batches=MC_MAX_BATCHES,
            grading=gradings[name],
        )
        for name in systems
    }
