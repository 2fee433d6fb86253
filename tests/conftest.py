"""Shared fixtures: built systems and pipeline results are expensive, so
they are session-scoped and reused across the test modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig, controller_fault_universe, run_pipeline
from repro.designs.catalog import build_rtl
from repro.hls.system import NormalModeStimulus, build_system, hold_masks
from repro.tpg.tpgr import TPGR


@pytest.fixture(scope="session")
def diffeq_system():
    return build_system(build_rtl("diffeq"))


@pytest.fixture(scope="session")
def facet_system():
    return build_system(build_rtl("facet"))


@pytest.fixture(scope="session")
def poly_system():
    return build_system(build_rtl("poly"))


@pytest.fixture(scope="session")
def facet_pipeline(facet_system):
    return run_pipeline(facet_system, PipelineConfig(n_patterns=128))


@pytest.fixture(scope="session")
def diffeq_pipeline(diffeq_system):
    return run_pipeline(diffeq_system, PipelineConfig(n_patterns=128))


@pytest.fixture(scope="session")
def facet_faultsim_setup(facet_system):
    """A complete facet fault-simulation campaign setup (128 patterns)."""
    system = facet_system
    tpgr = TPGR(system.rtl.dfg.inputs, system.rtl.width, seed=0xACE1)
    data = {k: np.asarray(v) for k, v in tpgr.generate(128).items()}
    stim = NormalModeStimulus(system, data, system.cycles_for(3))
    masks = hold_masks(system, stim)
    observe = [n for bus in system.output_buses.values() for n in bus]
    faults = [system.to_system_fault(s) for s in controller_fault_universe(system)]
    return system, stim, masks, observe, faults


@pytest.fixture
def fault_free_runs(monkeypatch) -> dict:
    """Counts of the pipeline's ``run_golden`` and ``TPGR.generate``
    calls."""
    import repro.core.pipeline as pipeline_mod

    calls = {"run_golden": 0, "generate": 0}
    real_run_golden = pipeline_mod.run_golden

    def run_golden(*args, **kwargs):
        calls["run_golden"] += 1
        return real_run_golden(*args, **kwargs)

    class CountingTPGR(pipeline_mod.TPGR):
        def generate(self, n_patterns):
            calls["generate"] += 1
            return super().generate(n_patterns)

    monkeypatch.setattr(pipeline_mod, "run_golden", run_golden)
    monkeypatch.setattr(pipeline_mod, "TPGR", CountingTPGR)
    return calls
