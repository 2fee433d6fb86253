"""Catalog-wide engine equivalence sweep.

Every design in the catalog is driven through the three simulation
paths -- the compiled pattern-parallel :class:`CycleSimulator` (fresh
compile), the same simulator reusing a shared :class:`CompiledNetlist`
from the compile cache, and the scalar event-driven reference engine --
and their traces must be identical.  This is the integrity layer's
foundation: the differential audit is only meaningful if the paths it
compares are bit-identical on correct hardware.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import controller_fault_universe
from repro.designs.catalog import build_rtl, design_names
from repro.hls.system import NormalModeStimulus, build_system
from repro.logic.simulator import _COMPILE_CACHE, CycleSimulator, compile_netlist

from .eventsim import crosscheck_compiled


def _system_and_stimulus(name: str):
    system = build_system(build_rtl(name))
    rng = np.random.default_rng(hash(name) % (2**32))
    data = {
        k: rng.integers(0, 1 << system.rtl.width, 4)
        for k in system.rtl.dfg.inputs
    }
    stim = NormalModeStimulus(system, data, system.cycles_for(2))
    observe = [n for bus in system.output_buses.values() for n in bus]
    return system, stim, observe


def _trace(netlist, stim, observe, fault=None, precompile: bool = False):
    """Per-cycle sampled values of the observed nets."""
    _COMPILE_CACHE.clear()
    if precompile:
        compile_netlist(netlist)  # simulator reuses the shared artifact
    sim = CycleSimulator(
        netlist, stim.n_patterns, faults=[fault] if fault else None
    )
    out = []
    for cycle in range(stim.n_cycles):
        stim.apply(sim, cycle)
        sim.settle()
        out.append([sim.sample(n).tolist() for n in observe])
        sim.latch()
    return out


@pytest.mark.parametrize("name", design_names())
def test_compiled_engine_matches_eventsim(name):
    """Compiled vs event-driven traces agree on every catalog design."""
    system, stim, observe = _system_and_stimulus(name)
    assert crosscheck_compiled(system.netlist, stim, observe) == -1


@pytest.mark.parametrize("name", design_names())
def test_engines_agree_under_an_injected_fault(name):
    system, stim, observe = _system_and_stimulus(name)
    fault = system.to_system_fault(controller_fault_universe(system)[0])
    assert crosscheck_compiled(system.netlist, stim, observe, fault=fault) == -1


@pytest.mark.parametrize("name", design_names())
def test_shared_compile_artifact_is_bit_identical(name):
    """A simulator reusing the compile cache traces exactly like a fresh one."""
    system, stim, observe = _system_and_stimulus(name)
    fresh = _trace(system.netlist, stim, observe, precompile=False)
    shared = _trace(system.netlist, stim, observe, precompile=True)
    assert fresh == shared


class _TwoFacedStimulus:
    """Drives one primary input *differently* into the two engines.

    ``crosscheck_compiled`` applies the stimulus to the compiled
    simulator first and the event-sim shim second each cycle; counting
    the apply calls lets this stimulus feed them opposite values of one
    PI from ``flip_cycle`` on, forcing a genuine divergence at a known
    cycle (PIs are sampled as driven -- settle never recomputes them).
    """

    def __init__(self, inner, pi_net: int, flip_cycle: int):
        self._inner = inner
        self._pi = pi_net
        self._flip_cycle = flip_cycle
        self._calls = 0
        self.n_patterns = inner.n_patterns
        self.n_cycles = inner.n_cycles

    def apply(self, sim, cycle: int) -> None:
        self._inner.apply(sim, cycle)
        second_engine = self._calls % 2 == 1
        self._calls += 1
        if cycle >= self._flip_cycle:
            sim.drive_const(self._pi, 1 if second_engine else 0)


def test_crosscheck_reports_first_divergent_cycle(facet_system):
    """A true divergence must be pinpointed to its first cycle."""
    system, stim, _ = _system_and_stimulus("facet")
    pi = system.netlist.inputs[0]
    two_faced = _TwoFacedStimulus(stim, pi, flip_cycle=2)
    assert crosscheck_compiled(system.netlist, two_faced, [pi]) == 2
