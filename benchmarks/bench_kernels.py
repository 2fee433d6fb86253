"""Micro-benchmarks of the substrate kernels (true pytest-benchmark use).

These are the inner loops the whole reproduction stands on: compiled
cycle simulation, serial fault simulation, sequential cone closure,
Quine-McCluskey minimisation, and symbolic classification.  Useful for
tracking performance regressions; no paper claims attached.
"""

import numpy as np

from repro.core.classify import Classifier
from repro.core.pipeline import controller_fault_universe
from repro.hls.system import NormalModeStimulus
from repro.logic import cones
from repro.logic.faults import enumerate_faults
from repro.logic.faultsim import fault_simulate, simulate_one_fault, run_golden
from repro.logic.simulator import CycleSimulator
from repro.synth.qm import minimize_exact


def test_kernel_cycle_simulation(benchmark, systems):
    system = systems["diffeq"]
    data = {
        k: np.arange(256) % 16 for k in system.rtl.dfg.inputs
    }
    stim = NormalModeStimulus(system, data, system.cycles_for(4))

    def run():
        sim = CycleSimulator(system.netlist, 256, count_toggles=True)
        for c in range(stim.n_cycles):
            stim.apply(sim, c)
            sim.settle()
            sim.latch()
        return sim.cycles_run

    cycles = benchmark(run)
    assert cycles == stim.n_cycles


def test_kernel_single_fault_simulation(benchmark, systems):
    system = systems["diffeq"]
    data = {k: np.arange(128) % 16 for k in system.rtl.dfg.inputs}
    stim = NormalModeStimulus(system, data, system.cycles_for(3))
    observe = [n for bus in system.output_buses.values() for n in bus]
    golden = run_golden(system.netlist, stim, observe)
    fault = system.to_system_fault(controller_fault_universe(system)[0])

    def run():
        return simulate_one_fault(system.netlist, fault, stim, observe, golden)

    verdict, _ = benchmark(run)
    assert verdict is not None


def test_kernel_fault_list_simulation(benchmark, systems):
    """Block-parallel fault batching: a whole 32-fault chunk per pass.

    Compare the per-fault cost here against
    ``test_kernel_single_fault_simulation`` -- the batched engine shares
    each cycle's numpy work across the chunk.
    """
    system = systems["diffeq"]
    data = {k: np.arange(128) % 16 for k in system.rtl.dfg.inputs}
    stim = NormalModeStimulus(system, data, system.cycles_for(3))
    observe = [n for bus in system.output_buses.values() for n in bus]
    faults = [
        system.to_system_fault(s) for s in controller_fault_universe(system)[:32]
    ]

    def run():
        return fault_simulate(system.netlist, faults, stim, observe=observe)

    result = benchmark(run)
    assert len(result.verdicts) == len(faults)


def test_kernel_cone_closure(benchmark, systems):
    """Cold sequential cones of every stem and branch fault of diffeq.

    The closure cache is cleared before each round, so every round builds
    the per-netlist reachability and decodes each seed's closure.
    """
    system = systems["diffeq"]
    faults = enumerate_faults(system.netlist)
    system.netlist.fanout_map()

    def run():
        cones._REACH_CACHE.clear()
        return cones.compute_cones(system.netlist, faults)

    result = benchmark(run)
    assert len(result) == len(faults)


def test_kernel_qm_minimisation(benchmark):
    onset = {0, 1, 2, 5, 6, 7, 8, 9, 10, 14, 17, 21, 27, 30}
    dc = {3, 11, 19, 25}

    def run():
        return minimize_exact(5, onset, dc)

    cover = benchmark(run)
    assert cover


def test_kernel_classify_one_fault(benchmark, systems):
    system = systems["diffeq"]
    clf = Classifier(system.rtl, system.controller)
    fault = controller_fault_universe(system)[3]

    def run():
        return clf.classify(fault)

    result = benchmark(run)
    assert result.category in ("CFR", "SFR", "SFI")
