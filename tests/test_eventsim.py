"""Cross-validation: event-driven vs compiled pattern-parallel simulator.

The two engines were written independently; these property tests drive
both with identical stimulus over randomly generated sequential netlists
(including injected faults) and require bit-identical value traces and
toggle counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.faults import enumerate_faults
from repro.logic.simulator import CycleSimulator
from repro.netlist.builder import NetlistBuilder

from .eventsim import EventSimulator


def _random_netlist(seed: int, n_gates: int = 14):
    """Random sequential netlist over 3 PIs with DFFs/DFFEs mixed in."""
    rng = np.random.default_rng(seed)
    b = NetlistBuilder(f"rand{seed}")
    nets = [b.input(f"i{k}") for k in range(3)]
    for _ in range(n_gates):
        kind = rng.choice(
            ["and", "or", "nand", "nor", "xor", "xnor", "not", "buf", "mux",
             "dff", "dffe", "const"]
        )
        pick = lambda: nets[int(rng.integers(len(nets)))]
        if kind == "not":
            nets.append(b.not_(pick()))
        elif kind == "buf":
            nets.append(b.buf_(pick()))
        elif kind == "mux":
            nets.append(b.mux2_(pick(), pick(), pick()))
        elif kind == "dff":
            nets.append(b.dff(pick()))
        elif kind == "dffe":
            nets.append(b.dffe(pick(), pick()))
        elif kind == "const":
            nets.append(b.const1() if rng.integers(2) else b.const0())
        else:
            op = {"and": b.and_, "or": b.or_, "nand": b.nand_,
                  "nor": b.nor_, "xor": b.xor_, "xnor": b.xnor_}[kind]
            n_in = int(rng.integers(2, 4))
            nets.append(op([pick() for _ in range(n_in)]))
    for n in nets[-3:]:
        b.output(n)
    return b.done()


def _run_both(netlist, stimulus, fault=None):
    """Run both engines; return (trace_compiled, trace_event)."""
    faults = [fault] if fault else None
    csim = CycleSimulator(netlist, 1, faults=faults, count_toggles=True)
    esim = EventSimulator(netlist, faults=faults)
    trace_c, trace_e = [], []
    inputs = list(netlist.inputs)
    for step in stimulus:
        for net, bit in zip(inputs, step):
            csim.drive_const(net, bit)
            esim.drive_const(net, bit)
        csim.settle()
        esim.settle()
        trace_c.append([int(csim.sample(n)[0]) for n in range(netlist.num_nets)])
        trace_e.append(list(esim.values))
        csim.latch()
        esim.latch()
    return (trace_c, list(csim.toggles)), (trace_e, esim.toggles)


@given(
    st.integers(0, 10_000),
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
             min_size=1, max_size=6),
)
@settings(max_examples=30, deadline=None)
def test_engines_agree_fault_free(seed, stimulus):
    nl = _random_netlist(seed)
    (tc, togc), (te, toge) = _run_both(nl, stimulus)
    assert tc == te
    assert togc == toge


@given(st.integers(0, 3_000), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_engines_agree_with_fault(seed, fault_pick)	:
    nl = _random_netlist(seed)
    sites = enumerate_faults(nl, include_pi_stems=True)
    fault = sites[fault_pick % len(sites)]
    stimulus = [(1, 0, 1), (0, 1, 1), (1, 1, 0), (0, 0, 0)]
    (tc, _), (te, _) = _run_both(nl, stimulus, fault=fault)
    assert tc == te


def test_event_sim_on_real_system(facet_system):
    """One full computation through both engines on a benchmark system."""
    nl = facet_system.netlist
    csim = CycleSimulator(nl, 1)
    esim = EventSimulator(nl)
    rng = np.random.default_rng(2)
    data = {k: int(rng.integers(16)) for k in facet_system.rtl.dfg.inputs}
    for cyc in range(facet_system.cycles_for(1)):
        for sim in (csim, esim):
            sim.drive_const(nl.net_id("reset"), 1 if cyc == 0 else 0)
            sim.drive_const(nl.net_id("start"), 1)
            for name, val in data.items():
                for i in range(4):
                    sim.drive_const(nl.net_id(f"{name}[{i}]"), (val >> i) & 1)
        csim.settle()
        esim.settle()
        for out in nl.outputs:
            assert int(csim.sample(out)[0]) == esim.sample(out)
        csim.latch()
        esim.latch()
