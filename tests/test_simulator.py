"""Unit + property tests for the pattern-parallel cycle simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import values as V
from repro.logic.faults import FaultSite, enumerate_faults
from repro.logic.simulator import CycleSimulator, compile_netlist
from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import GateType, eval_gate_ints

from .eventsim import EventSimulator


def _comb_netlist():
    """y = (a & b) ^ ~c ; z = mux(a, b, c)."""
    b = NetlistBuilder()
    a, c, d = b.input("a"), b.input("b"), b.input("c")
    y = b.xor_([b.and_([a, c]), b.not_(d)], output=b.net("y"))
    z = b.mux2_(a, c, d, output=b.net("z"))
    b.output(y)
    b.output(z)
    return b.done(), (a, c, d), (y, z)


class TestCombinational:
    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
            min_size=1,
            max_size=130,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_reference(self, rows):
        nl, (a, c, d), (y, z) = _comb_netlist()
        sim = CycleSimulator(nl, len(rows))
        sim.drive(a, [r[0] for r in rows])
        sim.drive(c, [r[1] for r in rows])
        sim.drive(d, [r[2] for r in rows])
        sim.settle()
        got_y = sim.sample(y)
        got_z = sim.sample(z)
        for p, (va, vb, vc) in enumerate(rows):
            ref_y = (va & vb) ^ (1 - vc)
            ref_z = vc if va else vb
            assert got_y[p] == ref_y
            assert got_z[p] == ref_z

    def test_unknown_inputs_propagate_x(self):
        nl, (a, c, d), (y, z) = _comb_netlist()
        sim = CycleSimulator(nl, 4)
        sim.drive_const(a, 1)  # b, c left undriven -> X
        sim.settle()
        assert (sim.sample(y) == -1).all()

    def test_and_with_controlling_zero_kills_x(self):
        b = NetlistBuilder()
        a, c = b.input("a"), b.input("c")
        y = b.and_([a, c])
        b.output(y)
        nl = b.done()
        sim = CycleSimulator(nl, 2)
        sim.drive_const(a, 0)  # c is X
        sim.settle()
        assert (sim.sample(y) == 0).all()


class TestSequential:
    def _counter(self):
        """2-bit counter built from XOR/AND + DFFs, reset via input."""
        b = NetlistBuilder()
        rst = b.input("rst")
        q0, q1 = b.net("q0"), b.net("q1")
        nrst = b.not_(rst)
        d0 = b.and_([b.not_(q0), nrst])
        d1 = b.and_([b.xor_([q0, q1]), nrst])
        b.dff(d0, output=q0)
        b.dff(d1, output=q1)
        b.output(q0)
        b.output(q1)
        return b.done(), rst, (q0, q1)

    def test_counter_counts(self):
        nl, rst, (q0, q1) = self._counter()
        sim = CycleSimulator(nl, 1)
        seq = []
        for cyc in range(6):
            sim.drive_const(rst, 1 if cyc == 0 else 0)
            sim.settle()
            sim.latch()
            seq.append((int(sim.sample(q0)[0]), int(sim.sample(q1)[0])))
        # after reset: 00 -> 10 -> 01 -> 11 -> 00 ...
        assert seq[:5] == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)]

    def test_flipflops_power_up_x(self):
        nl, rst, (q0, q1) = self._counter()
        sim = CycleSimulator(nl, 3)
        assert (sim.sample(q0) == -1).all()

    def test_dffe_holds_when_disabled(self):
        b = NetlistBuilder()
        en, d = b.input("en"), b.input("d")
        q = b.dffe(en, d, output=b.net("q"))
        b.output(q)
        nl = b.done()
        sim = CycleSimulator(nl, 1)
        sim.drive_const(en, 1)
        sim.drive_const(d, 1)
        sim.settle(); sim.latch()
        assert sim.sample(q)[0] == 1
        sim.drive_const(en, 0)
        sim.drive_const(d, 0)
        sim.settle(); sim.latch()
        assert sim.sample(q)[0] == 1  # held

    def test_dffe_x_enable_keeps_equal_value(self):
        b = NetlistBuilder()
        en, d = b.input("en"), b.input("d")
        q = b.dffe(en, d, output=b.net("q"))
        b.output(q)
        nl = b.done()
        sim = CycleSimulator(nl, 1)
        sim.drive_const(en, 1)
        sim.drive_const(d, 1)
        sim.settle(); sim.latch()
        # en X, d == q -> q stays 1; then d != q -> q becomes X
        sim.drive_words(en, np.zeros(1, np.uint64), np.zeros(1, np.uint64))
        sim.settle(); sim.latch()
        assert sim.sample(q)[0] == 1
        sim.drive_const(d, 0)
        sim.settle(); sim.latch()
        assert sim.sample(q)[0] == -1


class TestToggleCounting:
    def test_exact_toggles(self):
        b = NetlistBuilder()
        a = b.input("a")
        y = b.not_(a, output=b.net("y"))
        b.output(y)
        nl = b.done()
        sim = CycleSimulator(nl, 1, count_toggles=True)
        for bit in [0, 1, 1, 0, 1]:
            sim.drive_const(a, bit)
            sim.settle()
            sim.latch()
        # a toggles 0->1,1->0,0->1 = 3; y the same count.
        assert sim.toggles[a] == 3
        assert sim.toggles[y] == 3

    def test_x_transitions_not_counted(self):
        b = NetlistBuilder()
        a = b.input("a")
        y = b.buf_(a, output=b.net("y"))
        b.output(y)
        nl = b.done()
        sim = CycleSimulator(nl, 1, count_toggles=True)
        sim.settle(); sim.latch()  # X
        sim.drive_const(a, 1)
        sim.settle(); sim.latch()  # X -> 1 : not a toggle
        assert sim.toggles[y] == 0

    def test_load_events_counted_per_dffe(self):
        b = NetlistBuilder()
        en, d = b.input("en"), b.input("d")
        b.output(b.dffe(en, d, output=b.net("q")))
        nl = b.done()
        sim = CycleSimulator(nl, 2, count_toggles=True)
        sim.drive(en, [1, 0])
        sim.drive_const(d, 1)
        for _ in range(3):
            sim.settle()
            sim.latch()
        assert sim.load_events[0] == 3  # one enabled pattern x 3 cycles


class TestBlockToggleCounting:
    """Per-block counters of one wide fault-parallel run vs standalone sims."""

    def _dffe_netlist(self):
        """en/d -> DFFE -> inverter, so both counter kinds are exercised."""
        b = NetlistBuilder()
        en, d = b.input("en"), b.input("d")
        q = b.dffe(en, d, output=b.net("q"))
        y = b.not_(q, output=b.net("y"))
        b.output(y)
        return b.done(), en, d, q

    def test_block_counters_match_standalone_sims(self):
        nl, en, d, q = self._dffe_netlist()
        g = nl.driver_of(q)
        faults = [FaultSite(g.index, -1, q, 1), FaultSite(g.index, -1, q, 0)]
        rng = np.random.default_rng(7)
        en_bits = [rng.integers(0, 2, 64) for _ in faults]
        d_bits = [rng.integers(0, 2, 64) for _ in faults]

        wide = CycleSimulator(
            nl,
            128,
            faults=faults,
            fault_blocks=[(0, 1), (1, 2)],
            count_toggles=True,
            toggle_blocks=2,
        )
        wide.drive(en, np.concatenate(en_bits))
        wide.drive(d, np.concatenate(d_bits))
        for _ in range(4):
            wide.settle()
            wide.latch()

        for blk, fault in enumerate(faults):
            solo = CycleSimulator(nl, 64, faults=[fault], count_toggles=True)
            solo.drive(en, en_bits[blk])
            solo.drive(d, d_bits[blk])
            for _ in range(4):
                solo.settle()
                solo.latch()
            assert np.array_equal(wide.toggles[blk], solo.toggles)
            assert np.array_equal(wide.load_events[blk], solo.load_events)

    def test_toggle_blocks_must_divide_words(self):
        nl, en, d, q = self._dffe_netlist()
        with pytest.raises(ValueError, match="toggle_blocks"):
            CycleSimulator(nl, 64, count_toggles=True, toggle_blocks=2)


class TestFaultInjection:
    def test_stem_fault_forces_net(self):
        nl, (a, c, d), (y, z) = _comb_netlist()
        g = nl.driver_of(y)
        sim = CycleSimulator(nl, 4, faults=[FaultSite(g.index, -1, y, 1)])
        sim.drive(a, [0, 0, 1, 1])
        sim.drive(c, [0, 1, 0, 1])
        sim.drive(d, [1, 1, 1, 1])
        sim.settle()
        assert (sim.sample(y) == 1).all()

    def test_branch_fault_affects_single_reader(self):
        b = NetlistBuilder()
        a = b.input("a")
        y1 = b.buf_(a, output=b.net("y1"))
        y2 = b.buf_(a, output=b.net("y2"))
        b.output(y1)
        b.output(y2)
        nl = b.done()
        g1 = nl.driver_of(y1)
        sim = CycleSimulator(nl, 2, faults=[FaultSite(g1.index, 0, a, 1)])
        sim.drive(a, [0, 0])
        sim.settle()
        assert (sim.sample(y1) == 1).all()  # poisoned
        assert (sim.sample(y2) == 0).all()  # untouched

    def test_stem_fault_on_pi(self):
        nl, (a, c, d), (y, z) = _comb_netlist()
        sim = CycleSimulator(nl, 2, faults=[FaultSite(None, -1, a, 0)])
        sim.drive(a, [1, 1])
        sim.drive(c, [1, 1])
        sim.drive(d, [0, 1])
        sim.settle()
        # a forced 0 -> z = mux(0, b, c) = b = 1
        assert (sim.sample(z) == 1).all()

    def test_fault_on_dff_output(self):
        b = NetlistBuilder()
        d = b.input("d")
        q = b.dff(d, output=b.net("q"))
        b.output(q)
        nl = b.done()
        g = nl.driver_of(q)
        sim = CycleSimulator(nl, 1, faults=[FaultSite(g.index, -1, q, 0)])
        sim.drive_const(d, 1)
        sim.settle(); sim.latch()
        sim.settle()
        assert sim.sample(q)[0] == 0


class TestBusHelpers:
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=70))
    @settings(max_examples=20, deadline=None)
    def test_drive_sample_bus_roundtrip(self, vals):
        b = NetlistBuilder()
        bus_in = b.input_bus("v", 4)
        bus_out = [b.buf_(n) for n in bus_in]
        for n in bus_out:
            b.output(n)
        nl = b.done()
        sim = CycleSimulator(nl, len(vals))
        sim.drive_bus(bus_in, vals)
        sim.settle()
        assert list(sim.sample_bus(bus_out)) == vals

    def test_sample_bus_x_is_minus_one(self):
        b = NetlistBuilder()
        bus = b.input_bus("v", 4)
        outs = [b.buf_(n) for n in bus]
        for n in outs:
            b.output(n)
        nl = b.done()
        sim = CycleSimulator(nl, 1)
        sim.settle()
        assert sim.sample_bus(outs)[0] == -1


def _mixed_level_netlist():
    """Every comb gate type on each of two levels, ragged fan-ins, plus a
    DFF and a DFFE fed back into the first level."""
    b = NetlistBuilder("mixed")
    a, c, d, e = (b.input(n) for n in "acde")
    q0, q1 = b.net("q0"), b.net("q1")
    l1 = [
        b.and_([a, c]),
        b.nand_([a, c, q0]),
        b.or_([a, c, d, e]),
        b.nor_([d, q1]),
        b.not_(a),
        b.buf_(q1),
        b.xor_([a, d]),
        b.xnor_([c, d, e]),
        b.mux2_(q0, a, e),
    ]
    l2 = [
        b.and_([l1[0], l1[2], l1[5], l1[8]]),
        b.or_([l1[4], l1[6]]),
        b.nor_([l1[1], l1[3], l1[7]]),
        b.nand_([l1[0], l1[4]]),
        b.xor_([l1[1], l1[2], l1[3]]),
        b.xnor_([l1[5], l1[6]]),
        b.mux2_(l1[7], l1[8], l1[0]),
        b.not_(l1[2]),
        b.buf_(l1[6]),
    ]
    b.dff(l2[2], output=q0)
    b.dffe(l2[6], l2[4], output=q1)
    for n in l2:
        b.output(n)
    return b.done()


class TestMixedGroups:
    """The fold/parity/MUX2 groups against the event-driven reference."""

    def test_level_holds_at_most_one_group_per_kind(self):
        compiled = compile_netlist(_mixed_level_netlist())
        assert len(compiled.levels) == 2
        for level in compiled.levels:
            kinds = [g.kind for g in level]
            assert sorted(kinds) == ["fold", "mux2", "parity"]
        assert sorted(g.kind for g in compiled.seq_groups) == ["dff", "dffe"]

    def test_every_fault_matches_event_simulator_with_x_inputs(self):
        nl = _mixed_level_netlist()
        faults = enumerate_faults(nl, include_pi_stems=True)
        n_pins = sum(len(g.inputs) for g in nl.gates)
        assert len(faults) == 2 * (len(nl.gates) + len(nl.inputs) + n_pins)
        rng = np.random.default_rng(5)
        n_patterns, n_cycles = 24, 4
        # per (cycle, input, pattern): 0, 1 or X (-1, the event engine's X)
        stim = rng.integers(-1, 2, size=(n_cycles, len(nl.inputs), n_patterns))
        for fault in faults:
            sim = CycleSimulator(nl, n_patterns, faults=[fault])
            got = []
            for cycle in range(n_cycles):
                for k, net in enumerate(nl.inputs):
                    vals = stim[cycle, k]
                    one = np.array(vals == 1, dtype=np.uint8)
                    zero = np.array(vals == 0, dtype=np.uint8)
                    sim.drive_words(net, V.pack_bits(zero), V.pack_bits(one))
                sim.settle()
                got.append([sim.sample(n) for n in range(nl.num_nets)])
                sim.latch()
            for p in range(n_patterns):
                ref = EventSimulator(nl, faults=[fault])
                for cycle in range(n_cycles):
                    for k, net in enumerate(nl.inputs):
                        ref.drive_const(net, int(stim[cycle, k, p]))
                    ref.settle()
                    want = [ref.sample(n) for n in range(nl.num_nets)]
                    have = [int(got[cycle][n][p]) for n in range(nl.num_nets)]
                    assert have == want, (fault, cycle, p)
                    ref.latch()
