"""Unit + property tests for fault enumeration and equivalence collapsing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.faults import FaultSite, collapse_faults, enumerate_faults
from repro.logic.simulator import CycleSimulator
from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import GateType


def _and_netlist():
    b = NetlistBuilder()
    a, c = b.input("a"), b.input("c")
    y = b.and_([a, c], output=b.net("y"))
    b.output(y)
    return b.done()


class TestEnumeration:
    def test_counts_for_single_and(self):
        nl = _and_netlist()
        sites = enumerate_faults(nl)
        # output 2 + two inputs x 2 = 6
        assert len(sites) == 6

    def test_pi_stems_optional(self):
        nl = _and_netlist()
        with_pi = enumerate_faults(nl, include_pi_stems=True)
        assert len(with_pi) == 6 + 4

    def test_const_gate_only_opposite_polarity(self):
        b = NetlistBuilder()
        c = b.const0()
        y = b.buf_(c)
        b.output(y)
        nl = b.done()
        sites = enumerate_faults(nl)
        const_faults = [s for s in sites if s.net == c]
        # CONST0 stem s-a-1 only; the BUF pin tied to 0 only gets s-a-1.
        assert all(s.value == 1 for s in const_faults)

    def test_tied_pin_matching_polarity_skipped(self):
        b = NetlistBuilder()
        c = b.const1()
        a = b.input("a")
        y = b.and_([a, c])
        b.output(y)
        nl = b.done()
        sites = enumerate_faults(nl)
        tied_branch = [s for s in sites if not s.is_stem and s.net == c]
        assert all(s.value == 0 for s in tied_branch)

    def test_describe_is_readable(self):
        nl = _and_netlist()
        sites = enumerate_faults(nl)
        text = sites[0].describe(nl)
        assert "s-a-" in text


class TestCollapsing:
    def test_and_sa0_class(self):
        nl = _and_netlist()
        sites = enumerate_faults(nl)
        reps, mapping = collapse_faults(nl, sites)
        g = nl.gates[0]
        stem0 = FaultSite(g.index, -1, g.output, 0)
        in0 = FaultSite(g.index, 0, g.inputs[0], 0)
        in1 = FaultSite(g.index, 1, g.inputs[1], 0)
        assert mapping[stem0] == mapping[in0] == mapping[in1]
        # s-a-1 faults all distinct: 3 classes + 1 merged sa0 class = 4
        assert len(reps) == 4

    def test_not_gate_inversion(self):
        b = NetlistBuilder()
        a = b.input("a")
        y = b.not_(a, output=b.net("y"))
        b.output(y)
        nl = b.done()
        sites = enumerate_faults(nl)
        reps, mapping = collapse_faults(nl, sites)
        g = nl.gates[0]
        assert mapping[FaultSite(g.index, 0, a, 0)] == mapping[FaultSite(g.index, -1, y, 1)]
        assert len(reps) == 2

    def test_fanout_free_stem_merges_with_branch(self):
        b = NetlistBuilder()
        a = b.input("a")
        n = b.buf_(a)
        y = b.not_(n, output=b.net("y"))
        b.output(y)
        nl = b.done()
        sites = enumerate_faults(nl)
        reps, mapping = collapse_faults(nl, sites)
        buf = nl.gates[0]
        inv = nl.gates[1]
        assert mapping[FaultSite(buf.index, -1, n, 0)] == mapping[FaultSite(inv.index, 0, n, 0)]

    def test_stem_with_fanout_not_merged(self):
        b = NetlistBuilder()
        a = b.input("a")
        n = b.buf_(a)
        y1 = b.not_(n)
        y2 = b.not_(n)
        b.output(y1)
        b.output(y2)
        nl = b.done()
        sites = enumerate_faults(nl)
        _, mapping = collapse_faults(nl, sites)
        buf = nl.gates[0]
        inv1 = nl.gates[1]
        stem = FaultSite(buf.index, -1, n, 0)
        branch = FaultSite(inv1.index, 0, n, 0)
        assert mapping[stem] != mapping[branch]

    def test_deterministic_representatives(self):
        nl = _and_netlist()
        sites = enumerate_faults(nl)
        reps1, _ = collapse_faults(nl, sites)
        reps2, _ = collapse_faults(nl, sites)
        assert reps1 == reps2


def _random_netlist(seed: int):
    """Small random combinational netlist for the soundness property."""
    rng = np.random.default_rng(seed)
    b = NetlistBuilder()
    nets = [b.input(f"i{k}") for k in range(3)]
    for k in range(6):
        t = rng.choice(["and", "or", "xor", "not", "mux"])
        if t == "not":
            nets.append(b.not_(nets[int(rng.integers(len(nets)))]))
        elif t == "mux":
            s, a, c = (nets[int(rng.integers(len(nets)))] for _ in range(3))
            nets.append(b.mux2_(s, a, c))
        else:
            x, y = (nets[int(rng.integers(len(nets)))] for _ in range(2))
            op = {"and": b.and_, "or": b.or_, "xor": b.xor_}[t]
            nets.append(op([x, y]))
    b.output(nets[-1])
    b.output(nets[-2])
    return b.done()


@given(st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_collapsing_soundness(seed):
    """Faults merged into one class must be indistinguishable at the
    outputs for every input combination (exhaustive over 3 inputs)."""
    nl = _random_netlist(seed)
    sites = enumerate_faults(nl)
    _, mapping = collapse_faults(nl, sites)
    inputs = [nl.net_id(f"i{k}") for k in range(3)]
    patterns = [[(p >> k) & 1 for p in range(8)] for k in range(3)]

    def response(fault):
        sim = CycleSimulator(nl, 8, faults=[fault])
        for k, net in enumerate(inputs):
            sim.drive(net, patterns[k])
        sim.settle()
        return tuple(tuple(sim.sample(o)) for o in nl.outputs)

    by_class: dict = {}
    for s in sites:
        by_class.setdefault(mapping[s], []).append(s)
    for rep, members in by_class.items():
        if len(members) == 1:
            continue
        ref = response(members[0])
        for m in members[1:]:
            assert response(m) == ref, f"{members[0]} vs {m} not equivalent"


# ------------------------------------------------ reference collapse oracle
class _ReferenceUnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


_REFERENCE_CONTROLLING = {
    GateType.AND: (0, 0),
    GateType.NAND: (0, 1),
    GateType.OR: (1, 1),
    GateType.NOR: (1, 0),
}


def _reference_collapse(netlist, sites):
    """The dict-of-``FaultSite`` union-find ``collapse_faults`` used before
    it moved to integer site positions, kept verbatim as the oracle."""
    present = set(sites)
    uf = _ReferenceUnionFind()
    gate_set = {s.gate_index for s in sites if s.gate_index is not None}
    fanout = netlist.fanout_map()

    for gi in gate_set:
        g = netlist.gates[gi]
        if g.gtype in _REFERENCE_CONTROLLING:
            cv, ov = _REFERENCE_CONTROLLING[g.gtype]
            stem = FaultSite(gi, -1, g.output, ov)
            for pin, net in enumerate(g.inputs):
                branch = FaultSite(gi, pin, net, cv)
                if stem in present and branch in present:
                    uf.union(stem, branch)
        elif g.gtype in (GateType.NOT, GateType.BUF):
            invert = g.gtype is GateType.NOT
            for v in (0, 1):
                branch = FaultSite(gi, 0, g.inputs[0], v)
                stem = FaultSite(gi, -1, g.output, (1 - v) if invert else v)
                if stem in present and branch in present:
                    uf.union(branch, stem)

    observed = set(netlist.outputs)
    for s in sites:
        if not s.is_stem or s.net in observed:
            continue
        readers = fanout[s.net]
        if len(readers) == 1:
            g_idx, pin = readers[0]
            branch = FaultSite(g_idx, pin, s.net, s.value)
            if branch in present:
                uf.union(s, branch)

    first_of_class: dict = {}
    mapping: dict[FaultSite, FaultSite] = {}
    for s in sites:
        root = uf.find(s)
        rep = first_of_class.setdefault(root, s)
        mapping[s] = rep
    reps = [s for s in sites if mapping[s] is s]
    return reps, mapping


def _assert_same_collapse(netlist, sites):
    reps, mapping = collapse_faults(netlist, sites)
    ref_reps, ref_mapping = _reference_collapse(netlist, sites)
    assert len(reps) == len(ref_reps)
    assert all(a is b for a, b in zip(reps, ref_reps))
    assert len(mapping) == len(ref_mapping)
    for (site, rep), (ref_site, ref_rep) in zip(mapping.items(), ref_mapping.items()):
        assert site is ref_site and rep is ref_rep
    return reps


@pytest.fixture(scope="module", params=["facet", "poly", "diffeq", "biquad", "ewf"])
def catalog_system(request):
    from repro.designs.catalog import build_rtl
    from repro.hls.system import build_system

    return build_system(build_rtl(request.param))


class TestCollapseMatchesReference:
    """The integer union-find picks the same representatives, in the same
    order and as the same objects, and the same mapping, as the
    ``FaultSite``-keyed version it replaced."""

    @pytest.mark.parametrize("which", ["controller", "system"])
    def test_catalog_netlists(self, catalog_system, which):
        netlist = (
            catalog_system.controller.netlist
            if which == "controller"
            else catalog_system.netlist
        )
        sites = enumerate_faults(netlist, include_pi_stems=True)
        reps = _assert_same_collapse(netlist, sites)
        assert len(reps) < len(sites)

    def test_shuffled_sites(self, catalog_system):
        netlist = catalog_system.controller.netlist
        sites = enumerate_faults(netlist)
        rng = np.random.default_rng(5)
        shuffled = [sites[i] for i in rng.permutation(len(sites))]
        reps = _assert_same_collapse(netlist, shuffled)
        # the first site of each class in the shuffled order represents it
        assert reps != collapse_faults(netlist, sites)[0]

    def test_duplicate_sites(self, catalog_system):
        netlist = catalog_system.controller.netlist
        sites = enumerate_faults(netlist)
        rng = np.random.default_rng(9)
        picks = rng.choice(len(sites), size=len(sites) // 3, replace=False)
        # equal copies (distinct objects) and the very same objects again
        copies = [FaultSite(s.gate_index, s.pin, s.net, s.value) for s in sites]
        extra = [copies[i] for i in picks] + [sites[i] for i in picks[::2]]
        mixed = sites + extra
        order = rng.permutation(len(mixed))
        _assert_same_collapse(netlist, [mixed[i] for i in order])
        _assert_same_collapse(netlist, mixed)
