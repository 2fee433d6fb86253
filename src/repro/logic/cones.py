"""Sequential fault cones: where a stuck-at fault can ever matter.

A stuck-at fault can only disturb nets in the *sequential transitive
fanout* of its site -- the closure of "gates reading a disturbed net
produce a disturbed output", iterated to a fixed point straight through
flip-flops (a disturbed D pin disturbs the Q output one cycle later, so
multi-cycle reachability is the same closure on the static graph).
Everything outside that cone is provably identical to the fault-free
machine in every cycle of every pattern.

The cone-restricted engine in :mod:`repro.logic.faultsim` exploits this
three ways:

* faults whose cone misses every observed net are reported UNDETECTED
  without simulating a single cycle (no disturbance can reach an output);
* a chunk of faults simulates only the union of its cones, reading every
  non-cone net from the recorded fault-free trace;
* faults are chunked by cone signature (:func:`chunk_by_cone`), so the
  faults batched into one wide simulator share most of their union cone.

Cones are derived from the :class:`~repro.netlist.netlist.Netlist` alone
-- no simulation -- and are exact for the closure property, conservative
for detectability (a net in the cone *may* diverge, a net outside it
*cannot*).  ``tests/test_cones.py`` checks both directions: the closure
equals brute-force multi-cycle reachability on randomized netlists, and
every net that actually diverges in a faulted simulation lies inside the
computed cone.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..netlist.netlist import Netlist
from .faults import FaultSite
from .levelize import gate_levels


@dataclass(frozen=True)
class FaultCone:
    """Sequential transitive fanout of one fault site.

    ``gates`` are the gate indices whose evaluation the fault can ever
    influence (combinational and sequential); ``nets`` are the net ids
    that can ever differ from the fault-free machine -- the fault's own
    net plus every output of a cone gate.
    """

    gates: frozenset[int]
    nets: frozenset[int]

    def observable(self, observe: list[int]) -> bool:
        """Can the fault ever reach one of the observed nets?"""
        return not self.nets.isdisjoint(observe)


class _Reach:
    """Every net's sequential closure of one netlist, as bitsets.

    Bit ``b`` of ``net_bits[a]`` is set when a disturbance on net ``a``
    can ever (through any number of gates and clock edges) disturb net
    ``b`` -- the reflexive-transitive closure of the one-step relation
    "some gate reads ``a`` and outputs ``b``" -- and bit ``g`` of
    ``gate_bits[a]`` when gate ``g`` reads a net of that closure.  The
    closure crosses flip-flops like any other gate: a disturbed D or
    enable pin disturbs the Q net one clock edge later, which is one more
    step of the same static relation.

    One pass of Tarjan's algorithm builds both: it completes each
    strongly connected component after every component it reaches, so a
    component's closure is its members OR'd with its successors'
    already-final closures -- one big-integer OR per edge.
    """

    def __init__(self, netlist: Netlist):
        self.stamp = (len(netlist.gates), netlist.num_nets)
        n = netlist.num_nets
        fanout = netlist.fanout_map()
        succ = [[netlist.gates[g].output for g, _pin in fanout[v]] for v in range(n)]
        reads = [0] * n
        for v in range(n):
            for g, _pin in fanout[v]:
                reads[v] |= 1 << g
        net_bits = [0] * n
        gate_bits = [0] * n
        index = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack: list[int] = []
        counter = 0
        for root in range(n):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            work = [(root, iter(succ[root]))]
            while work:
                v, pending = work[-1]
                for w in pending:
                    if index[w] < 0:
                        index[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack[w] = True
                        work.append((w, iter(succ[w])))
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], index[w])
                else:
                    work.pop()
                    if work:
                        u = work[-1][0]
                        low[u] = min(low[u], low[v])
                    if low[v] != index[v]:
                        continue
                    members = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        members.append(w)
                        if w == v:
                            break
                    nets = gates = 0
                    for w in members:
                        nets |= 1 << w
                        gates |= reads[w]
                        for x in succ[w]:  # members' own entries are still 0
                            nets |= net_bits[x]
                            gates |= gate_bits[x]
                    for w in members:
                        net_bits[w] = nets
                        gate_bits[w] = gates
        self.net_bits = net_bits
        self.gate_bits = gate_bits
        self._memo: dict[int, tuple[frozenset[int], frozenset[int]]] = {}

    def closure(self, seed: int) -> tuple[frozenset[int], frozenset[int]]:
        """``(gates, nets)`` of one seed net, decoded once and memoized."""
        got = self._memo.get(seed)
        if got is None:
            got = self._memo[seed] = (
                _members(self.gate_bits[seed]),
                _members(self.net_bits[seed]),
            )
        return got


def _members(bits: int) -> frozenset[int]:
    """The set bit positions of a non-negative integer."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), np.uint8)
    return frozenset(np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist())


#: per-netlist closure cache, keyed like the compile cache: object
#: identity plus a cheap mutation stamp (entries drop with the netlist).
#: Each entry memoizes its decoded per-seed closure sets, shared by every
#: campaign on the same netlist.
_REACH_CACHE: dict[int, _Reach] = {}


def _reach(netlist: Netlist) -> _Reach:
    key = id(netlist)
    cached = _REACH_CACHE.get(key)
    if cached is not None and cached.stamp == (len(netlist.gates), netlist.num_nets):
        return cached
    if key not in _REACH_CACHE:
        weakref.finalize(netlist, _REACH_CACHE.pop, key, None)
    reach = _REACH_CACHE[key] = _Reach(netlist)
    return reach


def net_closure(
    netlist: Netlist, seeds: list[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """Sequential transitive fanout of a set of nets.

    Returns ``(gates, nets)``: every gate whose evaluation a disturbance
    on any seed net can ever influence, and every net that can ever
    differ -- the same closure :func:`compute_cones` builds per fault,
    exposed for callers that reason about *edits* rather than faults
    (the incremental planner treats a netlist delta as a disturbance
    source and reuses this cache).
    """
    reach = _reach(netlist)
    gates: frozenset[int] = frozenset()
    nets: frozenset[int] = frozenset()
    for seed in seeds:
        seed_gates, seed_nets = reach.closure(seed)
        gates |= seed_gates
        nets |= seed_nets
    return gates, nets


def compute_cones(
    netlist: Netlist, faults: list[FaultSite]
) -> dict[FaultSite, FaultCone]:
    """The :class:`FaultCone` of every fault, sharing closure work.

    Stem faults (and primary-input stems) seed the closure at the forced
    net.  A branch fault only corrupts one gate's *view* of its input
    pin, so its cone is that gate plus the closure of the gate's output.
    A seed's driver is *not* pulled in (a stem force overrides whatever
    the driver computes) unless a sequential loop re-reaches it.
    Closures come from one per-netlist bitset pass and are memoized per
    seed net -- the two polarities of a fault pair, and every branch
    fault on the same gate, share one entry.  The memo lives in the
    netlist's closure cache entry, so repeated campaigns on one netlist
    (workers, benchmarks, reruns) never re-derive a closure set.
    """
    closure = _reach(netlist).closure
    cones: dict[FaultSite, FaultCone] = {}
    shared: dict[tuple[bool, int], FaultCone] = {}
    for fault in faults:
        if fault in cones:
            continue
        if fault.is_stem:
            site = (True, fault.net)
        else:
            assert fault.gate_index is not None
            site = (False, fault.gate_index)
        cone = shared.get(site)
        if cone is None:
            if fault.is_stem:
                gates, nets = closure(fault.net)
                cone = FaultCone(gates=gates, nets=nets)
            else:
                out = netlist.gates[fault.gate_index].output
                gates, nets = closure(out)
                cone = FaultCone(
                    gates=gates | {fault.gate_index}, nets=nets | {out}
                )
            shared[site] = cone
        cones[fault] = cone
    return cones


def chunk_by_cone(
    faults: list[FaultSite],
    cones: dict[FaultSite, FaultCone],
    batch_faults: int,
    netlist: Netlist,
    key,
) -> list[list[FaultSite]]:
    """Chunk ``faults`` so each chunk shares most of its union cone.

    Faults are ordered by (cone size, cone signature, site depth, fault
    key) -- identical or nested cones sort adjacently regardless of where
    their sites sit, keeping each chunk's union cone close to its
    members' own cones (ordering by site depth first was measurably
    worse: faults at one depth can fan out to disjoint halves of the
    machine) -- then sliced into ``batch_faults``-sized chunks.  The
    ordering is a pure scheduling choice: per-fault verdicts are
    independent of chunk composition, so results are bit-identical to any
    other chunking (``tests/test_cones.py`` asserts this).

    ``key`` maps a fault to its stable campaign key (the deterministic
    tiebreak); ``netlist`` supplies gate depths via
    :func:`~repro.logic.levelize.gate_levels`.
    """
    depth = gate_levels(netlist)
    signatures: dict[int, tuple[int, ...]] = {}

    def order(fault: FaultSite):
        cone = cones[fault]
        sig = signatures.get(id(cone.gates))
        if sig is None:
            sig = signatures[id(cone.gates)] = tuple(sorted(cone.gates))
        site_depth = 0 if fault.gate_index is None else depth[fault.gate_index]
        return (len(sig), sig, site_depth, key(fault))

    ordered = sorted(faults, key=order)
    size = max(1, batch_faults)
    return [ordered[i : i + size] for i in range(0, len(ordered), size)]
