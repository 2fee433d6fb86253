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


#: per-netlist reachability cache, keyed like the compile cache: object
#: identity plus a cheap mutation stamp (entries drop with the netlist).
#: Each entry carries the reach/input matrices plus a memo of per-seed
#: closure sets, shared by every campaign on the same netlist.
_REACH_CACHE: dict[
    int, tuple[tuple[int, int], "np.ndarray", "np.ndarray", dict]
] = {}


def _reach_matrix(
    netlist: Netlist, fanout: dict[int, list[tuple[int, int]]]
) -> tuple["np.ndarray", "np.ndarray", dict]:
    """All-pairs sequential reachability, vectorized.

    Returns ``(reach, in_mat)``: ``reach[a, b]`` is True when a
    disturbance on net ``a`` can ever (through any number of gates and
    clock edges) disturb net ``b`` -- the reflexive-transitive closure of
    the one-step relation "some gate reads ``a`` and outputs ``b``" --
    and ``in_mat[a, g]`` marks gate ``g`` reading net ``a``.  The closure
    crosses flip-flops like any other gate: a disturbed D or enable pin
    disturbs the Q net one clock edge later, which is one more step of
    the same static relation.  Repeated squaring doubles the covered path
    length per matrix product, so the fixpoint lands in O(log diameter)
    products instead of one python BFS per seed.
    """
    key = id(netlist)
    stamp = (len(netlist.gates), netlist.num_nets)
    cached = _REACH_CACHE.get(key)
    if cached is not None and cached[0] == stamp:
        return cached[1], cached[2], cached[3]
    n = netlist.num_nets
    step = np.zeros((n, n), dtype=bool)
    in_mat = np.zeros((n, len(netlist.gates)), dtype=bool)
    for net in range(n):
        for gate_idx, _pin in fanout[net]:
            step[net, netlist.gates[gate_idx].output] = True
            in_mat[net, gate_idx] = True
    reach = step.copy()
    np.fill_diagonal(reach, True)
    while True:
        sq = reach.astype(np.float32)
        grown = (sq @ sq) > 0
        if np.array_equal(grown, reach):
            break
        reach = grown
    if key not in _REACH_CACHE:
        weakref.finalize(netlist, _REACH_CACHE.pop, key, None)
    closures: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
    _REACH_CACHE[key] = (stamp, reach, in_mat, closures)
    return reach, in_mat, closures


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
    fanout = netlist.fanout_map()
    reach, in_mat, closures = _reach_matrix(netlist, fanout)
    gates: frozenset[int] = frozenset()
    nets: frozenset[int] = frozenset()
    for seed in seeds:
        got = closures.get(seed)
        if got is None:
            row = reach[seed]
            seed_nets = frozenset(np.flatnonzero(row).tolist())
            seed_gates = frozenset(
                np.flatnonzero(row.astype(np.float32) @ in_mat).tolist()
            )
            got = closures[seed] = (seed_gates, seed_nets)
        gates |= got[0]
        nets |= got[1]
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
    Closures come from one shared all-pairs reachability matrix and are
    memoized per seed net -- the two polarities of a fault pair, and
    every branch fault on the same gate, share one row.  The memo lives
    in the netlist's reachability cache entry, so repeated campaigns on
    one netlist (workers, benchmarks, reruns) never re-derive a
    closure set.
    """
    fanout = netlist.fanout_map()
    reach, in_mat, closures = _reach_matrix(netlist, fanout)

    def closure(seed: int) -> tuple[frozenset[int], frozenset[int]]:
        got = closures.get(seed)
        if got is None:
            row = reach[seed]
            nets = frozenset(np.flatnonzero(row).tolist())
            gates = frozenset(
                np.flatnonzero(row.astype(np.float32) @ in_mat).tolist()
            )
            got = closures[seed] = (gates, nets)
        return got

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
