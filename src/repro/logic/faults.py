"""Single stuck-at fault model with structural equivalence collapsing.

Fault sites follow the classic convention: every gate contributes a *stem*
fault pair on its output net and a *branch* fault pair on each input pin.
Primary inputs contribute stem pairs.  Collapsing merges faults that are
provably equivalent from structure alone:

* AND:  any input s-a-0  ==  output s-a-0      (NAND: output s-a-1)
* OR:   any input s-a-1  ==  output s-a-1      (NOR:  output s-a-0)
* NOT:  input s-a-v  ==  output s-a-(1-v);  BUF: input s-a-v == output s-a-v
* a fanout-free stem is equivalent to its single branch.

The collapsed universe is what Table 2 of the paper counts ("total faults"
within the controller).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netlist.gates import GateType, is_constant
from ..netlist.netlist import Gate, Netlist


@dataclass(frozen=True)
class FaultSite:
    """One stuck-at fault.

    ``gate_index`` is None for a primary-input stem.  ``pin`` is -1 for a
    stem (output) fault, otherwise the input pin index.  ``net`` is the net
    the fault lives on (the gate output for stems, the pin's net for
    branches -- branches only affect the one reading gate).
    """

    gate_index: int | None
    pin: int
    net: int
    value: int

    @property
    def is_stem(self) -> bool:
        return self.pin == -1

    def describe(self, netlist: Netlist) -> str:
        """Human-readable fault name, e.g. ``u12.in1 s-a-0``."""
        sa = f"s-a-{self.value}"
        if self.gate_index is None:
            return f"PI {netlist.net_names[self.net]} {sa}"
        gate = netlist.gates[self.gate_index]
        if self.is_stem:
            return f"{gate.name}.out({netlist.net_names[self.net]}) {sa}"
        return f"{gate.name}.in{self.pin}({netlist.net_names[self.net]}) {sa}"


def fault_key(site: FaultSite) -> str:
    """Stable string id of a :class:`FaultSite`."""
    gate = "pi" if site.gate_index is None else str(site.gate_index)
    return f"{gate}:{site.pin}:{site.net}:{site.value}"


def enumerate_faults(
    netlist: Netlist,
    gates: list[Gate] | None = None,
    include_pi_stems: bool = False,
) -> list[FaultSite]:
    """All stem+branch stuck-at faults on ``gates`` (default: every gate).

    Constant-driver gates contribute only the stem fault of the opposite
    polarity, and pins tied to a constant net are likewise skipped for the
    matching polarity -- sticking a tied-off pin at its tied value is
    untestable by construction and not part of any tool's fault universe.
    """
    if gates is None:
        gates = netlist.gates

    def tied_value(net: int) -> int | None:
        driver = netlist.driver_of(net)
        if driver is None or not is_constant(driver.gtype):
            return None
        return 0 if driver.gtype is GateType.CONST0 else 1

    sites: list[FaultSite] = []
    for g in gates:
        if is_constant(g.gtype):
            bad = 1 if g.gtype is GateType.CONST0 else 0
            sites.append(FaultSite(g.index, -1, g.output, bad))
            continue
        for v in (0, 1):
            sites.append(FaultSite(g.index, -1, g.output, v))
        for pin, net in enumerate(g.inputs):
            for v in (0, 1):
                if tied_value(net) == v:
                    continue
                sites.append(FaultSite(g.index, pin, net, v))
    if include_pi_stems:
        for net in netlist.inputs:
            for v in (0, 1):
                sites.append(FaultSite(None, -1, net, v))
    return sites


# Controlling input value and the equivalent output value it forces.
_CONTROLLING = {
    GateType.AND: (0, 0),
    GateType.NAND: (0, 1),
    GateType.OR: (1, 1),
    GateType.NOR: (1, 0),
}


def collapse_faults(
    netlist: Netlist, sites: list[FaultSite]
) -> tuple[list[FaultSite], dict[FaultSite, FaultSite]]:
    """Equivalence-collapse ``sites``.

    Returns:
        (representatives, mapping of every site to its representative).
        Representatives are chosen deterministically (first in input order)
        so results are stable across runs.
    """
    # Union-find over site positions, looked up by plain
    # (gate, pin, net, value) tuples; a duplicate site shares the node of
    # its first occurrence.
    keys = [(s.gate_index, s.pin, s.net, s.value) for s in sites]
    node: dict[tuple, int] = {}
    for i, k in enumerate(keys):
        node.setdefault(k, i)
    parent = list(range(len(sites)))

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(a: tuple, b: tuple) -> None:
        """Merge the classes of sites ``a`` and ``b`` when both are present."""
        ia, ib = node.get(a), node.get(b)
        if ia is None or ib is None:
            return
        ra, rb = find(ia), find(ib)
        if ra != rb:
            parent[rb] = ra

    gates = netlist.gates
    for gi in {k[0] for k in keys if k[0] is not None}:
        g = gates[gi]
        if g.gtype in _CONTROLLING:
            cv, ov = _CONTROLLING[g.gtype]
            for pin, net in enumerate(g.inputs):
                union((gi, -1, g.output, ov), (gi, pin, net, cv))
        elif g.gtype in (GateType.NOT, GateType.BUF):
            invert = g.gtype is GateType.NOT
            for v in (0, 1):
                stem_value = (1 - v) if invert else v
                union((gi, 0, g.inputs[0], v), (gi, -1, g.output, stem_value))

    # Fanout-free stems merge with their single branch -- unless the net is
    # itself observed as a primary output, where the stem is visible on a
    # path the branch fault cannot reach.
    observed = set(netlist.outputs)
    fanout = netlist.fanout_map()
    for k in keys:
        _, pin, net, value = k
        if pin != -1 or net in observed:
            continue
        readers = fanout[net]
        if len(readers) == 1:
            g_idx, reader_pin = readers[0]
            union(k, (g_idx, reader_pin, net, value))

    # The first site of each class (in input order) represents it.
    first_of_class: dict[int, FaultSite] = {}
    rep_of = [first_of_class.setdefault(find(node[k]), s) for k, s in zip(keys, sites)]
    mapping = dict(zip(sites, rep_of))
    reps = [s for s, rep in zip(sites, rep_of) if rep is s]
    return reps, mapping
