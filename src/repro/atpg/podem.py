"""PODEM: deterministic test generation for combinational netlists.

Goel's Path-Oriented DEcision Making, implemented over this library's
netlist substrate.  It operates on a *combinational* netlist (primary
inputs only -- for sequential designs, use :func:`repro.dft.scan.scan_view`
to open the flip-flops first) and, for a single stuck-at fault, either

* returns a primary-input assignment that detects the fault,
* proves the fault **redundant** (the decision space is exhausted -- PODEM
  is complete), or
* gives up after a backtrack limit (``aborted``).

The D-calculus is carried as a pair of three-valued machines: every net
holds ``(good, faulty)`` with values in {0, 1, X}.  ``D`` is ``(1, 0)``
and ``D'`` is ``(0, 1)``.  Implication is a full forward resimulation of
both machines in level order -- the netlists this library produces are a
few hundred gates, where resimulation beats incremental bookkeeping in
clarity and is still instant.

Used by :mod:`repro.core.teststrategies` to push separate-test coverage
from "random patterns found most" to "everything not provably redundant".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..logic.faults import FaultSite
from ..logic.levelize import levelize
from ..logic.values import X, eval3
from ..netlist.gates import GateType, is_constant, is_sequential
from ..netlist.netlist import Netlist

#: Controlling input value per gate type (None = none, e.g. XOR).
_CONTROLLING = {
    GateType.AND: 0,
    GateType.NAND: 0,
    GateType.OR: 1,
    GateType.NOR: 1,
}
#: Output inversion parity per gate type.
_INVERTS = {GateType.NAND, GateType.NOR, GateType.NOT, GateType.XNOR}


class Status(enum.Enum):
    TEST = "test"
    REDUNDANT = "redundant"
    ABORTED = "aborted"


@dataclass
class TestResult:
    status: Status
    assignment: dict[int, int] = field(default_factory=dict)  # PI net -> 0/1
    backtracks: int = 0

    @property
    def found(self) -> bool:
        return self.status is Status.TEST


class Podem:
    """Test generator bound to one combinational netlist."""

    def __init__(self, netlist: Netlist, backtrack_limit: int = 10_000):
        if any(is_sequential(g.gtype) for g in netlist.gates):
            raise ValueError("PODEM needs a combinational netlist (use scan_view)")
        netlist.validate()
        self.netlist = netlist
        self.backtrack_limit = backtrack_limit
        self._order = [g for level in levelize(netlist) for g in level]
        self._fanout = netlist.fanout_map()

    # ------------------------------------------------------------------ sim
    def _simulate(self, assignment: dict[int, int], fault: FaultSite):
        """Forward-simulate (good, faulty) pairs under a PI assignment."""
        n = self.netlist.num_nets
        good = [X] * n
        bad = [X] * n
        for net in self.netlist.inputs:
            v = assignment.get(net, X)
            good[net] = v
            bad[net] = v
        for g in self.netlist.gates:
            if is_constant(g.gtype):
                v = eval3(g.gtype, [])
                good[g.output] = v
                bad[g.output] = v
        if fault.is_stem:
            bad[fault.net] = fault.value
        for gi in self._order:
            gate = self.netlist.gates[gi]
            good[gate.output] = eval3(gate.gtype, [good[i] for i in gate.inputs])
            bad_in = [bad[i] for i in gate.inputs]
            if not fault.is_stem and fault.gate_index == gate.index:
                bad_in[fault.pin] = fault.value
            bad[gate.output] = eval3(gate.gtype, bad_in)
            if fault.is_stem and gate.output == fault.net:
                bad[gate.output] = fault.value
        return good, bad

    # ------------------------------------------------------------ objectives
    def _fault_visible_at_site(self, good, bad, fault: FaultSite) -> bool:
        """Is the fault activated (D or D' at the fault site)?"""
        if fault.is_stem:
            g = good[fault.net]
            return g != X and g != fault.value
        gate = self.netlist.gates[fault.gate_index]
        g = good[gate.inputs[fault.pin]]
        return g != X and g != fault.value

    def _d_frontier(self, good, bad, fault: FaultSite):
        """Gates whose output is not yet resolved in at least one machine
        and that carry a D/D' on some input.  For a branch fault the error
        is born on a *pin*, so the faulted gate itself belongs to the
        frontier as soon as the fault is activated."""
        frontier = []
        for gi in self._order:
            gate = self.netlist.gates[gi]
            if good[gate.output] != X and bad[gate.output] != X:
                continue
            if (
                not fault.is_stem
                and gate.index == fault.gate_index
                and self._fault_visible_at_site(good, bad, fault)
            ):
                frontier.append(gate)
                continue
            for i in gate.inputs:
                if good[i] != X and bad[i] != X and good[i] != bad[i]:
                    frontier.append(gate)
                    break
        return frontier

    def _error_at_po(self, good, bad) -> bool:
        return any(
            good[o] != X and bad[o] != X and good[o] != bad[o]
            for o in self.netlist.outputs
        )

    def _error_possible(self, good, bad, fault) -> bool:
        """The fault can still reach a PO: it is activated (or could be)
        and either already at a PO or the D-frontier is nonempty."""
        if self._error_at_po(good, bad):
            return True
        # Not yet activated: possible as long as the site is still X.
        if fault.is_stem:
            site_good = good[fault.net]
        else:
            gate = self.netlist.gates[fault.gate_index]
            site_good = good[gate.inputs[fault.pin]]
        if site_good == X:
            return True
        if site_good == fault.value:
            return False  # activation failed for good
        # Activated: does any X path remain, or error already latched at PO?
        if self._d_frontier(good, bad, fault):
            return True
        # Error may sit on an internal net whose fanout is all assigned --
        # check whether any net with D/D' still reaches an X PO region: the
        # D-frontier test above covers it; also a PO itself may carry X in
        # one machine only (undetectable yet); be conservative:
        for o in self.netlist.outputs:
            if good[o] == X or bad[o] == X:
                return True
        return False

    def _objectives(self, good, bad, fault: FaultSite):
        """Candidate (net, value) objectives, in preference order."""
        if not self._fault_visible_at_site(good, bad, fault):
            if fault.is_stem:
                return [(fault.net, 1 - fault.value)]
            gate = self.netlist.gates[fault.gate_index]
            return [(gate.inputs[fault.pin], 1 - fault.value)]
        out = []
        for gate in self._d_frontier(good, bad, fault):
            ctl = _CONTROLLING.get(gate.gtype)
            for i in gate.inputs:
                if good[i] == X:
                    # A non-controlling value lets the error pass.
                    want = 1 - ctl if ctl is not None else 0
                    out.append((i, want))
                    break
        return out

    def _backtrace(self, net: int, value: int, good) -> tuple[int, int] | None:
        """Walk the objective back to an unassigned primary input."""
        seen = 0
        limit = 4 * (len(self.netlist.gates) + 4)
        while True:
            seen += 1
            if seen > limit:
                return None
            if net in self.netlist.inputs:
                return net, value
            gate = self.netlist.driver_of(net)
            if gate is None or is_constant(gate.gtype):
                return None
            if gate.gtype is GateType.MUX2:
                s, a, b = gate.inputs
                if good[s] == X:
                    net, value = s, 0
                    continue
                net = b if good[s] == 1 else a
                continue
            invert = gate.gtype in _INVERTS
            want = (1 - value) if invert else value
            x_inputs = [i for i in gate.inputs if good[i] == X]
            if not x_inputs:
                return None
            ctl = _CONTROLLING.get(gate.gtype)
            if gate.gtype in (GateType.NOT, GateType.BUF):
                net, value = gate.inputs[0], want
            elif gate.gtype in (GateType.XOR, GateType.XNOR):
                net, value = x_inputs[0], want  # parity fixed by siblings later
            elif ctl is not None and want == ctl:
                net, value = x_inputs[0], ctl
            else:
                net, value = x_inputs[0], 1 - ctl if ctl is not None else want
        # unreachable

    # ------------------------------------------------------------------ run
    def generate(self, fault: FaultSite) -> TestResult:
        """Find a test for ``fault``, prove it redundant, or abort."""
        assignment: dict[int, int] = {}
        # Decision stack: (pi net, value, tried_both)
        stack: list[list] = []
        backtracks = 0
        while True:
            good, bad = self._simulate(assignment, fault)
            if self._error_at_po(good, bad):
                return TestResult(Status.TEST, dict(assignment), backtracks)
            pi = None
            if self._error_possible(good, bad, fault):
                for net, value in self._objectives(good, bad, fault):
                    candidate = self._backtrace(net, value, good)
                    if candidate is not None and candidate[0] not in assignment:
                        pi = candidate
                        break
            if pi is not None and pi[0] not in assignment:
                stack.append([pi[0], pi[1], False])
                assignment[pi[0]] = pi[1]
                continue
            # Dead end: backtrack.
            while stack:
                net, val, tried = stack[-1]
                if not tried:
                    stack[-1][2] = True
                    stack[-1][1] = 1 - val
                    assignment[net] = 1 - val
                    backtracks += 1
                    break
                stack.pop()
                del assignment[net]
            else:
                return TestResult(Status.REDUNDANT, {}, backtracks)
            if backtracks > self.backtrack_limit:
                return TestResult(Status.ABORTED, {}, backtracks)


@dataclass
class AtpgSummary:
    """Outcome of running PODEM over a fault list."""

    tested: int = 0
    redundant: int = 0
    aborted: int = 0
    tests: dict[FaultSite, dict[int, int]] = field(default_factory=dict)
    redundant_faults: list[FaultSite] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.tested + self.redundant + self.aborted

    @property
    def coverage(self) -> float:
        """Detected over detectable (redundant faults excluded)."""
        detectable = self.total - self.redundant
        return self.tested / detectable if detectable else 1.0


def run_atpg(
    netlist: Netlist, faults: list[FaultSite], backtrack_limit: int = 10_000
) -> AtpgSummary:
    """Generate tests for every fault; collect redundancy proofs."""
    podem = Podem(netlist, backtrack_limit)
    summary = AtpgSummary()
    for fault in faults:
        result = podem.generate(fault)
        if result.status is Status.TEST:
            summary.tested += 1
            summary.tests[fault] = result.assignment
        elif result.status is Status.REDUNDANT:
            summary.redundant += 1
            summary.redundant_faults.append(fault)
        else:
            summary.aborted += 1
    return summary
