"""Event-driven reference simulator (scalar, three-valued), test-only.

An independent second implementation of the simulation semantics: one
pattern at a time, plain Python ints (0, 1, -1 for X), a classic
zero-delay event loop (changed net -> re-evaluate fanout gates until the
wavefront dies out).  It exists to cross-validate the vectorised compiled
simulator: ``test_eventsim.py`` and ``test_simulator.py::TestMixedGroups``
drive both engines with the same stimulus over random netlists, and
``test_engine_equivalence.py`` replays pattern 0 of a campaign stimulus
on every catalog design through both engines (:func:`crosscheck_compiled`
via :class:`PatternZeroShim`).  All of them require bit-identical traces.

It is 10-100x slower per pattern and is not part of the shipped package.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.logic.faults import FaultSite
from repro.logic.simulator import CycleSimulator
from repro.logic.values import X, eval3
from repro.netlist.gates import GateType, is_constant, is_sequential
from repro.netlist.netlist import Netlist


class EventSimulator:
    """Scalar event-driven simulator mirroring CycleSimulator's semantics."""

    def __init__(self, netlist: Netlist, faults: list[FaultSite] | None = None):
        netlist.validate()
        self.netlist = netlist
        self.values: list[int] = [X] * netlist.num_nets
        self._fanout = netlist.fanout_map()
        self._stem: dict[int, int] = {}
        self._branch: dict[tuple[int, int], int] = {}
        for f in faults or []:
            if f.is_stem:
                self._stem[f.net] = f.value
            else:
                assert f.gate_index is not None
                self._branch[(f.gate_index, f.pin)] = f.value
        for g in netlist.gates:
            if is_constant(g.gtype):
                self._set(g.output, eval3(g.gtype, []))
        for net, val in self._stem.items():
            self.values[net] = val
        self.toggles = [0] * netlist.num_nets
        self._prev: list[int] | None = None

    # ------------------------------------------------------------- internal
    def _set(self, net: int, value: int) -> None:
        if net in self._stem:
            value = self._stem[net]
        self.values[net] = value

    def _gate_inputs(self, gate) -> list[int]:
        vals = []
        for pin, net in enumerate(gate.inputs):
            forced = self._branch.get((gate.index, pin))
            vals.append(self.values[net] if forced is None else forced)
        return vals

    # ---------------------------------------------------------------- drive
    def drive_const(self, net: int, value: int) -> None:
        self._set(net, value)

    # ----------------------------------------------------------------- eval
    def settle(self) -> None:
        """Propagate events until the combinational network is stable."""
        queue = deque(g for g in self.netlist.gates
                      if not is_sequential(g.gtype) and not is_constant(g.gtype))
        queued = {g.index for g in queue}
        guard = 0
        limit = 4 * (len(self.netlist.gates) + 1) ** 2
        while queue:
            guard += 1
            if guard > limit:
                raise RuntimeError("event simulation did not stabilise")
            gate = queue.popleft()
            queued.discard(gate.index)
            new = eval3(gate.gtype, self._gate_inputs(gate))
            if gate.output in self._stem:
                new = self._stem[gate.output]
            if new == self.values[gate.output]:
                continue
            self.values[gate.output] = new
            for reader_idx, _pin in self._fanout[gate.output]:
                reader = self.netlist.gates[reader_idx]
                if is_sequential(reader.gtype) or is_constant(reader.gtype):
                    continue
                if reader.index not in queued:
                    queue.append(reader)
                    queued.add(reader.index)
        # Toggle accounting against the previous settled frame.
        if self._prev is not None:
            for net in range(len(self.values)):
                a, b = self._prev[net], self.values[net]
                if a != X and b != X and a != b:
                    self.toggles[net] += 1
        self._prev = list(self.values)

    def latch(self) -> None:
        """Clock edge for every flip-flop."""
        updates: list[tuple[int, int]] = []
        for g in self.netlist.gates:
            if g.gtype is GateType.DFF:
                updates.append((g.output, self._gate_inputs(g)[0]))
            elif g.gtype is GateType.DFFE:
                en, d = self._gate_inputs(g)
                q = self.values[g.output]
                if en == 1:
                    updates.append((g.output, d))
                elif en == X:
                    updates.append((g.output, d if (d == q and d != X) else X))
        for net, val in updates:
            self._set(net, val)

    # ------------------------------------------------------------- observe
    def sample(self, net: int) -> int:
        return self.values[net]

    def sample_bus(self, nets: list[int]) -> int:
        out = 0
        for i, net in enumerate(nets):
            v = self.values[net]
            if v == X:
                return X
            out |= v << i
        return out


class PatternZeroShim:
    """Drive adapter replaying pattern 0 of any packed stimulus.

    Presents the :class:`~repro.logic.simulator.CycleSimulator` drive API
    (``drive_words`` / ``drive`` / ``drive_const`` / ``drive_bus``) on
    top of an :class:`EventSimulator`, extracting bit 0 of each plane --
    so an arbitrary campaign :class:`~repro.logic.faultsim.Stimulus`
    drives the scalar reference engine unmodified.
    """

    def __init__(self, esim: EventSimulator, n_patterns: int):
        self._esim = esim
        # Stimuli validate the simulator's pattern count before driving.
        self.n_patterns = n_patterns

    def drive_words(self, net: int, zero, one) -> None:
        z = int(np.asarray(zero).reshape(-1)[0]) & 1
        o = int(np.asarray(one).reshape(-1)[0]) & 1
        self._esim.drive_const(net, 1 if o else (0 if z else X))

    def drive(self, net: int, bits) -> None:
        self._esim.drive_const(net, int(np.asarray(bits).reshape(-1)[0]) & 1)

    def drive_const(self, net: int, value: int) -> None:
        self._esim.drive_const(net, value)

    def drive_bus(self, nets: list[int], words) -> None:
        value = int(np.asarray(words).reshape(-1)[0])
        for i, net in enumerate(nets):
            self._esim.drive_const(net, (value >> i) & 1)


def crosscheck_compiled(
    netlist: Netlist,
    stimulus,
    observe: list[int],
    fault: FaultSite | None = None,
) -> int:
    """Replay pattern 0 of ``stimulus`` through both engines and compare.

    Runs the compiled pattern-parallel simulator and the event-driven
    reference side by side for every cycle of the stimulus (with the same
    optional injected fault) and compares the three-valued samples of
    every observed net after each settle.  Returns the first cycle where
    any observed net disagrees, or -1 when the engines are bit-identical.
    """
    faults = [fault] if fault is not None else None
    csim = CycleSimulator(netlist, stimulus.n_patterns, faults=faults)
    esim = EventSimulator(netlist, faults=faults)
    shim = PatternZeroShim(esim, stimulus.n_patterns)
    for cycle in range(stimulus.n_cycles):
        stimulus.apply(csim, cycle)
        stimulus.apply(shim, cycle)
        csim.settle()
        esim.settle()
        for net in observe:
            if int(csim.sample(net)[0]) != esim.sample(net):
                return cycle
        csim.latch()
        esim.latch()
    return -1
