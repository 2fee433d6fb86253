"""Integrated controller-datapath system assembly and normal-mode harness.

``build_system`` flattens the synthesized controller and the elaborated
datapath into one netlist wired exactly as Figure 1 of the paper: control
lines run from the controller into the datapath, the comparator status bit
runs back, and only ``reset``, ``start`` and the data inputs/outputs touch
the outside world.

``NormalModeStimulus`` drives a full computation per pattern: one reset
cycle, then ``start`` held high while the data inputs stay constant --
the paper's normal-mode operation on one test pattern.  ``hold_masks``
extracts, per cycle and pattern, whether the fault-free machine has
reached HOLD; system observability (and hence the SFR/SFI split) is
defined by sampling the data outputs at those times.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..netlist.builder import NetlistBuilder
from ..netlist.netlist import Gate, Netlist
from ..synth.controller import SynthesizedController, synthesize_controller
from ..synth.fsm import FSM
from .controlword import COND_INPUT, START_INPUT, build_fsm
from .gatelevel import DatapathNets, elaborate_datapath
from .rtl import HOLD_STATE, RTLDesign


@dataclass
class System:
    """One integrated controller-datapath pair."""

    netlist: Netlist
    rtl: RTLDesign
    fsm: FSM
    controller: SynthesizedController
    reset_net: int
    start_net: int
    input_buses: dict[str, list[int]]
    output_buses: dict[str, list[int]]
    control_nets: dict[str, int]
    state_nets: list[int]
    reg_q: dict[str, list[int]]
    cond_net: int | None
    #: standalone-controller net name -> system net id
    ctrl_net_map: dict[str, int] | None = None
    #: standalone-controller gate index -> system gate index
    ctrl_gate_map: dict[int, int] | None = None

    def __getstate__(self) -> dict:
        # Only the fields travel: memos attached to the object (the
        # Monte-Carlo batch lists) regenerate from their seeds and must
        # never ride into pickled pool contexts.
        names = {f.name for f in fields(self)}
        return {k: v for k, v in self.__dict__.items() if k in names}

    def to_system_fault(self, site):
        """Translate a fault site enumerated on the standalone controller
        netlist into the equivalent site in the flattened system."""
        from ..logic.faults import FaultSite

        assert self.ctrl_gate_map is not None and self.ctrl_net_map is not None
        gate = None if site.gate_index is None else self.ctrl_gate_map[site.gate_index]
        net = self.ctrl_net_map[self.controller.netlist.net_names[site.net]]
        return FaultSite(gate, site.pin, net, site.value)

    def controller_gates(self) -> list[Gate]:
        """The paper's fault universe: gates inside the controller."""
        return self.netlist.gates_with_tag("ctrl")

    def datapath_gates(self) -> list[Gate]:
        return self.netlist.gates_with_tag("dp")

    @property
    def n_steps(self) -> int:
        return self.rtl.schedule.n_steps

    def cycles_for(self, iterations: int, hold_cycles: int = 3) -> int:
        """Cycle budget: reset + RESET + ``iterations`` body passes + HOLD."""
        return 2 + self.n_steps * max(1, iterations) + hold_cycles

    def hold_code_planes(self, planes: np.ndarray) -> np.ndarray:
        """Word-mask of patterns whose controller state is HOLD.

        ``planes`` is one settled ``(2, n_rows, words)`` snapshot (zero
        plane first, one plane second) -- see
        :meth:`~repro.logic.simulator.CycleSimulator.snapshot_planes`.
        """
        code = self.controller.encoding.codes[HOLD_STATE]
        mask = None
        for j, net in enumerate(self.state_nets):
            plane = planes[1, net] if (code >> j) & 1 else planes[0, net]
            mask = plane.copy() if mask is None else mask & plane
        assert mask is not None
        return mask


def build_system(
    rtl: RTLDesign,
    encoding_kind: str = "binary",
    max_fanin: int = 4,
    output_style: str = "pla",
    gated_clocks: bool = True,
) -> System:
    """Synthesize the controller and flatten it with the datapath."""
    fsm = build_fsm(rtl)
    ctrl = synthesize_controller(
        fsm, encoding_kind=encoding_kind, max_fanin=max_fanin, output_style=output_style
    )
    dp: DatapathNets = elaborate_datapath(rtl, gated_clocks=gated_clocks)

    b = NetlistBuilder(name=rtl.name)
    reset = b.input("reset")
    start = b.input(START_INPUT)
    input_buses = {name: b.input_bus(name, rtl.width) for name in rtl.dfg.inputs}

    control_nets = {line: b.net(f"ctl_{line}") for line in rtl.load_lines + rtl.sel_lines}
    cond_bit = b.net("cond_bit") if rtl.cond_fu else None

    dp_bindings: dict[str, int] = {}
    for line, net in control_nets.items():
        dp_bindings[line] = net
    for name, bus in input_buses.items():
        for i, net in enumerate(bus):
            dp_bindings[f"{name}[{i}]"] = net
    if cond_bit is not None and dp.cond_net is not None:
        dp_bindings[dp.netlist.net_names[dp.cond_net]] = cond_bit
    dp_map = b.instantiate(dp.netlist, dp_bindings, prefix="dp")

    ctrl_bindings: dict[str, int] = {"reset": reset, START_INPUT: start}
    if cond_bit is not None:
        ctrl_bindings[COND_INPUT] = cond_bit
    for line, net in control_nets.items():
        ctrl_bindings[line] = net
    ctrl_map = b.instantiate(ctrl.netlist, ctrl_bindings, prefix="ctrl")

    output_buses = {}
    for port, reg_name in rtl.outputs.items():
        bus = [dp_map[f"{reg_name}_q[{i}]"] for i in range(rtl.width)]
        output_buses[port] = bus
        b.output_bus(bus)

    netlist = b.done()
    reg_q = {
        r.name: [dp_map[f"{r.name}_q[{i}]"] for i in range(rtl.width)]
        for r in rtl.registers
    }
    state_nets = [ctrl_map[f"state[{j}]"] for j in range(ctrl.encoding.n_bits)]
    ctrl_gate_map = {}
    by_name = {g.name: g.index for g in netlist.gates}
    for g in ctrl.netlist.gates:
        ctrl_gate_map[g.index] = by_name[f"ctrl/{g.name}"]
    return System(
        netlist=netlist,
        rtl=rtl,
        fsm=fsm,
        controller=ctrl,
        reset_net=reset,
        start_net=start,
        input_buses=input_buses,
        output_buses=output_buses,
        control_nets=control_nets,
        state_nets=state_nets,
        reg_q=reg_q,
        cond_net=cond_bit,
        ctrl_net_map=ctrl_map,
        ctrl_gate_map=ctrl_gate_map,
    )


class NormalModeStimulus:
    """Drive one full computation per pattern.

    Cycle 0 asserts ``reset`` (start already high); from cycle 1 onward the
    machine runs free.  Data inputs are held constant for the whole run,
    exactly as a tester applies one pattern per computation.

    The per-net (zero, one) bit-planes are packed once at construction and
    replayed by every ``apply`` -- a fault-simulation or Monte-Carlo
    campaign reuses one stimulus across hundreds of faulted simulators
    without re-packing identical data each run.
    """

    def __init__(self, system: System, data: dict[str, np.ndarray], n_cycles: int):
        from ..logic import values as V

        lengths = {len(np.asarray(v)) for v in data.values()}
        if len(lengths) != 1:
            raise ValueError("all data arrays must have the same length")
        missing = set(system.rtl.dfg.inputs) - set(data)
        if missing:
            raise ValueError(f"missing data for inputs {sorted(missing)}")
        self.system = system
        self.data = {k: np.asarray(v, dtype=np.int64) for k, v in data.items()}
        self.n_patterns = lengths.pop()
        self.n_cycles = n_cycles

        # Precompile the packed bit-planes driven at cycle 0.
        mask = V.tail_mask(self.n_patterns)
        zeros = np.zeros_like(mask)
        planes: list[tuple[int, np.ndarray, np.ndarray]] = [
            (system.reset_net, zeros, mask),  # reset = 1
            (system.start_net, zeros, mask),  # start = 1
        ]
        width = system.rtl.width
        for name, bus in system.input_buses.items():
            vals = self.data[name]
            if vals.size and (vals.min() < 0 or vals.max() >> width):
                raise ValueError(
                    f"data for input {name!r} exceeds the {width}-bit datapath"
                )
            for i, net in enumerate(bus):
                one = V.pack_bits((vals >> i) & 1)
                planes.append((net, ~one & mask, one))
        self._cycle0_planes = planes
        self._reset_off = (system.reset_net, mask, zeros)  # reset = 0

    def drive_planes(self, cycle: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """The ``(net, zero, one)`` planes :meth:`apply` drives at ``cycle``."""
        if cycle == 0:
            return self._cycle0_planes
        return [self._reset_off] if cycle == 1 else []

    def apply(self, sim, cycle: int) -> None:
        if cycle == 0 and sim.n_patterns != self.n_patterns:
            raise ValueError(
                f"simulator carries {sim.n_patterns} patterns; "
                f"stimulus was packed for {self.n_patterns}"
            )
        for net, z, o in self.drive_planes(cycle):
            sim.drive_words(net, z, o)


def hold_masks_from_trace(system: System, golden) -> list[np.ndarray]:
    """Per-cycle word-masks of patterns whose *fault-free* machine is in
    HOLD, read off a recorded golden trace.

    ``golden`` is the :class:`~repro.logic.faultsim.GoldenTrace` of
    ``run_golden(system.netlist, stimulus, observe, full=True)``: its
    post-settle snapshots are the states the output sampling schedule
    is defined on, so a campaign that already holds the trace derives
    the masks without simulating the fault-free machine again.
    """
    return [system.hold_code_planes(planes) for planes in golden.planes]


def hold_masks(system: System, stimulus: NormalModeStimulus) -> list[np.ndarray]:
    """Per-cycle word-masks of patterns whose *fault-free* machine is in
    HOLD -- the output sampling schedule for fault detection.

    Simulates the fault-free machine once; callers that hold its golden
    trace already use :func:`hold_masks_from_trace` instead.
    """
    from ..logic.faultsim import run_golden

    return hold_masks_from_trace(
        system, run_golden(system.netlist, stimulus, [], full=True)
    )
