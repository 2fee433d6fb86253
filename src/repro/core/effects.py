"""Control-line effects: what a controller fault does to the control word.

Step 3 of the paper's methodology injects each remaining fault "into the
controller and simulates the controller to determine the fault's effect on
the controller outputs" (Section 5).  This module drives the *standalone*
controller netlist through normal-mode scenarios (reset pulse, start held
high, a chosen number of loop iterations worth of ``cond`` values) and
diffs the faulty control lines against the fault-free ones, producing the
paper's "control line effects": a change of a single control line in a
single control step (Section 3).

Two paths produce faulty traces.  :func:`faulty_control_values` runs
*every* fault of a campaign through one simulation per scenario: fault
``i`` owns word ``i`` of the pattern axis (``CycleSimulator`` fault
blocks), every pattern sees the same scenario inputs, so bit 0 of each
word is that fault's whole machine.  :func:`faulty_control_trace` runs
one fault on its own 1-pattern simulator; it is the per-fault oracle the
integrity audit re-derives sampled traces on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hls.rtl import HOLD_STATE, RTLDesign, cs_state
from ..logic.faults import FaultSite
from ..logic.simulator import CycleSimulator
from ..synth.controller import SynthesizedController

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


@dataclass(frozen=True)
class ControlLineEffect:
    """One control line differing from fault-free in one cycle.

    ``faulty`` is -1 when the faulty machine drives X."""

    cycle: int
    state: str
    line: str
    golden: int
    faulty: int

    def describe(self) -> str:
        if self.line.startswith("LD"):
            word = "skipped load" if self.golden == 1 else "extra load"
            if self.faulty == -1:
                word = "unknown load"
            return f"{self.line}: {word} in {self.state}"
        return f"{self.line} changes in {self.state}"


@dataclass
class Scenario:
    """A normal-mode run: reset, a few idle cycles waiting in RESET with
    ``start`` low, then ``iterations`` body passes, then HOLD.

    The idle prelude matters: without it, faults that only disturb the
    wait-for-start path would look controller-functionally redundant."""

    iterations: int
    n_steps: int
    hold_cycles: int = 3
    idle_cycles: int = 2

    @property
    def n_cycles(self) -> int:
        return 2 + self.idle_cycles + self.n_steps * self.iterations + self.hold_cycles

    @property
    def first_body_cycle(self) -> int:
        return 2 + self.idle_cycles

    def golden_state(self, cycle: int) -> str:
        """Fault-free controller state at ``cycle`` (state X before cycle 1)."""
        if cycle == 0:
            return "X"
        if cycle < self.first_body_cycle:
            return "RESET"
        body = cycle - self.first_body_cycle
        total = self.n_steps * self.iterations
        if body < total:
            return cs_state(body % self.n_steps + 1)
        return HOLD_STATE

    def start_at(self, cycle: int) -> int:
        """The start waveform: low through the idle prelude, then high."""
        return 1 if cycle >= self.first_body_cycle - 1 else 0

    def cond_at(self, cycle: int) -> int:
        """The loop condition waveform: 1 until the last decision point.

        The fault-free controller samples ``cond`` only in the final control
        step; we hold the line at the value of the *next* decision so the
        waveform is well-defined every cycle."""
        last_decision = self.first_body_cycle - 1 + self.n_steps * self.iterations
        return 1 if cycle < last_decision else 0


def make_scenarios(
    rtl: RTLDesign, iteration_counts=(1, 2, 3), hold_cycles: int = 3
) -> list[Scenario]:
    """Scenarios for classification: several iteration counts for loops,
    a single pass for straight-line behaviours."""
    counts = iteration_counts if rtl.cond_fu else (1,)
    return [Scenario(k, rtl.schedule.n_steps, hold_cycles) for k in counts]


@dataclass
class ControlTrace:
    """Per-cycle control-line values (and states) of one controller run."""

    scenario: Scenario
    lines: list[dict[str, int]]  # value -1 == X
    states: list[str] = field(default_factory=list)


def _line_values(sim: CycleSimulator, out_nets: np.ndarray) -> np.ndarray:
    """Bit 0 of every word of the control lines: ``(n_lines, words)``,
    -1 == X, read with one gather per plane."""
    is_zero = (sim.Z[out_nets] & np.uint64(1)).astype(bool)
    is_one = (sim.O[out_nets] & np.uint64(1)).astype(bool)
    return np.where(is_one, 1, np.where(is_zero, 0, -1))


def _run_controller(
    ctrl: SynthesizedController,
    scenario: Scenario,
    fault: FaultSite | None,
    cond_flips: set[int] | None = None,
) -> ControlTrace:
    sim = CycleSimulator(ctrl.netlist, 1, faults=[fault] if fault else None)
    names = list(ctrl.output_nets)
    out_nets = np.array(list(ctrl.output_nets.values()), dtype=np.int64)
    lines: list[dict[str, int]] = []
    states: list[str] = []
    has_cond = "cond" in ctrl.input_nets
    for cycle in range(scenario.n_cycles):
        sim.drive_const(ctrl.input_nets["reset"], 1 if cycle == 0 else 0)
        sim.drive_const(ctrl.input_nets["start"], scenario.start_at(cycle))
        if has_cond:
            cond = scenario.cond_at(cycle)
            if cond_flips and cycle in cond_flips:
                cond = 1 - cond
            sim.drive_const(ctrl.input_nets["cond"], cond)
        sim.settle()
        lines.append(dict(zip(names, _line_values(sim, out_nets)[:, 0].tolist())))
        states.append(scenario.golden_state(cycle))
        sim.latch()
    return ControlTrace(scenario=scenario, lines=lines, states=states)


def golden_control_trace(ctrl: SynthesizedController, scenario: Scenario) -> ControlTrace:
    """Fault-free control-line trace for a scenario."""
    return _run_controller(ctrl, scenario, None)


def faulty_control_trace(
    ctrl: SynthesizedController,
    scenario: Scenario,
    fault: FaultSite,
    cond_flips: set[int] | None = None,
) -> ControlTrace:
    """Control-line trace with ``fault`` injected in the controller.

    ``cond_flips`` inverts the assumed ``cond`` waveform at the given
    cycles -- used to probe whether a faulty controller is sensitive to
    comparator values the fault itself corrupted."""
    return _run_controller(ctrl, scenario, fault, cond_flips=cond_flips)


def faulty_control_values(
    ctrl: SynthesizedController,
    scenario: Scenario,
    faults: list[FaultSite],
    cond_flips: list[set[int]] | None = None,
) -> np.ndarray:
    """Control-line values of every fault in one controller simulation.

    Returns an int8 array ``(n_cycles, n_lines, n_faults)`` (lines in
    ``ctrl.output_nets`` order, -1 == X).  Fault ``i`` is injected into
    word ``i`` only; ``cond_flips[i]`` inverts the ``cond`` waveform of
    that word alone, so per-fault probes batch the same way.
    """
    n = len(faults)
    names = list(ctrl.output_nets)
    if n == 0:
        return np.zeros((scenario.n_cycles, len(names), 0), dtype=np.int8)
    sim = CycleSimulator(
        ctrl.netlist,
        64 * n,
        faults=list(faults),
        fault_blocks=[(i, i + 1) for i in range(n)],
    )
    out_nets = np.array([ctrl.output_nets[name] for name in names], dtype=np.int64)
    has_cond = "cond" in ctrl.input_nets
    flipped = np.zeros((scenario.n_cycles, n), dtype=bool)
    if has_cond and cond_flips is not None:
        for i, flips in enumerate(cond_flips):
            for cycle in flips:
                if 0 <= cycle < scenario.n_cycles:
                    flipped[cycle, i] = True
    values = np.empty((scenario.n_cycles, len(names), n), dtype=np.int8)
    for cycle in range(scenario.n_cycles):
        sim.drive_const(ctrl.input_nets["reset"], 1 if cycle == 0 else 0)
        sim.drive_const(ctrl.input_nets["start"], scenario.start_at(cycle))
        if has_cond:
            cond = scenario.cond_at(cycle) ^ flipped[cycle]
            one = np.where(cond, _ALL_ONES, np.uint64(0))
            sim.drive_words(ctrl.input_nets["cond"], ~one, one)
        sim.settle()
        # Every bit of a word is the same machine: bit 0 stands for all.
        values[cycle] = _line_values(sim, out_nets)
        sim.latch()
    return values


def trace_values(ctrl: SynthesizedController, trace: ControlTrace) -> np.ndarray:
    """A trace as an ``(n_cycles, n_lines)`` int8 column (lines in
    ``ctrl.output_nets`` order, -1 == X)."""
    names = list(ctrl.output_nets)
    return np.array(
        [[row[name] for name in names] for row in trace.lines], dtype=np.int8
    ).reshape(len(trace.lines), len(names))


def diff_traces(golden: ControlTrace, faulty: ControlTrace) -> list[ControlLineEffect]:
    """Control line effects: cycles (from 1 on) where a line differs."""
    effects = []
    for cycle in range(1, golden.scenario.n_cycles):
        for line, gval in golden.lines[cycle].items():
            fval = faulty.lines[cycle][line]
            if gval == -1:
                continue  # fault-free X: undefined comparison (cycle 0 only)
            if fval != gval:
                effects.append(
                    ControlLineEffect(
                        cycle=cycle,
                        state=golden.states[cycle],
                        line=line,
                        golden=gval,
                        faulty=fval,
                    )
                )
    return effects
