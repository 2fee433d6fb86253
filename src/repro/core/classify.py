"""Section-3 classification of controller faults: CFR / SFR / SFI.

Combines three ingredients:

* :mod:`repro.core.effects` -- the control line effects a fault causes;
* a golden timeline (which registers load / are read each cycle, which
  muxes are active) derived from the fault-free control trace;
* the symbolic replay oracle of :mod:`repro.core.symbolic`.

The *verdict* (SFR vs SFI) comes from the oracle -- value-number equality
of every observed output and loop decision.  The *labels* attached to each
control line effect implement the paper's taxonomy (select change in an
active/inactive step; skipped load; extra load that is idle, overwritten,
a harmless rewrite, or garbage-disruptive) and are what Table 1 prints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..hls.rtl import HOLD_STATE, RTLDesign, cs_state
from ..logic.faults import FaultSite
from ..synth.controller import SynthesizedController
from .effects import (
    ControlLineEffect,
    ControlTrace,
    Scenario,
    diff_traces,
    faulty_control_trace,
    faulty_control_values,
    golden_control_trace,
    make_scenarios,
    trace_from_values,
    trace_values,
)
from .integrity import IntegrityGuard, IntegrityViolation
from .symbolic import ReplayResult, ValueTable, compare_replays, replay


class EffectLabel(enum.Enum):
    SELECT_ACTIVE = "select change while mux active"
    SELECT_ACTIVE_ALIASED = "select change while active but same source"
    SELECT_INACTIVE = "select change while mux inactive"
    LOAD_SKIPPED = "skipped load"
    EXTRA_LOAD_IDLE = "extra load while register idle"
    EXTRA_LOAD_OVERWRITTEN = "extra load overwritten before next read"
    EXTRA_LOAD_REWRITE = "extra load rewrites the same value"
    EXTRA_LOAD_DISRUPTIVE = "extra load writes garbage that is read"
    UNKNOWN_CONTROL = "control line unknown (X)"


#: Labels that, by the Section-3 analysis, cannot disturb the computation.
NON_DISRUPTIVE_LABELS = frozenset(
    {
        EffectLabel.SELECT_INACTIVE,
        EffectLabel.SELECT_ACTIVE_ALIASED,
        EffectLabel.EXTRA_LOAD_IDLE,
        EffectLabel.EXTRA_LOAD_OVERWRITTEN,
        EffectLabel.EXTRA_LOAD_REWRITE,
    }
)


@dataclass(frozen=True)
class LabeledEffect:
    effect: ControlLineEffect
    label: EffectLabel
    register: str = ""  # for load-line effects on shared lines

    def describe(self) -> str:
        base = self.effect.describe()
        if self.register and len(self.register) > 0:
            base = base.replace(self.effect.line, self.register, 1)
        return base


class GoldenTimeline:
    """Cycle-resolved fault-free activity derived from the control trace."""

    def __init__(self, rtl: RTLDesign, trace: ControlTrace, golden_replay: ReplayResult):
        self.rtl = rtl
        self.trace = trace
        self.replay = golden_replay
        n = trace.scenario.n_cycles
        self.loads: list[set[str]] = [set() for _ in range(n)]
        self.reads: list[set[str]] = [set() for _ in range(n)]
        self._mux_index: list[dict[str, int]] = [dict() for _ in range(n)]
        decision_state = cs_state(rtl.schedule.n_steps)
        out_regs = set(rtl.outputs.values())

        for c in range(1, n):
            controls = trace.lines[c]
            state = trace.scenario.golden_state(c)
            for mux in rtl.all_muxes():
                idx = 0
                ok = True
                for bit, sel in enumerate(mux.sel_names):
                    v = controls[sel]
                    if v == -1:
                        ok = False
                        break
                    idx |= v << bit
                if ok:
                    padded = len(mux.sources)
                    self._mux_index[c][mux.name] = idx if idx < padded else 0
            # Which registers load this cycle.
            loading = [r for r in rtl.registers if controls[r.load_line] == 1]
            self.loads[c] = {r.name for r in loading}
            # Which FUs are consumed this cycle.
            consumed: set[str] = set()
            for r in loading:
                src = self._selected_source(r.input_mux, c)
                if src is not None and src.kind == "fu":
                    consumed.add(src.ref)
            if rtl.cond_fu and state == decision_state:
                consumed.add(rtl.cond_fu)
            # Which registers those FUs read.
            for f in rtl.fus:
                if f.name not in consumed:
                    continue
                for mux in (f.mux_a, f.mux_b):
                    src = self._selected_source(mux, c)
                    if src is not None and src.kind == "reg":
                        self.reads[c].add(src.ref)
            if state == HOLD_STATE:
                self.reads[c] |= out_regs

    def _selected_source(self, mux, cycle: int):
        if len(mux.sources) == 1:
            return mux.sources[0]
        idx = self._mux_index[cycle].get(mux.name)
        return None if idx is None else mux.sources[idx]

    def mux_selected_source(self, mux, cycle: int):
        return self._selected_source(mux, cycle)

    def mux_active(self, mux_name: str, cycle: int) -> bool:
        """Is the mux's output consumed this cycle (its selects "cares")?"""
        rtl = self.rtl
        controls = self.trace.lines[cycle]
        state = self.trace.scenario.golden_state(cycle)
        for f in rtl.fus:
            for mux in (f.mux_a, f.mux_b):
                if mux.name == mux_name:
                    if rtl.cond_fu == f.name and state == cs_state(rtl.schedule.n_steps):
                        return True
                    for r in rtl.registers:
                        if controls[r.load_line] == 1:
                            src = self._selected_source(r.input_mux, cycle)
                            if src is not None and src.kind == "fu" and src.ref == f.name:
                                return True
                    return False
        for r in rtl.registers:
            if r.input_mux.name == mux_name:
                return controls[r.load_line] == 1
        raise KeyError(mux_name)

    def register_live(self, reg: str, cycle: int) -> bool:
        """Is ``reg`` holding a value still needed strictly after ``cycle``?

        True iff some fault-free read of the register occurs after ``cycle``
        before the next fault-free load."""
        n = self.trace.scenario.n_cycles
        for c in range(cycle + 1, n):
            if reg in self.reads[c]:
                return True
            if reg in self.loads[c]:
                return False
        return False

    def next_read(self, reg: str, cycle: int) -> int | None:
        for c in range(cycle + 1, self.trace.scenario.n_cycles):
            if reg in self.reads[c]:
                return c
        return None

    def next_load(self, reg: str, cycle: int) -> int | None:
        for c in range(cycle + 1, self.trace.scenario.n_cycles):
            if reg in self.loads[c]:
                return c
        return None


def _padded_source(mux, index: int):
    padded = list(mux.sources) + [mux.sources[0]] * ((1 << mux.n_sel_bits) - len(mux.sources))
    return padded[index]


def label_effects(
    rtl: RTLDesign,
    timeline: GoldenTimeline,
    faulty_trace: ControlTrace,
    faulty_replay: ReplayResult,
    effects: list[ControlLineEffect],
) -> list[LabeledEffect]:
    """Attach the Section-3 taxonomy label to every control line effect."""
    labeled: list[LabeledEffect] = []
    for eff in effects:
        if eff.faulty == -1:
            labeled.append(LabeledEffect(eff, EffectLabel.UNKNOWN_CONTROL))
            continue
        if eff.line in rtl.sel_lines:
            mux = rtl.mux_of_sel(eff.line)
            if not timeline.mux_active(mux.name, eff.cycle):
                labeled.append(LabeledEffect(eff, EffectLabel.SELECT_INACTIVE))
                continue
            # Active: disruptive unless padding aliases to the same source.
            g_idx = f_idx = 0
            ok = True
            for bit, sel in enumerate(mux.sel_names):
                gv = timeline.trace.lines[eff.cycle][sel]
                fv = faulty_trace.lines[eff.cycle][sel]
                if gv == -1 or fv == -1:
                    ok = False
                    break
                g_idx |= gv << bit
                f_idx |= fv << bit
            if ok and _padded_source(mux, g_idx) == _padded_source(mux, f_idx):
                labeled.append(LabeledEffect(eff, EffectLabel.SELECT_ACTIVE_ALIASED))
            else:
                labeled.append(LabeledEffect(eff, EffectLabel.SELECT_ACTIVE))
            continue
        # Load line effect: applies to every register on the line.
        for reg in rtl.regs_on_line[eff.line]:
            if eff.golden == 1:  # skipped load
                labeled.append(LabeledEffect(eff, EffectLabel.LOAD_SKIPPED, register=reg))
                continue
            # Extra load.
            c = eff.cycle
            if not timeline.register_live(reg, c):
                labeled.append(LabeledEffect(eff, EffectLabel.EXTRA_LOAD_IDLE, register=reg))
                continue
            written_golden = timeline.replay.reg_history[c + 1][reg] if c + 1 < len(
                timeline.replay.reg_history
            ) else None
            written_faulty = faulty_replay.reg_history[c + 1][reg] if c + 1 < len(
                faulty_replay.reg_history
            ) else None
            if written_golden is not None and written_golden == written_faulty:
                labeled.append(LabeledEffect(eff, EffectLabel.EXTRA_LOAD_REWRITE, register=reg))
                continue
            nread = timeline.next_read(reg, c)
            nload = timeline.next_load(reg, c)
            if nread is None or (nload is not None and nload < nread):
                labeled.append(
                    LabeledEffect(eff, EffectLabel.EXTRA_LOAD_OVERWRITTEN, register=reg)
                )
            else:
                labeled.append(
                    LabeledEffect(eff, EffectLabel.EXTRA_LOAD_DISRUPTIVE, register=reg)
                )
    return labeled


@dataclass
class FaultClassification:
    """Final classification of one controller fault."""

    fault: FaultSite
    category: str  # 'CFR' | 'SFR' | 'SFI'
    effects: list[LabeledEffect] = field(default_factory=list)
    reason: str = ""

    @property
    def affects_load_line(self) -> bool:
        return any(e.effect.line.startswith("LD") for e in self.effects)

    @property
    def select_only(self) -> bool:
        return bool(self.effects) and not self.affects_load_line

    def effect_summary(self) -> list[str]:
        """Deduplicated state-level effect descriptions (Table-1 style)."""
        seen: list[str] = []
        for e in self.effects:
            desc = e.describe()
            if desc not in seen:
                seen.append(desc)
        return seen


class Classifier:
    """Caches golden traces/replays and classifies faults in batches."""

    def __init__(
        self,
        rtl: RTLDesign,
        ctrl: SynthesizedController,
        iteration_counts=(1, 2, 3),
        hold_cycles: int | None = None,
    ):
        self.rtl = rtl
        self.ctrl = ctrl
        # The HOLD observation window must outlast any post-completion
        # divergence of a faulty controller: a corrupted machine can march
        # through its whole state space (and the full schedule) before it
        # first touches an output register.  Two state-space traversals
        # plus one schedule length is enough for any periodic behaviour to
        # show itself twice.
        n_states = len(rtl.states)
        self._n_states = n_states
        if hold_cycles is None:
            hold_cycles = rtl.schedule.n_steps + 2 * n_states + 2
        self.hold_cycles = hold_cycles
        self.scenarios = make_scenarios(rtl, iteration_counts, hold_cycles)

    @cached_property
    def _golden(
        self,
    ) -> list[tuple[Scenario, ControlTrace, ValueTable, ReplayResult, GoldenTimeline]]:
        """Per-scenario golden trace, value table, replay and timeline.

        Built on first use, so a run whose classifications all replay
        from the store never simulates the controller."""
        golden = []
        for sc in self.scenarios:
            trace = golden_control_trace(self.ctrl, sc)
            table = ValueTable()
            greplay = replay(self.rtl, trace, table)
            timeline = GoldenTimeline(self.rtl, trace, greplay)
            golden.append((sc, trace, table, greplay, timeline))
        return golden

    @cached_property
    def _golden_values(self) -> list[np.ndarray]:
        """The golden traces as ``(n_cycles, n_lines, 1)`` int8 columns."""
        return [
            trace_values(self.ctrl, trace)[:, :, None] for _sc, trace, *_ in self._golden
        ]

    def _cond_mismatch(
        self, sc: Scenario, greplay: ReplayResult, freplay: ReplayResult
    ) -> set[int]:
        """Cycles at which the comparator-corruption blind spot may bite.

        The faulty controller was simulated under the fault-free ``cond``
        waveform.  If the faulty *datapath* would drive different
        comparator values at non-decision cycles (e.g. an extra load
        corrupting the comparator's operand register during HOLD), that
        assumption may be wrong: a faulty controller could sample ``cond``
        anywhere.  The returned cycles are probed by rerunning the faulty
        controller with ``cond`` inverted at exactly those cycles; any
        behavioural difference means the control flow can diverge on real
        silicon -> conservative SFI.
        """
        if not self.rtl.cond_fu:
            return set()
        decision = {c for c, _ in greplay.cond_decisions}
        return {
            cycle
            for cycle in range(1, sc.n_cycles)
            if cycle not in decision
            and greplay.fu_history[cycle].get(self.rtl.cond_fu)
            != freplay.fu_history[cycle].get(self.rtl.cond_fu)
        }

    def _tail_is_periodic(self, ftrace: ControlTrace) -> bool:
        """True if the faulty control-word stream has settled into a cycle
        of period <= the state count by the end of the scenario.  A stream
        that is still aperiodic could corrupt an output arbitrarily late,
        so an SFR verdict is only sound for periodic tails."""
        words = [
            tuple(sorted(ftrace.lines[c].items()))
            for c in range(ftrace.scenario.n_cycles - 2 * self._n_states,
                           ftrace.scenario.n_cycles)
            if c >= 0
        ]
        for period in range(1, self._n_states + 1):
            if len(words) < 2 * period:
                break
            tail = words[-2 * period:]
            if tail[:period] == tail[period:]:
                return True
        return False

    def classify(self, fault: FaultSite) -> FaultClassification:
        return self.classify_all([fault])[0]

    def classify_all(
        self,
        faults: list[FaultSite],
        audit: dict[FaultSite, str] | None = None,
        guard: IntegrityGuard | None = None,
    ) -> list[FaultClassification]:
        """Classify every fault with one controller simulation per scenario.

        Each distinct fault owns one word of the pattern axis
        (:func:`~repro.core.effects.faulty_control_values`); the control
        planes of all faults are diffed against golden in numpy, and only
        faults with a control-line effect reach the RT-level oracle.  The
        ``cond``-sensitivity probes of one scenario run as one more batched
        simulation with per-fault ``cond`` words.

        ``audit`` maps faults to report keys: each one's traces (and
        probes) are re-derived on the per-fault oracle
        :func:`~repro.core.effects.faulty_control_trace`, and a mismatch is
        flagged on ``guard`` (which aborts when strict; without a guard
        the first mismatch raises).  Results follow
        the order of ``faults``; duplicates share one classification.
        """
        unique = list(dict.fromkeys(faults))
        if not unique:
            return []
        audit = audit or {}
        if guard is None:
            guard = IntegrityGuard(strict=True)
        states = [_FaultState() for _ in unique]
        for (sc, gtrace, table, greplay, timeline), gvalues in zip(
            self._golden, self._golden_values
        ):
            values = faulty_control_values(self.ctrl, sc, unique)
            self._audit(sc, unique, values, audit, guard)
            # Cycle 0 and golden-X lines are never compared (diff_traces).
            care = gvalues >= 0
            care[0] = False
            differs = ((values != gvalues) & care).any(axis=(0, 1))
            probes: list[tuple[int, set[int]]] = []
            traces: dict[int, ControlTrace] = {}
            for i in np.flatnonzero(differs).tolist():
                state = states[i]
                ftrace = traces[i] = trace_from_values(self.ctrl, sc, values[:, :, i])
                effects = diff_traces(gtrace, ftrace)
                state.any_effect = True
                freplay = replay(self.rtl, ftrace, table)
                cmp = compare_replays(greplay, freplay)
                if not cmp.equivalent:
                    state.refute(f"{cmp.reason} ({sc.iterations} iteration(s))")
                elif state.equivalent:
                    mismatch = self._cond_mismatch(sc, greplay, freplay)
                    if mismatch:
                        probes.append((i, mismatch))
                    elif not self._tail_is_periodic(ftrace):
                        state.refute("faulty control stream not periodic at scenario end")
                state.effects.extend(
                    label_effects(self.rtl, timeline, ftrace, freplay, effects)
                )
            if not probes:
                continue
            probed = [unique[i] for i, _ in probes]
            flips = [mismatch for _, mismatch in probes]
            pvalues = faulty_control_values(self.ctrl, sc, probed, cond_flips=flips)
            self._audit(sc, probed, pvalues, audit, guard, flips)
            for j, (i, _) in enumerate(probes):
                if not np.array_equal(pvalues[:, :, j], values[:, :, i]):
                    states[i].refute(
                        "comparator corrupted and faulty controller is cond-sensitive"
                    )
                elif not self._tail_is_periodic(traces[i]):
                    states[i].refute("faulty control stream not periodic at scenario end")
        by_fault = {f: st.result(f) for f, st in zip(unique, states)}
        return [by_fault[f] for f in faults]

    def _audit(
        self,
        sc: Scenario,
        faults: list[FaultSite],
        values: np.ndarray,
        audit: dict[FaultSite, str],
        guard: IntegrityGuard,
        cond_flips: list[set[int]] | None = None,
    ) -> None:
        """Re-derive the audited faults' traces on the per-fault oracle."""
        for i, fault in enumerate(faults):
            key = audit.get(fault)
            if key is None:
                continue
            flips = cond_flips[i] if cond_flips is not None else None
            oracle = trace_values(
                self.ctrl, faulty_control_trace(self.ctrl, sc, fault, cond_flips=flips)
            )
            if np.array_equal(oracle, values[:, :, i]):
                continue
            cycle = int(np.flatnonzero((oracle != values[:, :, i]).any(axis=1))[0])
            guard.flag(
                IntegrityViolation(
                    check="classify-trace-differential",
                    fault=key,
                    site=fault.describe(self.ctrl.netlist),
                    detail=(
                        f"batched control trace ({sc.iterations} iteration(s)"
                        f"{', cond probe' if flips else ''}) diverges from the "
                        f"per-fault oracle"
                    ),
                    cycle=cycle,
                    expected=str(oracle[cycle].tolist()),
                    actual=str(values[cycle, :, i].tolist()),
                )
            )


@dataclass
class _FaultState:
    """Running verdict of one fault across the classifier's scenarios."""

    any_effect: bool = False
    equivalent: bool = True
    reason: str = ""
    effects: list[LabeledEffect] = field(default_factory=list)

    def refute(self, reason: str) -> None:
        """Mark the fault SFI; the first reason found is the one reported."""
        self.equivalent = False
        self.reason = self.reason or reason

    def result(self, fault: FaultSite) -> FaultClassification:
        if not self.any_effect:
            return FaultClassification(
                fault, "CFR", [], "no control line effect in any scenario"
            )
        if self.equivalent:
            return FaultClassification(
                fault,
                "SFR",
                self.effects,
                "all observed outputs and loop decisions match fault-free",
            )
        return FaultClassification(fault, "SFI", self.effects, self.reason)
