"""Section-3 classification of controller faults: CFR / SFR / SFI.

Combines three ingredients:

* :mod:`repro.core.effects` -- the control line effects a fault causes;
* a golden timeline (which registers load / are read each cycle, which
  muxes are active) derived from the fault-free control trace;
* symbolic replay with value numbering (:mod:`repro.core.symbolic`).

The *verdict* (SFR vs SFI) comes from the replay -- value-number equality
of every observed output and loop decision.  The *labels* attached to each
control line effect implement the paper's taxonomy (select change in an
active/inactive step; skipped load; extra load that is idle, overwritten,
a harmless rewrite, or garbage-disruptive) and are what Table 1 prints.

:meth:`Classifier.classify_all` simulates the controller once per
scenario for every fault, then replays every fault with a control line
effect, in every scenario, together with each scenario's golden stream,
in one array pass (:func:`~repro.core.arrayreplay.replay_rows`).  The
verdict and reason, the ``cond`` probe cycles, tail periodicity and the
inputs of :func:`effect_labels` are all read off that pass's arrays; no
per-fault trace or replay is built.  The per-fault path
(:func:`~repro.core.effects.faulty_control_trace`,
:func:`~repro.core.symbolic.replay`,
:func:`~repro.core.symbolic.compare_replays`, :func:`label_effects`) is
the oracle: audited faults are re-classified on it, and a difference is a
``classify-replay-differential`` integrity violation.
"""

from __future__ import annotations

import enum
from collections.abc import Container
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..hls.rtl import HOLD_STATE, MuxSpec, RTLDesign, cs_state
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
    trace_values,
)
from .arrayreplay import replay_rows
from .integrity import IntegrityGuard, IntegrityViolation
from .symbolic import ReplayResult, ValueTable, compare_replays, replay, select_code


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
        #: muxes whose output is consumed (their selects "care") per cycle
        self.active: list[set[str]] = [set() for _ in range(n)]
        self._mux_index: list[dict[str, int]] = [dict() for _ in range(n)]
        #: the mux each select line drives
        self.sel_mux: dict[str, MuxSpec] = {}
        for mux in rtl.all_muxes():
            for sel in mux.sel_names:
                self.sel_mux.setdefault(sel, mux)
        decision_state = cs_state(rtl.schedule.n_steps)
        out_regs = set(rtl.outputs.values())

        for c in range(1, n):
            controls = trace.lines[c]
            state = trace.scenario.golden_state(c)
            for mux in rtl.all_muxes():
                idx = select_code(mux, controls)
                if idx >= 0:
                    self._mux_index[c][mux.name] = idx if idx < len(mux.sources) else 0
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
            self.active[c] = {r.input_mux.name for r in loading}
            # Which registers those FUs read.
            for f in rtl.fus:
                if f.name not in consumed:
                    continue
                for mux in (f.mux_a, f.mux_b):
                    self.active[c].add(mux.name)
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

    def mux_active(self, mux_name: str, cycle: int) -> bool:
        """Is the mux's output consumed this cycle (its selects "care")?"""
        return mux_name in self.active[cycle]

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


def effect_labels(
    rtl: RTLDesign,
    timeline: GoldenTimeline,
    eff: ControlLineEffect,
    faulty_code: int,
    rewritten: Container[str],
) -> list[LabeledEffect]:
    """The Section-3 taxonomy labels of one control line effect.

    ``faulty_code`` is the select code the faulty machine drives on the
    effect's mux that cycle (-1 if any bit is X; unused for load lines);
    ``rewritten`` names the registers on a load line whose faulty content
    after the cycle is the fault-free one."""
    if eff.faulty == -1:
        return [LabeledEffect(eff, EffectLabel.UNKNOWN_CONTROL)]
    mux = timeline.sel_mux.get(eff.line)
    if mux is not None:
        if not timeline.mux_active(mux.name, eff.cycle):
            return [LabeledEffect(eff, EffectLabel.SELECT_INACTIVE)]
        # Active: disruptive unless padding aliases to the same source.
        golden_code = select_code(mux, timeline.trace.lines[eff.cycle])
        if (
            golden_code >= 0
            and faulty_code >= 0
            and _padded_source(mux, golden_code) == _padded_source(mux, faulty_code)
        ):
            return [LabeledEffect(eff, EffectLabel.SELECT_ACTIVE_ALIASED)]
        return [LabeledEffect(eff, EffectLabel.SELECT_ACTIVE)]
    # Load line effect: applies to every register on the line.
    labeled: list[LabeledEffect] = []
    for reg in rtl.regs_on_line[eff.line]:
        c = eff.cycle
        if eff.golden == 1:
            label = EffectLabel.LOAD_SKIPPED
        elif not timeline.register_live(reg, c):
            label = EffectLabel.EXTRA_LOAD_IDLE
        elif reg in rewritten:
            label = EffectLabel.EXTRA_LOAD_REWRITE
        else:
            nread = timeline.next_read(reg, c)
            nload = timeline.next_load(reg, c)
            if nread is None or (nload is not None and nload < nread):
                label = EffectLabel.EXTRA_LOAD_OVERWRITTEN
            else:
                label = EffectLabel.EXTRA_LOAD_DISRUPTIVE
        labeled.append(LabeledEffect(eff, label, register=reg))
    return labeled


def label_effects(
    rtl: RTLDesign,
    timeline: GoldenTimeline,
    faulty_trace: ControlTrace,
    faulty_replay: ReplayResult,
    effects: list[ControlLineEffect],
) -> list[LabeledEffect]:
    """Attach the Section-3 taxonomy label to every control line effect
    of one faulty trace and its replay."""
    golden_hist = timeline.replay.reg_history
    faulty_hist = faulty_replay.reg_history
    labeled: list[LabeledEffect] = []
    for eff in effects:
        c = eff.cycle
        faulty_code = -1
        rewritten: set[str] = set()
        if eff.line in timeline.sel_mux:
            faulty_code = select_code(timeline.sel_mux[eff.line], faulty_trace.lines[c])
        elif c + 1 < len(golden_hist) and c + 1 < len(faulty_hist):
            rewritten = {
                reg
                for reg in rtl.regs_on_line[eff.line]
                if golden_hist[c + 1][reg] == faulty_hist[c + 1][reg]
            }
        labeled.extend(effect_labels(rtl, timeline, eff, faulty_code, rewritten))
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
        #: labels of one effect, keyed by (scenario, cycle, line, faulty
        #: value, faulty select code or rewritten-register bits)
        self._label_memo: dict[tuple, list[LabeledEffect]] = {}

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

    @cached_property
    def _lines(self) -> _LineTable:
        return _LineTable(self.rtl, list(self.ctrl.output_nets))

    def _decisions(self, sc: Scenario) -> list[int]:
        """The fault-free loop decision cycles of a scenario."""
        if not self.rtl.cond_fu:
            return []
        decision = cs_state(self.rtl.schedule.n_steps)
        return [c for c in range(sc.n_cycles) if sc.golden_state(c) == decision]

    def _cond_mismatch(
        self, sc: Scenario, golden: np.ndarray, faulty: np.ndarray
    ) -> np.ndarray:
        """Cycles at which the comparator-corruption blind spot may bite.

        ``golden`` holds the cond FU's value numbers per cycle of the
        fault-free replay, ``faulty`` those of faulty replays, one column
        each; the result is a ``(n_cycles, columns)`` mask.

        The faulty controller was simulated under the fault-free ``cond``
        waveform.  If the faulty *datapath* would drive different
        comparator values at non-decision cycles (e.g. an extra load
        corrupting the comparator's operand register during HOLD), that
        assumption may be wrong: a faulty controller could sample ``cond``
        anywhere.  The masked cycles are probed by rerunning the faulty
        controller with ``cond`` inverted at exactly those cycles; any
        behavioural difference means the control flow can diverge on real
        silicon -> conservative SFI.
        """
        if not self.rtl.cond_fu:
            return np.zeros(faulty.shape, dtype=bool)
        mask = faulty != golden[:, None]
        mask[0] = False
        mask[self._decisions(sc)] = False
        return mask

    def _tail_is_periodic(self, values: np.ndarray) -> np.ndarray:
        """Per column of ``(n_cycles, n_lines, columns)`` control values:
        True if the faulty control-word stream has settled into a cycle of
        period <= the state count by the end of the scenario.  A stream
        that is still aperiodic could corrupt an output arbitrarily late,
        so an SFR verdict is only sound for periodic tails."""
        words = values[-2 * self._n_states:]
        periodic = np.zeros(values.shape[2], dtype=bool)
        for period in range(1, self._n_states + 1):
            if len(words) < 2 * period:
                break
            tail = words[-2 * period:]
            periodic |= (tail[:period] == tail[period:]).all(axis=(0, 1))
        return periodic

    def classify(self, fault: FaultSite) -> FaultClassification:
        return self.classify_all([fault])[0]

    def classify_all(
        self,
        faults: list[FaultSite],
        audit: dict[FaultSite, str] | None = None,
        guard: IntegrityGuard | None = None,
    ) -> list[FaultClassification]:
        """Classify every fault with one controller simulation per scenario
        and one symbolic replay of all of them.

        Each distinct fault owns one word of the pattern axis
        (:func:`~repro.core.effects.faulty_control_values`); the control
        planes of all faults are diffed against golden in numpy.  Every
        fault with a control-line effect, in every scenario, is then
        replayed in one array pass together with each scenario's golden
        stream (:func:`~repro.core.arrayreplay.replay_rows`), and the
        verdicts, probe cycles and effect labels are read off its arrays.
        The ``cond``-sensitivity probes of one scenario run as one more
        batched simulation with per-fault ``cond`` words.

        ``audit`` maps faults to report keys: each one's traces (and
        probes) are re-derived on the per-fault oracle
        :func:`~repro.core.effects.faulty_control_trace`, and the fault is
        re-classified on the per-fault replay path (:func:`~repro.core.
        symbolic.replay`, :func:`label_effects`).  A mismatch is flagged
        on ``guard`` (which aborts when strict; without a guard the first
        mismatch raises).  Results follow the order of ``faults``;
        duplicates share one classification.
        """
        unique = list(dict.fromkeys(faults))
        if not unique:
            return []
        audit = audit or {}
        if guard is None:
            guard = IntegrityGuard(strict=True)
        oracle = _OracleTraces(self.ctrl)
        values: list[np.ndarray] = []
        rows: list[np.ndarray] = []
        for s, ((sc, *_), gvalues) in enumerate(zip(self._golden, self._golden_values)):
            v = faulty_control_values(self.ctrl, sc, unique)
            self._audit(s, unique, v, audit, guard, oracle)
            # Cycle 0 and golden-X lines are never compared (diff_traces).
            care = gvalues >= 0
            care[0] = False
            values.append(v)
            rows.append(np.flatnonzero(((v != gvalues) & care).any(axis=(0, 1))))
        states = [_FaultState() for _ in unique]
        for s, block in enumerate(self._replay(values, rows)):
            if block is not None:
                self._judge(s, unique, values[s], rows[s], block, states, audit, guard, oracle)
        by_fault = {f: st.result(f) for f, st in zip(unique, states)}
        for fault in unique:
            if fault in audit:
                self._audit_replay(fault, audit[fault], by_fault[fault], oracle, guard)
        return [by_fault[f] for f in faults]

    def _replay(
        self, values: list[np.ndarray], rows: list[np.ndarray]
    ) -> list[_ReplayBlock | None]:
        """One array replay of every scenario's golden stream and its
        effect-bearing faults; per scenario, the block of that scenario's
        columns (golden first), or None when no fault has an effect."""
        if not any(r.size for r in rows):
            return [None] * len(rows)
        lengths = [sc.n_cycles for sc in self.scenarios]
        # Longest scenario first: the rows alive at a cycle form a prefix.
        order = sorted(range(len(rows)), key=lambda s: -lengths[s])
        width = [1 + rows[s].size for s in range(len(rows))]
        start = dict(zip(order, np.cumsum([0] + [width[s] for s in order]).tolist()))
        n_rows = sum(width)
        stacked = np.zeros((max(lengths), values[0].shape[1], n_rows), dtype=np.int8)
        row_lengths = np.empty(n_rows, dtype=np.int64)
        for s, gvalues in enumerate(self._golden_values):
            n, cols = lengths[s], slice(start[s], start[s] + width[s])
            stacked[:n, :, start[s]] = gvalues[:, :, 0]
            stacked[:n, :, start[s] + 1:cols.stop] = values[s][:, :, rows[s]]
            row_lengths[cols] = n
        result = replay_rows(
            self.rtl, self._lines.names, stacked, row_lengths, ValueTable()
        )
        blocks: list[_ReplayBlock | None] = []
        for s, n in enumerate(lengths):
            cols = slice(start[s], start[s] + width[s])
            blocks.append(
                _ReplayBlock(
                    values=stacked[:n, :, cols],
                    reg_hist=result.reg_hist[:n, :, cols],
                    cond=None if result.cond is None else result.cond[:n, cols],
                )
                if rows[s].size
                else None
            )
        return blocks

    def _judge(
        self,
        s: int,
        unique: list[FaultSite],
        values: np.ndarray,
        rows: np.ndarray,
        block: _ReplayBlock,
        states: list[_FaultState],
        audit: dict[FaultSite, str],
        guard: IntegrityGuard,
        oracle: _OracleTraces,
    ) -> None:
        """Scenario ``s``'s verdicts, probes and labels for its effect rows."""
        sc = self.scenarios[s]
        reasons = self._verdicts(sc, block)
        mismatch = (
            self._cond_mismatch(sc, block.cond[:, 0], block.cond[:, 1:])
            if block.cond is not None
            else None
        )
        periodic = self._tail_is_periodic(block.values[:, :, 1:])
        labels = self._labels(s, block)
        probes: list[tuple[int, int, set[int]]] = []
        for j, i in enumerate(rows.tolist()):
            state = states[i]
            state.any_effect = True
            if reasons[j] is not None:
                state.refute(f"{reasons[j]} ({sc.iterations} iteration(s))")
            elif state.equivalent:
                flips = [] if mismatch is None else np.flatnonzero(mismatch[:, j]).tolist()
                if flips:
                    probes.append((i, j, set(flips)))
                elif not periodic[j]:
                    state.refute("faulty control stream not periodic at scenario end")
            state.effects.extend(labels[j])
        if not probes:
            return
        probed = [unique[i] for i, _, _ in probes]
        flips = [cycles for _, _, cycles in probes]
        pvalues = faulty_control_values(self.ctrl, sc, probed, cond_flips=flips)
        self._audit(s, probed, pvalues, audit, guard, oracle, flips)
        for p, (i, j, _) in enumerate(probes):
            if not np.array_equal(pvalues[:, :, p], values[:, :, i]):
                states[i].refute(
                    "comparator corrupted and faulty controller is cond-sensitive"
                )
            elif not periodic[j]:
                states[i].refute("faulty control stream not periodic at scenario end")

    def _verdicts(self, sc: Scenario, block: _ReplayBlock) -> list[str | None]:
        """Per effect row, :func:`~repro.core.symbolic.compare_replays`'
        reason against the golden column, or None when equivalent: the
        first differing loop decision, else the first differing HOLD
        sample with its differing ports."""
        decisions = self._decisions(sc)
        holds = [c for c in range(sc.n_cycles) if sc.golden_state(c) == HOLD_STATE]
        ports = list(self.rtl.outputs)
        out = block.reg_hist[holds][:, self._lines.output_regs]  # (holds, ports, cols)
        out_bad = out[:, :, 1:] != out[:, :, :1]
        bad = out_bad.any(axis=(0, 1))
        if decisions:
            cond = block.cond[decisions]
            cond_bad = cond[:, 1:] != cond[:, :1]
            bad |= cond_bad.any(axis=0)
        reasons: list[str | None] = [None] * bad.size
        for j in np.flatnonzero(bad).tolist():
            if decisions and cond_bad[:, j].any():
                cycle = decisions[int(np.argmax(cond_bad[:, j]))]
                reasons[j] = f"loop condition differs at cycle {cycle}"
                continue
            h = int(np.argmax(out_bad[:, :, j].any(axis=1)))
            differ = sorted(p for p, d in zip(ports, out_bad[h, :, j].tolist()) if d)
            reasons[j] = f"output {differ} differs at cycle {holds[h]}"
        return reasons

    def _labels(self, s: int, block: _ReplayBlock) -> list[list[LabeledEffect]]:
        """Every effect row's labelled control line effects, in
        :func:`~repro.core.effects.diff_traces` order."""
        sc, _trace, _table, _greplay, timeline = self._golden[s]
        lines = self._lines
        values, hist = block.values, block.reg_hist
        n = values.shape[0]
        golden = values[:, :, 0]
        differs = (values[1:, :, 1:] != golden[1:, :, None]) & (golden[1:, :, None] >= 0)
        row, cycle, line = np.nonzero(differs.transpose(2, 0, 1))
        cycle += 1
        col = row + 1
        faulty = values[cycle, line, col]
        # The faulty select code of a select-line effect's mux (-1 == X).
        bits = values[cycle[:, None], lines.sel[line], col[:, None]]
        used = lines.sel_used[line]
        code = (np.where(used, np.maximum(bits, 0), 0).astype(np.int64)
                << np.arange(bits.shape[1])).sum(axis=1)
        code[(used & (bits < 0)).any(axis=1)] = -1
        # The registers of a load-line effect whose faulty content after
        # the cycle equals the fault-free content.
        after = np.minimum(cycle + 1, n - 1)[:, None]
        regs = lines.regs[line]
        same = (
            (hist[after, regs, col[:, None]] == hist[after, regs, 0])
            & lines.regs_used[line]
            & (cycle + 1 < n)[:, None]
        )
        rewritten = (same.astype(np.int64) << np.arange(same.shape[1])).sum(axis=1)
        extra = np.where(lines.is_sel[line], code, rewritten)

        out: list[list[LabeledEffect]] = [[] for _ in range(values.shape[2] - 1)]
        memo = self._label_memo
        for r, c, l, f, x in zip(
            row.tolist(), cycle.tolist(), line.tolist(), faulty.tolist(), extra.tolist()
        ):
            key = (s, c, l, f, x)
            labeled = memo.get(key)
            if labeled is None:
                name = lines.names[l]
                eff = ControlLineEffect(
                    cycle=c, state=sc.golden_state(c), line=name,
                    golden=int(golden[c, l]), faulty=f,
                )
                on_line = self.rtl.regs_on_line.get(name, [])
                labeled = memo[key] = effect_labels(
                    self.rtl, timeline, eff, x if lines.is_sel[l] else -1,
                    {reg for b, reg in enumerate(on_line) if x >> b & 1},
                )
            out[r].extend(labeled)
        return out

    def _oracle_classification(
        self, fault: FaultSite, oracle: _OracleTraces
    ) -> FaultClassification:
        """``fault`` classified one scenario at a time on the per-fault
        path: oracle traces, :func:`~repro.core.symbolic.replay`,
        :func:`~repro.core.symbolic.compare_replays` and
        :func:`label_effects`."""
        state = _FaultState()
        for s, (sc, gtrace, table, greplay, timeline) in enumerate(self._golden):
            ftrace = oracle.get(s, sc, fault)
            effects = diff_traces(gtrace, ftrace)
            if not effects:
                continue
            state.any_effect = True
            freplay = replay(self.rtl, ftrace, table)
            cmp = compare_replays(greplay, freplay)
            if not cmp.equivalent:
                state.refute(f"{cmp.reason} ({sc.iterations} iteration(s))")
            elif state.equivalent:
                golden, faulty = (
                    np.array([h.get(self.rtl.cond_fu, -1) for h in r.fu_history])
                    for r in (greplay, freplay)
                )
                mismatch = self._cond_mismatch(sc, golden, faulty[:, None])[:, 0]
                flips = set(np.flatnonzero(mismatch).tolist())
                if flips and oracle.get(s, sc, fault, flips).lines != ftrace.lines:
                    state.refute(
                        "comparator corrupted and faulty controller is cond-sensitive"
                    )
                elif not self._tail_is_periodic(trace_values(self.ctrl, ftrace)[:, :, None])[0]:
                    state.refute("faulty control stream not periodic at scenario end")
            state.effects.extend(label_effects(self.rtl, timeline, ftrace, freplay, effects))
        return state.result(fault)

    def _audit(
        self,
        s: int,
        faults: list[FaultSite],
        values: np.ndarray,
        audit: dict[FaultSite, str],
        guard: IntegrityGuard,
        oracle: _OracleTraces,
        cond_flips: list[set[int]] | None = None,
    ) -> None:
        """Re-derive the audited faults' traces on the per-fault oracle."""
        sc = self.scenarios[s]
        for i, fault in enumerate(faults):
            key = audit.get(fault)
            if key is None:
                continue
            flips = cond_flips[i] if cond_flips is not None else None
            expected = trace_values(self.ctrl, oracle.get(s, sc, fault, flips))
            if np.array_equal(expected, values[:, :, i]):
                continue
            cycle = int(np.flatnonzero((expected != values[:, :, i]).any(axis=1))[0])
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
                    expected=str(expected[cycle].tolist()),
                    actual=str(values[cycle, :, i].tolist()),
                )
            )

    def _audit_replay(
        self,
        fault: FaultSite,
        key: str,
        got: FaultClassification,
        oracle: _OracleTraces,
        guard: IntegrityGuard,
    ) -> None:
        """Re-classify an audited fault on the per-fault replay path."""
        want = self._oracle_classification(fault, oracle)
        if (want.category, want.reason, want.effects) == (got.category, got.reason, got.effects):
            return
        first = next(
            (a.effect.cycle for a, b in zip(want.effects, got.effects) if a != b),
            -1,
        )
        guard.flag(
            IntegrityViolation(
                check=REPLAY_DIFFERENTIAL_CHECK,
                fault=key,
                site=fault.describe(self.ctrl.netlist),
                detail="array-replay classification differs from the per-fault replay oracle",
                cycle=first,
                expected=_summary(want),
                actual=_summary(got),
            )
        )


#: check id of an audited classification that the array replay and the
#: per-fault replay oracle disagree on
REPLAY_DIFFERENTIAL_CHECK = "classify-replay-differential"


def _summary(c: FaultClassification) -> str:
    return f"{c.category} ({c.reason}), {len(c.effects)} labelled effect(s)"


class _OracleTraces:
    """The per-fault oracle traces of one ``classify_all`` call, each
    simulated once: the trace audit and the replay audit share them."""

    def __init__(self, ctrl: SynthesizedController):
        self.ctrl = ctrl
        self._traces: dict[tuple, ControlTrace] = {}

    def get(
        self, s: int, sc: Scenario, fault: FaultSite, flips: set[int] | None = None
    ) -> ControlTrace:
        key = (s, fault, frozenset(flips or ()))
        trace = self._traces.get(key)
        if trace is None:
            trace = self._traces[key] = faulty_control_trace(
                self.ctrl, sc, fault, cond_flips=flips or None
            )
        return trace


@dataclass
class _ReplayBlock:
    """One scenario's columns of the array replay, the golden stream first."""

    values: np.ndarray  # (n_cycles, n_lines, columns) control values
    reg_hist: np.ndarray  # (n_cycles, n_registers, columns)
    cond: np.ndarray | None  # (n_cycles, columns) cond FU values


class _LineTable:
    """Per control line (in controller output order), what labelling
    reads: a select line's mux select lines, a load line's registers."""

    def __init__(self, rtl: RTLDesign, names: list[str]):
        self.names = names
        index = {name: i for i, name in enumerate(names)}
        reg_index = {r.name: i for i, r in enumerate(rtl.registers)}
        self.output_regs = [reg_index[reg] for reg in rtl.outputs.values()]
        self.is_sel = np.array([name in rtl.sel_lines for name in names], dtype=bool)
        sel = [
            [index[b] for b in rtl.mux_of_sel(name).sel_names] if sel else []
            for name, sel in zip(names, self.is_sel)
        ]
        regs = [
            [] if sel else [reg_index[r] for r in rtl.regs_on_line[name]]
            for name, sel in zip(names, self.is_sel)
        ]
        self.sel, self.sel_used = _pad(sel)
        self.regs, self.regs_used = _pad(regs)


def _pad(lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Ragged index lists as a 0-padded array and its used-entry mask."""
    width = max(map(len, lists), default=0)
    padded = np.zeros((len(lists), width), dtype=np.int64)
    used = np.zeros((len(lists), width), dtype=bool)
    for i, row in enumerate(lists):
        padded[i, : len(row)] = row
        used[i, : len(row)] = True
    return padded, used


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
