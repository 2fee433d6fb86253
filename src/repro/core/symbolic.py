"""Exact SFR/SFI oracle: RT-level symbolic replay with value numbering.

Section 3 of the paper decides whether a control line effect disrupts the
datapath computation by tracing "the specific data involved ... at the
register transfer level".  This module mechanises that trace: it replays
the RTL schedule under a (golden or faulty) control trace, assigning
hash-consed *value numbers* to every register content --

* primary inputs and constants get named values;
* each FU application gets ``op(kind, a, b)`` with commutative operand
  canonicalisation;
* uninitialised registers hold ``uninit(reg)`` (the machine's power-up
  value: identical between the faulty and fault-free runs of the same
  silicon);
* anything unknowable (an X select or X load) gets a fresh *garbage*
  number -- reading it can never compare equal, which is exactly the
  paper's "the read references the garbage data, hence disruptive" rule.

A fault is system-functionally redundant (SFR) iff, in every scenario, the
faulty replay produces the same output value numbers at every fault-free
HOLD sample *and* the same comparator value numbers at every loop decision
(otherwise the control flow itself diverges).  Value-number equality
implies true value equality, so an SFR verdict is sound; inequality is
conservative (the paper's analysis makes the same choice).

:func:`replay` runs one trace at a time over dicts; it is the per-fault
oracle.  The classifier's product path replays every effect-bearing fault
of a design at once over arrays (:mod:`repro.core.arrayreplay`), drawing
its numbers from the same :class:`ValueTable` interface
(:meth:`ValueTable.op_ids`, :meth:`ValueTable.garbage_ids`); the
classifier re-runs sampled faults through :func:`replay` to check it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hls.dfg import COMMUTATIVE, OpKind
from ..hls.rtl import HOLD_STATE, MuxSpec, RTLDesign, cs_state
from .effects import ControlTrace


#: :meth:`ValueTable.op_ids` packs a value number into this many bits.
_ID_BITS = 28
_ID_MASK = (1 << _ID_BITS) - 1


class ValueTable:
    """Hash-consed value numbers shared between replays under comparison."""

    def __init__(self):
        self._intern: dict[tuple, int] = {}
        self._next = 0

    def _get(self, key: tuple) -> int:
        vid = self._intern.get(key)
        if vid is None:
            vid = self._intern[key] = self._next
            self._next += 1
        return vid

    def input(self, name: str) -> int:
        return self._get(("in", name))

    def const(self, name: str) -> int:
        return self._get(("const", name))

    def uninit(self, reg: str) -> int:
        return self._get(("uninit", reg))

    def op(self, kind: OpKind, a: int, b: int) -> int:
        if kind in COMMUTATIVE and b < a:
            a, b = b, a
        return self._get(("op", kind.value, a, b))

    def op_ids(self, kinds: list[OpKind], a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """:meth:`op` over arrays: row ``j`` of ``a`` and ``b`` feeds
        ``kinds[j]``.  Each distinct ``(kind, a, b)`` is interned once."""
        if self._next > _ID_MASK:
            raise OverflowError("value table outgrew op_ids' packed keys")
        comm = np.array([k in COMMUTATIVE for k in kinds])[:, None]
        swap = comm & (b < a)
        lo, hi = np.where(swap, b, a), np.where(swap, a, b)
        distinct = list(dict.fromkeys(kinds))
        code = np.array([distinct.index(k) for k in kinds], dtype=np.int64)[:, None]
        keys = (code << (2 * _ID_BITS)) | (lo << _ID_BITS) | hi
        uniq, inverse = np.unique(keys, return_inverse=True)
        ids = np.array(
            [
                self._get(
                    ("op", distinct[k >> 2 * _ID_BITS].value, (k >> _ID_BITS) & _ID_MASK,
                     k & _ID_MASK)
                )
                for k in uniq.tolist()
            ],
            dtype=np.int64,
        )
        return ids[inverse].reshape(a.shape)

    def garbage(self) -> int:
        """A fresh number, equal to no other."""
        self._next += 1
        return self._next - 1

    def garbage_ids(self, n: int) -> np.ndarray:
        """``n`` fresh numbers at once."""
        self._next += n
        return np.arange(self._next - n, self._next, dtype=np.int64)


@dataclass
class ReplayResult:
    """Everything a replay observed."""

    #: (cycle, {port: value id}) at every fault-free HOLD sample point.
    output_samples: list[tuple[int, dict[str, int]]] = field(default_factory=list)
    #: (cycle, comparator value id) at every loop decision point.
    cond_decisions: list[tuple[int, int]] = field(default_factory=list)
    #: register contents at the *start* of each cycle.
    reg_history: list[dict[str, int]] = field(default_factory=list)
    #: FU output value ids per cycle.
    fu_history: list[dict[str, int]] = field(default_factory=list)
    #: True if any X control value forced a conservative garbage value.
    saw_unknown_control: bool = False


def select_code(mux: MuxSpec, controls: dict[str, int]) -> int:
    """Selected source index, or -1 if any select bit is X."""
    index = 0
    for bit, name in enumerate(mux.sel_names):
        val = controls[name]
        if val == -1:
            return -1
        index |= val << bit
    return index


def replay(rtl: RTLDesign, trace: ControlTrace, table: ValueTable) -> ReplayResult:
    """Symbolically execute the RTL under a control trace.

    The trace's scenario defines the fault-free timeline (which cycles are
    HOLD samples and loop decisions); the trace's line values define what
    the possibly-faulty controller actually drove.
    """
    result = ReplayResult()
    regs: dict[str, int] = {r.name: table.uninit(r.name) for r in rtl.registers}
    const_ids = {name: table.const(name) for name in rtl.dfg.constants}
    input_ids = {name: table.input(name) for name in rtl.dfg.inputs}
    decision_state = cs_state(rtl.schedule.n_steps)

    def mux_value(mux: MuxSpec, controls: dict[str, int], fu_vals: dict[str, int]) -> int:
        def source_id(src) -> int:
            if src.kind == "reg":
                return regs[src.ref]
            if src.kind == "const":
                return const_ids[src.ref]
            if src.kind == "input":
                return input_ids[src.ref]
            return fu_vals[src.ref]

        if len(mux.sources) == 1:
            return source_id(mux.sources[0])
        index = select_code(mux, controls)
        if index >= 0:
            # Select codes past the last source alias source 0 (padding).
            return source_id(mux.sources[index if index < len(mux.sources) else 0])
        padded = list(mux.sources) + [mux.sources[0]] * (
            (1 << mux.n_sel_bits) - len(mux.sources)
        )
        ids = {source_id(s) for s in padded}
        if len(ids) == 1:
            return ids.pop()
        result.saw_unknown_control = True
        return table.garbage()

    scenario = trace.scenario
    # Cycle 0 is the reset-assertion cycle: the fault-free control word is
    # X (the state register is uninitialised), and whatever a machine loads
    # there is power-up junk on top of power-up junk.  Replay starts at
    # cycle 1; registers simply stay at their uninit values through cycle 0.
    result.reg_history.append(dict(regs))
    result.fu_history.append({})
    for cycle in range(1, scenario.n_cycles):
        controls = trace.lines[cycle]
        state = scenario.golden_state(cycle)
        result.reg_history.append(dict(regs))
        if state == HOLD_STATE:
            result.output_samples.append(
                (cycle, {port: regs[reg] for port, reg in rtl.outputs.items()})
            )

        fu_vals: dict[str, int] = {}
        for f in rtl.fus:
            a = mux_value(f.mux_a, controls, fu_vals)
            b = mux_value(f.mux_b, controls, fu_vals)
            fu_vals[f.name] = table.op(f.kind, a, b)
        result.fu_history.append(dict(fu_vals))

        if rtl.cond_fu and state == decision_state:
            result.cond_decisions.append((cycle, fu_vals[rtl.cond_fu]))

        new_regs = dict(regs)
        for r in rtl.registers:
            load = controls[r.load_line]
            if load == 0:
                continue
            incoming = mux_value(r.input_mux, controls, fu_vals)
            if load == 1:
                new_regs[r.name] = incoming
            else:  # X load: content is old-or-new
                if incoming != regs[r.name]:
                    result.saw_unknown_control = True
                    new_regs[r.name] = table.garbage()
        regs = new_regs
    return result


@dataclass
class ReplayComparison:
    """Outcome of comparing a faulty replay against the golden one."""

    equivalent: bool
    reason: str = ""


def compare_replays(golden: ReplayResult, faulty: ReplayResult) -> ReplayComparison:
    """Decide system-functional equivalence of two replays."""
    for (gc, gid), (fc, fid) in zip(golden.cond_decisions, faulty.cond_decisions):
        if gid != fid:
            return ReplayComparison(False, f"loop condition differs at cycle {gc}")
    for (gc, gout), (fc, fout) in zip(golden.output_samples, faulty.output_samples):
        if gout != fout:
            ports = sorted(p for p in gout if gout[p] != fout[p])
            return ReplayComparison(False, f"output {ports} differs at cycle {gc}")
    return ReplayComparison(True)
