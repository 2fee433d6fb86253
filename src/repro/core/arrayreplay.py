"""Fault-parallel symbolic replay: many control streams in one array pass.

:func:`repro.core.symbolic.replay` traces one control stream at a time
through dicts; it is the per-fault oracle.  :func:`replay_rows` applies
the same rules to a batch of streams (rows) at once -- the classifier
passes the fault-free stream of every scenario plus every faulty stream
that differs from it -- in one loop over cycles:

* register contents are an ``(n_registers, rows)`` array of
  :class:`~repro.core.symbolic.ValueTable` numbers;
* each mux picks its source per row by select code (codes past the last
  source alias source 0); a row whose select has an X bit keeps the value
  all its padded sources agree on, else it gets a garbage number no other
  row shares;
* each FU interns only the distinct operand pairs of the cycle, with
  commutative operands in canonical order (:meth:`ValueTable.op_ids`);
* a load of 0 keeps the old value, a load of 1 takes the incoming one,
  and an X load takes garbage unless the incoming value equals the
  current one.

Rows may run for different cycle counts (scenarios of different length):
they come in non-increasing length order, so the rows still running at a
cycle are a prefix of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hls.rtl import MuxSpec, RTLDesign
from .symbolic import ValueTable


@dataclass
class RowReplay:
    """What one array pass observed, per row."""

    #: register contents at the *start* of each cycle, ``(cycles, registers,
    #: rows)``, registers in ``rtl.registers`` order (-1 past a row's end)
    reg_hist: np.ndarray
    #: the cond FU's value each cycle, ``(cycles, rows)`` (-1 at cycle 0 and
    #: past a row's end); None without a cond FU
    cond: np.ndarray | None


class _MuxGroup:
    """Muxes with the same select width, picked together.

    ``src[m, code]`` is the source-table row mux ``m`` reads under select
    ``code`` (padded to the full code space); ``sel[m, bit]`` is the
    control line of select bit ``bit``."""

    def __init__(self, slots, src, sel):
        self.slots = np.array(slots, dtype=np.int64)
        self.src = np.array(src, dtype=np.int64).reshape(len(self.slots), -1)
        self.sel = np.array(sel, dtype=np.int64).reshape(len(self.slots), -1)
        width = self.src.shape[1]
        # src[m, code] == flat[offset[m] + code]
        self.flat = self.src.ravel()
        self.offset = (np.arange(len(self.slots)) * width)[:, None]
        self.shift = np.arange(self.sel.shape[1], dtype=np.int64)[:, None]

    def pick(self, sources, ctl, rows, out, garbage):
        """Write each mux's value for columns ``rows`` (a prefix) into
        ``out[slots]``; ``garbage[slots]`` marks the X-select columns
        whose sources disagree."""
        garbage[self.slots] = False
        if self.src.shape[1] == 1:
            out[self.slots] = sources[self.src[:, 0], : rows.size]
            return
        bits = ctl[self.sel]  # (muxes, bits, rows)
        code = (np.maximum(bits, 0) << self.shift).sum(axis=1)
        value = sources[self.flat[self.offset + code], rows]
        if bits.min() < 0:
            unknown = (bits < 0).any(axis=1)
            candidates = sources[self.src, : rows.size]  # (muxes, codes, rows)
            agree = (candidates == candidates[:, :1]).all(axis=1)
            value = np.where(unknown, candidates[:, 0], value)
            garbage[self.slots] = unknown & ~agree
        out[self.slots] = value


def _mux_groups(muxes: list[MuxSpec], column, line: dict[str, int]) -> list[_MuxGroup]:
    by_width: dict[tuple[int, int], list] = {}
    for slot, mux in enumerate(muxes):
        width = 1 << mux.n_sel_bits
        padded = list(mux.sources) + [mux.sources[0]] * (width - len(mux.sources))
        by_width.setdefault((width, len(mux.sel_names)), []).append(
            (slot, [column(s) for s in padded], [line[n] for n in mux.sel_names])
        )
    return [_MuxGroup(*zip(*members)) for members in by_width.values()]


def replay_rows(
    rtl: RTLDesign,
    lines: list[str],
    values: np.ndarray,
    lengths: np.ndarray,
    table: ValueTable,
) -> RowReplay:
    """Symbolically execute the RTL under every row's control stream.

    ``values`` is ``(cycles, len(lines), rows)`` int8 (-1 == X), line
    ``i`` named ``lines[i]``; row ``r`` runs for ``lengths[r]`` cycles and
    ``lengths`` must not increase.  As in :func:`~repro.core.symbolic.
    replay`, cycle 0 is reset: the registers hold their ``uninit`` numbers
    and replay starts at cycle 1.  FU port muxes may read registers,
    constants and inputs, not FU outputs.
    """
    n_cycles, _, n_rows = values.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    if np.any(np.diff(lengths) > 0):
        raise ValueError("replay_rows needs rows in non-increasing length order")
    line = {name: i for i, name in enumerate(lines)}
    n_regs, n_fus = len(rtl.registers), len(rtl.fus)
    reg_row = {r.name: i for i, r in enumerate(rtl.registers)}
    fu_row = {f.name: n_regs + i for i, f in enumerate(rtl.fus)}
    fixed: dict[tuple[str, str], int] = {}

    # The source table: registers, then FU outputs, then constants and
    # inputs, one row each, one column per replayed stream.
    def column(src, fu_ok: bool) -> int:
        if src.kind == "reg":
            return reg_row[src.ref]
        if src.kind == "fu":
            if not fu_ok:
                raise ValueError(f"FU port mux reads FU output {src.ref!r}")
            return fu_row[src.ref]
        return fixed.setdefault((src.kind, src.ref), n_regs + n_fus + len(fixed))

    fu_groups = _mux_groups(
        [m for f in rtl.fus for m in (f.mux_a, f.mux_b)],
        lambda s: column(s, False),
        line,
    )
    reg_groups = _mux_groups(
        [r.input_mux for r in rtl.registers], lambda s: column(s, True), line
    )
    load = np.array([line[r.load_line] for r in rtl.registers], dtype=np.int64)
    kinds = [f.kind for f in rtl.fus]

    sources = np.empty((n_regs + n_fus + len(fixed), n_rows), dtype=np.int64)
    sources[:n_regs] = np.array([table.uninit(r.name) for r in rtl.registers])[:, None]
    for (kind, ref), row in fixed.items():
        sources[row] = table.const(ref) if kind == "const" else table.input(ref)
    # The histories hold numbers below 2**28 (ValueTable.op_ids' packing
    # bound), so int32 halves the largest arrays of the pass.
    reg_hist = np.full((n_cycles, n_regs, n_rows), -1, dtype=np.int32)
    reg_hist[0] = sources[:n_regs]
    cond_row = fu_row[rtl.cond_fu] if rtl.cond_fu else None
    cond = None if cond_row is None else np.full((n_cycles, n_rows), -1, dtype=np.int32)
    operands = np.empty((2 * n_fus, n_rows), dtype=np.int64)
    incoming = np.empty((n_regs, n_rows), dtype=np.int64)
    operand_garbage = np.empty((2 * n_fus, n_rows), dtype=bool)
    incoming_garbage = np.empty((n_regs, n_rows), dtype=bool)
    alive = (lengths[None, :] > np.arange(n_cycles)[:, None]).sum(axis=1)
    columns = np.arange(n_rows)

    for cycle in range(1, n_cycles):
        k = int(alive[cycle])
        if k == 0:
            break
        ctl = values[cycle, :, :k]
        rows = columns[:k]
        current = sources[:n_regs, :k]
        reg_hist[cycle, :, :k] = current

        ops, ops_garbage = operands[:, :k], operand_garbage[:, :k]
        for group in fu_groups:
            group.pick(sources, ctl, rows, ops, ops_garbage)
        if ops_garbage.any():
            ops[ops_garbage] = table.garbage_ids(int(ops_garbage.sum()))
        sources[n_regs:n_regs + n_fus, :k] = table.op_ids(kinds, ops[0::2], ops[1::2])
        if cond is not None:
            cond[cycle, :k] = sources[cond_row, :k]

        inc, inc_garbage = incoming[:, :k], incoming_garbage[:, :k]
        for group in reg_groups:
            group.pick(sources, ctl, rows, inc, inc_garbage)
        ld = ctl[load]
        take = ld == 1
        fresh = (take & inc_garbage) | ((ld < 0) & (inc_garbage | (inc != current)))
        updated = np.where(take, inc, current)
        if fresh.any():
            updated[fresh] = table.garbage_ids(int(fresh.sum()))
        sources[:n_regs, :k] = updated
    return RowReplay(reg_hist=reg_hist, cond=cond)
