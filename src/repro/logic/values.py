"""Packed three-valued (0/1/X) logic over uint64 bit-planes.

A signal carried by ``P`` parallel patterns is stored as two numpy arrays of
``W = ceil(P/64)`` words:

* ``zero`` -- bit set where the signal is known 0,
* ``one``  -- bit set where the signal is known 1.

A bit position with neither plane set is X (unknown); both set is illegal.
This is the classic "dual-rail" encoding used by parallel-pattern fault
simulators; every gate evaluates with a handful of bitwise word operations
regardless of how many patterns are in flight.

:func:`eval3` is the scalar counterpart: one pattern, plain ints
(0, 1 and :data:`X` = -1), for the PODEM test generator.
"""

from __future__ import annotations

import numpy as np

from ..netlist.gates import GateType

WORD_BITS = 64
#: the scalar unknown value of :func:`eval3`
X = -1
_U64 = np.uint64


def num_words(n_patterns: int) -> int:
    """Words needed to carry ``n_patterns`` patterns."""
    if n_patterns <= 0:
        raise ValueError("need at least one pattern")
    return (n_patterns + WORD_BITS - 1) // WORD_BITS


def tail_mask(n_patterns: int) -> np.ndarray:
    """Per-word mask with only the first ``n_patterns`` bit positions set."""
    words = num_words(n_patterns)
    mask = np.full(words, ~_U64(0), dtype=_U64)
    rem = n_patterns % WORD_BITS
    if rem:
        mask[-1] = _U64((1 << rem) - 1)
    return mask


def pack_bits(bits: list[int] | np.ndarray) -> np.ndarray:
    """Pack a list of 0/1 ints into a word array (bit i = pattern i)."""
    bits = np.asarray(bits, dtype=np.uint8)
    words = num_words(len(bits))
    padded = np.zeros(words * WORD_BITS, dtype=np.uint8)
    padded[: len(bits)] = bits
    # Little-endian bit order within bytes matches little-endian byte order
    # within uint64 words on all supported platforms.
    out = np.packbits(padded, bitorder="little")
    return out.view(_U64).copy()


def unpack_bits(words: np.ndarray, n_patterns: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: return uint8 array of length n_patterns."""
    as_bytes = np.ascontiguousarray(words, dtype=_U64).view(np.uint8)
    return np.unpackbits(as_bytes, bitorder="little")[:n_patterns].copy()


def popcount(words: np.ndarray) -> int:
    """Total number of set bits across the word array."""
    return int(np.bitwise_count(words).sum())


# --------------------------------------------------------------------------
# Gate evaluation on (zero, one) plane pairs.  All functions take/return
# numpy arrays and never mutate their inputs.
# --------------------------------------------------------------------------

def v_not(z: np.ndarray, o: np.ndarray):
    return o, z


def v_and2(z1, o1, z2, o2):
    return z1 | z2, o1 & o2


def v_or2(z1, o1, z2, o2):
    return z1 & z2, o1 | o2


def v_xor2(z1, o1, z2, o2):
    known = (z1 | o1) & (z2 | o2)
    val = (o1 ^ o2) & known
    return known & ~val, val


def v_mux2(zs, os, za, oa, zb, ob):
    """3-valued 2:1 mux: sel ? b : a (X-sel resolves only when a == b)."""
    one = (os & ob) | (zs & oa) | (oa & ob)
    zero = (os & zb) | (zs & za) | (za & zb)
    return zero, one


def v_reduce(op, planes):
    """Fold a 2-input plane operation over a list of (z, o) pairs."""
    z, o = planes[0]
    for z2, o2 in planes[1:]:
        z, o = op(z, o, z2, o2)
    return z, o


def known_mask(z: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Mask of patterns where the value is not X."""
    return z | o


def diff_mask(z1, o1, z2, o2) -> np.ndarray:
    """Patterns where both values are known and differ."""
    return (z1 & o2) | (o1 & z2)


def toggle_count(z_prev, o_prev, z_cur, o_cur) -> int:
    """Count known 0->1 / 1->0 transitions between two value planes."""
    return popcount((z_prev & o_cur) | (o_prev & z_cur))


def eval3(gtype: GateType, vals: list[int]) -> int:
    """Three-valued evaluation of one combinational gate on scalars."""
    if gtype in (GateType.AND, GateType.NAND):
        if 0 in vals:
            out = 0
        elif X in vals:
            out = X
        else:
            out = 1
        return out if gtype is GateType.AND else (X if out == X else 1 - out)
    if gtype in (GateType.OR, GateType.NOR):
        if 1 in vals:
            out = 1
        elif X in vals:
            out = X
        else:
            out = 0
        return out if gtype is GateType.OR else (X if out == X else 1 - out)
    if gtype in (GateType.XOR, GateType.XNOR):
        if X in vals:
            return X
        out = sum(vals) % 2
        return out if gtype is GateType.XOR else 1 - out
    if gtype is GateType.NOT:
        return X if vals[0] == X else 1 - vals[0]
    if gtype is GateType.BUF:
        return vals[0]
    if gtype is GateType.MUX2:
        s, a, b = vals
        if s == 0:
            return a
        if s == 1:
            return b
        return a if (a == b and a != X) else X
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return 1
    raise AssertionError(f"not combinational: {gtype}")
