"""Fuzzing of the untrusted-netlist upload parsers.

``parse_bench_upload`` and ``parse_verilog_upload`` sit behind
``POST /designs/validate``: whatever text arrives, the only failure they
may raise is :class:`InputValidationError` (HTTP 400) -- never a
``KeyError``, ``IndexError`` or recursion error from deep inside the
parser or the validators.  The round-trip tests pin what each format
carries: Verilog keeps every net name, gate name and tag, so a written
netlist re-imports under the same ``netlist_fingerprint``; ``.bench``
has no gate names or tags and sanitises net names, so its first trip
canonicalises and every later trip preserves the fingerprint.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import InputValidationError
from repro.designs.catalog import cached_system, design_names
from repro.netlist.bench import parse_bench_upload, write_bench
from repro.netlist.builder import NetlistBuilder
from repro.netlist.verilog import parse_verilog_upload, write_verilog
from repro.store.fingerprint import netlist_fingerprint

FUZZ = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _only_validation_errors(parse, text: str) -> None:
    try:
        parse(text)
    except InputValidationError:
        pass


# ------------------------------------------------------------ strategies
_names = st.one_of(
    st.sampled_from(["a", "b", "y", "q", "n1", "w[0]", "dp/g0", "G5"]),
    st.text(min_size=1, max_size=6),
)

_BENCH_FUNCS = [
    "AND", "OR", "NAND", "NOR", "NOT", "XOR", "XNOR", "BUF", "BUFF",
    "MUX2", "DFF", "DFFE", "CONST0", "CONST1", "FROB", "and",
]


@st.composite
def _bench_line(draw) -> str:
    kind = draw(st.sampled_from(["input", "output", "gate", "junk"]))
    if kind == "input":
        return f"INPUT({draw(_names)})"
    if kind == "output":
        return f"OUTPUT({draw(_names)})"
    if kind == "gate":
        args = ", ".join(draw(st.lists(_names, max_size=4)))
        return f"{draw(_names)} = {draw(st.sampled_from(_BENCH_FUNCS))}({args})"
    return draw(st.text(max_size=20))


def _seed_netlist():
    b = NetlistBuilder("seed")
    a, s = b.input("a"), b.input("s[0]")
    y = b.nand_([a, s], output=b.net("y"), name="dp/g0", tag="dp:ALU1")
    m = b.mux2_(s, a, y, output=b.net("m"), tag="ctl")
    q = b.dffe(a, m, output=b.net("q"))
    b.output(b.xor_([q, b.const1()], output=b.net("z")))
    return b.done()


@st.composite
def _mutated(draw, seed: str) -> str:
    """A valid netlist text with a few lines dropped, duplicated, swapped
    or poked -- inputs that get past the tokenizer into the validators."""
    lines = seed.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "dup", "swap", "poke"]))
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            k = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:k] + draw(st.text(max_size=3)) + lines[i][k + 1:]
    return "\n".join(lines)


_bench_text = st.one_of(
    st.text(max_size=200),
    st.lists(_bench_line(), max_size=12).map("\n".join),
    _mutated(write_bench(_seed_netlist())),
)

_VERILOG_TOKENS = [
    "module", "endmodule", "input", "output", "wire", "(", ")", ";", ",",
    ".", "and", "or", "nand", "nor", "not", "xor", "xnor", "buf", "MUX2",
    "DFF", "DFFE", "CONST0", "CONST1", "Y", "Q", "S", "A", "B", "D", "EN",
    "a", "b", "y", "g0", "\\w[0] ", "(* tag = \"dp\" *)", "//", "/*", "*/",
    "\n",
]

_tag_attrs = st.text(max_size=6).map(lambda t: f'(* tag = "{t}" *)')

_verilog_text = st.one_of(
    st.text(max_size=200),
    st.lists(
        st.one_of(st.sampled_from(_VERILOG_TOKENS), st.text(max_size=4), _tag_attrs),
        max_size=40,
    ).map(" ".join),
    # a well-formed header keeps the parser past its first tokens
    st.lists(st.sampled_from(_VERILOG_TOKENS), max_size=40).map(
        lambda toks: "module m (a, y);\n input a;\n output y;\n " + " ".join(toks)
    ),
    _mutated(write_verilog(_seed_netlist())),
)


# ----------------------------------------------------------------- fuzzing
@FUZZ
@given(_bench_text)
def test_bench_upload_raises_only_validation_errors(text):
    _only_validation_errors(parse_bench_upload, text)


@FUZZ
@given(_verilog_text)
def test_verilog_upload_raises_only_validation_errors(text):
    _only_validation_errors(parse_verilog_upload, text)


# -------------------------------------------------------------- round trips
def test_verilog_roundtrip_keeps_gate_tags():
    netlist = _seed_netlist()
    parsed = parse_verilog_upload(write_verilog(netlist))
    assert [(g.name, g.tag) for g in parsed.gates] == [
        (g.name, g.tag) for g in netlist.gates
    ]
    assert netlist_fingerprint(parsed) == netlist_fingerprint(netlist)


@pytest.mark.parametrize("design", design_names())
def test_verilog_roundtrip_preserves_fingerprint(design):
    netlist = cached_system(design).netlist
    text = write_verilog(netlist)
    parsed = parse_verilog_upload(text, max_bytes=len(text.encode()))
    assert netlist_fingerprint(parsed) == netlist_fingerprint(netlist)


@pytest.mark.parametrize("design", design_names())
def test_bench_roundtrip_preserves_fingerprint_after_one_trip(design):
    netlist = cached_system(design).netlist

    def trip(nl):
        text = write_bench(nl)
        return parse_bench_upload(text, name=nl.name, max_bytes=len(text.encode()))

    once = trip(netlist)
    assert len(once.gates) == len(netlist.gates)
    assert netlist_fingerprint(trip(once)) == netlist_fingerprint(once)
