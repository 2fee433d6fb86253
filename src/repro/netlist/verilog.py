"""Structural Verilog subset: writer and parser (round-trippable).

The dialect is the flat gate-level style 1990s ASIC tools exchanged:

* one module, port list, ``input``/``output``/``wire`` declarations;
* standard gate primitives ``and or nand nor not xor xnor buf`` in
  positional form (output first);
* library cells ``MUX2`` (ports Y, S, A, B), ``DFF`` (Q, D), ``DFFE``
  (Q, EN, D), ``CONST0``/``CONST1`` (Y) in named-port form.

Net names that are not plain Verilog identifiers are emitted as escaped
identifiers (``\\name`` terminated by whitespace), so arbitrary internal
names like ``REG3_q[0]`` survive a round trip.  A gate's tag (which
selects its fault universe and power partition) rides along as a
Verilog-2001 attribute, ``(* tag = "dp:ALU1" *)``, in front of the
instance, so a written netlist parses back with the same
:func:`~repro.store.fingerprint.netlist_fingerprint`.
"""

from __future__ import annotations

import json
import re

from .gates import GateType
from .netlist import Netlist, NetlistError

_PRIMITIVES = {
    GateType.AND: "and",
    GateType.OR: "or",
    GateType.NAND: "nand",
    GateType.NOR: "nor",
    GateType.NOT: "not",
    GateType.XOR: "xor",
    GateType.XNOR: "xnor",
    GateType.BUF: "buf",
}
_PRIM_BY_NAME = {v: k for k, v in _PRIMITIVES.items()}

_CELL_PORTS = {
    GateType.MUX2: ("Y", ["S", "A", "B"]),
    GateType.DFF: ("Q", ["D"]),
    GateType.DFFE: ("Q", ["EN", "D"]),
    GateType.CONST0: ("Y", []),
    GateType.CONST1: ("Y", []),
}
_CELL_BY_NAME = {t.value: t for t in _CELL_PORTS}

_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")


def _escape(name: str) -> str:
    return name if _ID_RE.match(name) else f"\\{name} "


def _tag_attr(tag: str) -> str:
    # "/" is escaped (JSON allows "\/") so no tag can open a // or /* comment
    return "(* tag = " + json.dumps(tag).replace("/", "\\/") + " *) "


def write_verilog(netlist: Netlist) -> str:
    """Serialize ``netlist`` to the structural Verilog subset."""
    netlist.validate()
    nm = [_escape(n) for n in netlist.net_names]
    ports = [nm[n].strip() for n in netlist.inputs] + [
        nm[n].strip() for n in netlist.outputs if n not in netlist.inputs
    ]
    lines = [f"// netlist {netlist.name}", f"module {_escape(netlist.name).strip()} ("]
    lines.append("  " + ",\n  ".join(dict.fromkeys(ports)))
    lines.append(");")
    for n in netlist.inputs:
        lines.append(f"  input {nm[n]};")
    for n in netlist.outputs:
        if n not in netlist.inputs:
            lines.append(f"  output {nm[n]};")
    declared = set(netlist.inputs) | set(netlist.outputs)
    for n in range(netlist.num_nets):
        if n not in declared:
            lines.append(f"  wire {nm[n]};")
    for g in netlist.gates:
        gname = _escape(g.name)
        attr = _tag_attr(g.tag) if g.tag else ""
        if g.gtype in _PRIMITIVES:
            args = ", ".join([nm[g.output]] + [nm[i] for i in g.inputs])
            lines.append(f"  {attr}{_PRIMITIVES[g.gtype]} {gname}({args});")
        else:
            out_port, in_ports = _CELL_PORTS[g.gtype]
            conns = [f".{out_port}({nm[g.output]})"] + [
                f".{p}({nm[i]})" for p, i in zip(in_ports, g.inputs)
            ]
            lines.append(f"  {attr}{g.gtype.value} {gname}({', '.join(conns)});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


_TOKEN_RE = re.compile(
    r"""(?P<tag>\(\*\s*tag\s*=\s*"(?:[^"\\]|\\.)*"\s*\*\))   # tag attribute
      | \\[^\s]+      # escaped identifier
      | [A-Za-z_][A-Za-z0-9_$]*
      | [().,;]
    """,
    re.VERBOSE,
)
_TAG_VALUE_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


class _Tag(str):
    """A ``(* tag = "..." *)`` attribute token; the string is the tag."""


def _tokenize(text: str) -> list[str]:
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group(0)
        if m.group("tag"):
            try:
                tok = _Tag(json.loads(_TAG_VALUE_RE.search(tok).group(0)))
            except ValueError:
                raise NetlistError(f"bad tag attribute {tok!r}") from None
        elif tok.startswith("\\"):
            tok = tok[1:]
        tokens.append(tok)
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise NetlistError("unexpected end of Verilog input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise NetlistError(f"expected {tok!r}, got {got!r}")

    def name_list_until(self, terminator: str) -> list[str]:
        names = []
        while True:
            tok = self.next()
            if tok == terminator:
                return names
            if tok != ",":
                names.append(tok)


def parse_verilog(text: str) -> Netlist:
    """Parse the structural subset back into a :class:`Netlist`."""
    p = _Parser(_tokenize(text))
    p.expect("module")
    name = p.next()
    p.expect("(")
    p.name_list_until(")")
    p.expect(";")

    netlist = Netlist(name=name)

    def net(n: str) -> int:
        return netlist.net_id(n) if netlist.has_net(n) else netlist.add_net(n)

    pending_outputs: list[str] = []
    tag = None  # from a (* tag = "..." *) attribute; applies to the next instance
    while True:
        tok = p.next()
        if isinstance(tok, _Tag):
            if tag is not None:
                raise NetlistError("two tag attributes on one instance")
            tag = str(tok)
            continue
        if tag is not None and tok not in _PRIM_BY_NAME and tok not in _CELL_BY_NAME:
            raise NetlistError(f"tag attribute before {tok!r}, not a gate instance")
        if tok == "endmodule":
            break
        if tok in ("input", "output", "wire"):
            names = p.name_list_until(";")
            for n in names:
                nid = net(n)
                if tok == "input":
                    netlist.mark_input(nid)
                elif tok == "output":
                    pending_outputs.append(n)
            continue
        # Gate or cell instance.
        if tok in _PRIM_BY_NAME:
            gtype = _PRIM_BY_NAME[tok]
            inst = p.next()
            p.expect("(")
            args = p.name_list_until(")")
            p.expect(";")
            if not args:
                raise NetlistError(f"primitive instance {inst!r} has no connections")
            netlist.add_gate(
                gtype, net(args[0]), [net(a) for a in args[1:]], name=inst, tag=tag or ""
            )
            tag = None
            continue
        if tok in _CELL_BY_NAME:
            gtype = _CELL_BY_NAME[tok]
            out_port, in_ports = _CELL_PORTS[gtype]
            inst = p.next()
            p.expect("(")
            conns: dict[str, str] = {}
            while True:
                t = p.next()
                if t == ")":
                    break
                if t == ",":
                    continue
                if t != ".":
                    raise NetlistError(f"expected named connection, got {t!r}")
                port = p.next()
                p.expect("(")
                conns[port] = p.next()
                p.expect(")")
            p.expect(";")
            missing = {out_port, *in_ports} - set(conns)
            if missing:
                raise NetlistError(f"instance {inst!r} missing ports {sorted(missing)}")
            netlist.add_gate(
                gtype, net(conns[out_port]), [net(conns[pp]) for pp in in_ports],
                name=inst, tag=tag or "",
            )
            tag = None
            continue
        raise NetlistError(f"unknown gate or cell type {tok!r}")

    for n in pending_outputs:
        netlist.mark_output(netlist.net_id(n))
    netlist.validate()
    return netlist


def parse_verilog_upload(text: str, max_bytes: int | None = None) -> Netlist:
    """Fail-fast frontend for *untrusted* structural-Verilog uploads.

    Same contract as :func:`repro.netlist.bench.parse_bench_upload`:
    size cap before tokenizing, parse, then full structural +
    acyclicity validation -- every failure mode is a typed
    :class:`~repro.core.errors.InputValidationError` (HTTP 400 at the
    serve layer), never an arbitrary exception or a wedged worker.
    """
    from ..core.errors import (
        UPLOAD_MAX_BYTES,
        InputValidationError,
        validate_upload_netlist,
        validate_upload_text,
    )

    validate_upload_text(text, max_bytes if max_bytes is not None else UPLOAD_MAX_BYTES)
    try:
        netlist = parse_verilog(text)
    except NetlistError as exc:
        raise InputValidationError(f"bad Verilog upload: {exc}") from exc
    validate_upload_netlist(netlist)
    return netlist
