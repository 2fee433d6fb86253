"""Canonical fingerprints keying the content-addressed campaign store.

Every result the Section-5 flow produces is a pure function of
``(netlist, stimulus plan, config knobs, seeds, code schema)``.  The
store exploits that by deriving one stable hexadecimal *stage key* from
exactly those inputs:

* :func:`canonical_json` serializes any JSON-able value with sorted keys
  and no whitespace, so logically equal inputs hash equally regardless
  of dict insertion order or formatting;
* :func:`netlist_fingerprint` hashes the *content* of a netlist (gates,
  pins, net names, primary I/O) -- two designs named ``diffeq`` with
  different synthesis results get different keys;
* :func:`stage_key` folds a stage name, a netlist fingerprint, the
  result-relevant parameters and :data:`SCHEMA_VERSION` into the final
  cache key.

``SCHEMA_VERSION`` must be bumped whenever the *meaning* of any stored
payload changes (a verdict encoding, a power model revision, a new
classification rule): old artifacts then simply stop matching and are
recomputed, which is the whole invalidation policy (see docs/store.md).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from ..netlist.gates import GateType
from ..netlist.netlist import Netlist

#: bumped whenever stored payload semantics change incompatibly; part of
#: every stage key, so a bump invalidates the entire store at once.
#: v2: netlist fingerprints became insertion-order insensitive (gates
#: sorted by name, nets referenced by name), so permuted-but-identical
#: netlists share a fingerprint; old v1 keys simply stop matching.
SCHEMA_VERSION = 2


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=str
    )


def digest(obj: Any) -> str:
    """sha-256 hex digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def netlist_fingerprint(netlist: Any) -> str:
    """Content hash of a gate-level netlist, insensitive to build order.

    Covers everything that determines simulation results: net names
    (fault sites are described through them), gate types, pin
    connections, gate names/tags (tags select fault universes and the
    power-estimation partition) and the primary input/output lists --
    but *not* numeric gate indices or net ids.  Gates are keyed by their
    (unique) names and nets referenced by name, so two netlists that
    declare the same gates in a different order fingerprint identically.
    Stage keys whose payloads expose index-based fault keys must fold
    the fault-key list into their params (the pipeline stages all do).
    """
    names = netlist.net_names
    payload = {
        "name": netlist.name,
        "inputs": [names[i] for i in netlist.inputs],
        "outputs": [names[i] for i in netlist.outputs],
        "gates": sorted(
            [g.name, g.gtype.name, names[g.output], [names[i] for i in g.inputs], g.tag]
            for g in netlist.gates
        ),
    }
    return digest(payload)


def netlist_payload(netlist: Netlist) -> dict:
    """Exact, order-preserving JSON form of a netlist.

    Unlike the fingerprint payload this keeps net declaration order and
    gate insertion order, so :func:`netlist_from_payload` reconstructs a
    netlist with identical net ids and gate indices -- which is what the
    incremental planner needs to re-derive a baseline's index-based
    fault keys.
    """
    names = netlist.net_names
    return {
        "schema": SCHEMA_VERSION,
        "name": netlist.name,
        "nets": list(names),
        "inputs": [names[i] for i in netlist.inputs],
        "outputs": [names[i] for i in netlist.outputs],
        "gates": [
            [g.gtype.name, names[g.output], [names[i] for i in g.inputs], g.name, g.tag]
            for g in netlist.gates
        ],
    }


def netlist_from_payload(payload: Mapping[str, Any]) -> Netlist:
    """Reconstruct the exact netlist serialized by :func:`netlist_payload`."""
    netlist = Netlist(name=payload["name"])
    for name in payload["nets"]:
        netlist.add_net(name)
    for name in payload["inputs"]:
        netlist.mark_input(netlist.net_id(name))
    for gtype, output, inputs, name, tag in payload["gates"]:
        netlist.add_gate(
            GateType[gtype],
            netlist.net_id(output),
            [netlist.net_id(i) for i in inputs],
            name=name,
            tag=tag,
        )
    for name in payload["outputs"]:
        netlist.mark_output(netlist.net_id(name))
    return netlist


def netlist_store_key(netlist_fp: str) -> str:
    """Store key of a published ``netlist``-kind blob (baseline lookup)."""
    return digest({"schema": SCHEMA_VERSION, "stage": "netlist", "netlist": netlist_fp})


def stage_key(stage: str, netlist_fp: str, params: Mapping[str, Any]) -> str:
    """The store key of one campaign stage result.

    Two invocations share a key exactly when they are guaranteed to
    produce bit-identical payloads: same code schema, same stage, same
    netlist content and same result-relevant parameters/seeds.
    """
    return digest(
        {
            "schema": SCHEMA_VERSION,
            "stage": stage,
            "netlist": netlist_fp,
            "params": {k: params[k] for k in sorted(params)},
        }
    )
