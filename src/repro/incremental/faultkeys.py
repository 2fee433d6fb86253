"""Campaign-level digests behind incremental replay.

A baseline campaign is reused fault by fault through one
``incremental-meta`` manifest per campaign, addressed by
:func:`meta_store_key` (the baseline's netlist fingerprint plus
:func:`params_digest`, every knob a verdict depends on).  The manifest
names the campaign's own ``faultsim`` and ``classify`` stage rows, which
hold every fault's verdict and classification; no per-fault rows exist.

Classifications additionally depend on the classifier context and the
golden control traces (:func:`classifier_context_digest`,
:func:`golden_trace_digest`), recorded once in the manifest: a consumer
only reuses the baseline's classifications when both match its own
(verdicts come from the integrated system, classifications from the
standalone controller plus the RT-level oracle, so their invalidation
rules differ).
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

from ..netlist.netlist import Netlist
from ..store.fingerprint import SCHEMA_VERSION, digest


def params_digest(
    netlist: Netlist,
    config,
    observe: list[int],
    masks: Iterable[np.ndarray],
    n_cycles: int,
) -> str:
    """Digest of every campaign knob a per-fault verdict depends on.

    Nets are named, not numbered, so the digest survives renumbering;
    the hold masks are hashed as raw planes because verdict sampling
    windows must match bit for bit for any replay to be sound.
    """
    masks_sha = hashlib.sha256()
    for m in masks:
        masks_sha.update(np.ascontiguousarray(m).tobytes())
    return digest(
        {
            "schema": SCHEMA_VERSION,
            "pipeline": config.fingerprint_params(),
            "stimulus": {
                "kind": "tpgr-normal-mode",
                "n_patterns": config.n_patterns,
                "n_cycles": n_cycles,
                "tpgr_seed": config.tpgr_seed,
            },
            "observe": [netlist.net_names[n] for n in observe],
            "masks": masks_sha.hexdigest(),
        }
    )


def meta_store_key(netlist_fp: str, pdigest: str) -> str:
    """Key of a campaign's ``incremental-meta`` manifest."""
    return digest(
        {
            "schema": SCHEMA_VERSION,
            "stage": "incremental-meta",
            "netlist": netlist_fp,
            "params": pdigest,
        }
    )


def classifier_context_digest(rtl, iteration_counts, hold_cycles: int) -> str:
    """Digest of the RT-level oracle's inputs besides the controller.

    Covers the datapath structure the symbolic replay walks (registers,
    muxes, functional units, bindings, schedule) and the scenario knobs;
    the controller's own behavior is pinned separately by the golden
    control-trace digest plus the controller fingerprint rules in
    :mod:`~repro.incremental.replay`.
    """

    def mux(m) -> dict:
        return {
            "name": m.name,
            "sel": list(m.sel_names),
            "sources": [s.label() for s in m.sources],
        }

    return digest(
        {
            "schema": SCHEMA_VERSION,
            "iteration_counts": list(iteration_counts),
            "hold_cycles": hold_cycles,
            "rtl": {
                "name": rtl.name,
                "width": rtl.width,
                "n_steps": rtl.schedule.n_steps,
                "steps": dict(rtl.schedule.steps),
                "load_lines": list(rtl.load_lines),
                "sel_lines": list(rtl.sel_lines),
                "cond_fu": rtl.cond_fu,
                "value_reg": dict(rtl.value_reg),
                "registers": [
                    {
                        "name": r.name,
                        "load": r.load_line,
                        "mux": mux(r.input_mux),
                        "holds": list(r.holds),
                    }
                    for r in rtl.registers
                ],
                "fus": [
                    {
                        "name": f.name,
                        "kind": str(f.kind),
                        "mux_a": mux(f.mux_a),
                        "mux_b": mux(f.mux_b),
                    }
                    for f in rtl.fus
                ],
                "bindings": {
                    op: {"fu": b.fu, "step": b.step, "dest": b.dest_register}
                    for op, b in rtl.bindings.items()
                },
            },
        }
    )


def golden_trace_digest(classifier) -> str:
    """Digest of the classifier's golden control traces, all scenarios."""
    rows = []
    for sc, trace, _table, _replay, _timeline in classifier._golden:
        rows.append(
            {
                "iterations": sc.iterations,
                "n_steps": sc.n_steps,
                "hold_cycles": sc.hold_cycles,
                "idle_cycles": sc.idle_cycles,
                "lines": trace.lines,
                "states": trace.states,
            }
        )
    return digest({"schema": SCHEMA_VERSION, "scenarios": rows})
