"""Toggle counts -> average dynamic power.

``PowerEstimator`` precomputes the switched capacitance of every net of a
netlist once, then converts a simulator's accumulated toggle counters (and
register load-event counters) into microwatts, optionally restricted to a
tag prefix (the paper reports power for the *datapath*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.errors import IntegrityError
from ..netlist.gates import GateType
from ..netlist.netlist import Netlist
from ..logic.simulator import CycleSimulator
from .library import DEFAULT_LIBRARY, PowerLibrary


@dataclass
class PowerResult:
    """Average power over a simulation window."""

    total_uw: float
    switching_uw: float
    clock_uw: float
    by_tag: dict[str, float]
    cycles: int
    patterns: int

    def __str__(self) -> str:
        return f"{self.total_uw:.2f} uW ({self.switching_uw:.2f} switching + {self.clock_uw:.2f} clock)"


#: decomposition component name for per-fanout interconnect capacitance
WIRE_COMPONENT = "wire"


@dataclass
class CapDecomposition:
    """Per-row switched capacitance split into process-scaling components.

    A manufactured instance deviates from the nominal capacitance model
    by per-gate-type scale factors (all NAND drains on a die etched a
    little wide, all wires a little thick...).  This decomposition
    splits every counter row's capacitance into its per-component
    contributions so the fleet kernel can apply per-instance,
    per-component log-normal scales with one matmul:
    ``row_cap(instance) = scales[instance] @ weights[row]``.

    Components are the gate-type names present in the netlist plus
    :data:`WIRE_COMPONENT`; rows follow the counter layout of
    :meth:`PowerEstimator.power_from_counts`: one row per net (fF per
    toggle), one per DFFE (fF per load event), and one constant row (fF
    per cycle-pattern, the always-clocked DFF tree).  Rows outside the
    requested ``tag_prefix`` are all-zero, so the matrix product applies
    exactly the selection mask the scalar path applies.
    """

    components: list[str]
    net_weights: np.ndarray  # (num_nets, n_components) fF per toggle
    dffe_weights: np.ndarray  # (n_dffe, n_components) fF per load event
    dff_weight: np.ndarray  # (n_components,) fF per cycle-pattern

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def n_rows(self) -> int:
        return self.net_weights.shape[0] + self.dffe_weights.shape[0] + 1

    def stack(self) -> np.ndarray:
        """The full ``(n_rows, n_components)`` weight matrix ``W``.

        Row order matches the fleet activity matrix: nets, then DFFE
        load rows, then the constant DFF-clock row (unit activity).
        """
        return np.vstack(
            [self.net_weights, self.dffe_weights, self.dff_weight[None, :]]
        )


class PowerEstimator:
    """Per-netlist capacitance model + power computation.

    All tag bookkeeping is vectorised: tags are interned into an index once
    at construction (per-net and per-register numpy index arrays), and the
    boolean selection masks for each ``tag_prefix`` are built on first use
    and cached, so :meth:`power` is a handful of array reductions no matter
    how many nets the design has.
    """

    def __init__(self, netlist: Netlist, library: PowerLibrary | None = None):
        self.netlist = netlist
        self.library = library or DEFAULT_LIBRARY
        lib = self.library
        n = netlist.num_nets
        self.net_cap_ff = np.zeros(n)
        self.net_tag = [""] * n
        fanout = netlist.fanout_map()
        for net in range(n):
            driver = netlist.driver_of(net)
            cap = lib.output_cap[driver.gtype] if driver else 0.0
            for gate_idx, _pin in fanout[net]:
                reader = netlist.gates[gate_idx]
                cap += lib.input_cap[reader.gtype] + lib.wire_cap
            self.net_cap_ff[net] = cap
            if driver is not None:
                self.net_tag[net] = driver.tag
        # Register bookkeeping for clock energy.
        self.dffe_gates = [g for g in netlist.gates if g.gtype is GateType.DFFE]
        self.n_dff = sum(1 for g in netlist.gates if g.gtype is GateType.DFF)
        self.dff_tags = [g.tag for g in netlist.gates if g.gtype is GateType.DFF]

        # Intern tags: every distinct tag gets one id; nets / DFFEs / DFFs
        # carry int index arrays into ``self._tags``.
        dffe_tags = [g.tag for g in self.dffe_gates]
        self._tags = sorted(set(self.net_tag) | set(dffe_tags) | set(self.dff_tags))
        tag_id = {t: i for i, t in enumerate(self._tags)}
        self._net_tag_idx = np.array([tag_id[t] for t in self.net_tag], dtype=np.int64)
        self._dffe_tag_idx = np.array([tag_id[t] for t in dffe_tags], dtype=np.int64)
        self._dff_tag_counts = np.bincount(
            np.array([tag_id[t] for t in self.dff_tags], dtype=np.int64),
            minlength=len(self._tags),
        )
        self._prefix_cache: dict[str | None, np.ndarray] = {}
        if not np.isfinite(self.net_cap_ff).all():
            bad = int(np.flatnonzero(~np.isfinite(self.net_cap_ff))[0])
            raise IntegrityError(
                f"net {netlist.net_names[bad]!r} has a non-finite switched "
                f"capacitance ({self.net_cap_ff[bad]!r} fF) -- broken library"
            )

    def cap_decomposition(self, tag_prefix: str | None = None) -> CapDecomposition:
        """Split every counter row's capacitance by scaling component.

        The per-row component sums reproduce the scalar model exactly:
        ``net_weights.sum(axis=1) == net_cap_ff * selected``, DFFE rows
        carry the DFFE clock cap, and the constant row carries the
        selected DFF population's per-cycle clock cap -- so a product
        against all-ones scales recovers :meth:`power_from_counts`'s
        capacitances (up to float summation order).
        """
        lib = self.library
        netlist = self.netlist
        present = sorted({g.gtype.name for g in netlist.gates})
        components = present + [WIRE_COMPONENT]
        comp_id = {name: i for i, name in enumerate(components)}
        wire = comp_id[WIRE_COMPONENT]

        tag_sel = self._tag_mask(tag_prefix)
        net_sel = tag_sel[self._net_tag_idx]
        net_weights = np.zeros((netlist.num_nets, len(components)))
        fanout = netlist.fanout_map()
        for net in range(netlist.num_nets):
            if not net_sel[net]:
                continue
            driver = netlist.driver_of(net)
            if driver is not None:
                net_weights[net, comp_id[driver.gtype.name]] += lib.output_cap[
                    driver.gtype
                ]
            for gate_idx, _pin in fanout[net]:
                reader = netlist.gates[gate_idx]
                net_weights[net, comp_id[reader.gtype.name]] += lib.input_cap[
                    reader.gtype
                ]
                net_weights[net, wire] += lib.wire_cap

        dffe_weights = np.zeros((len(self.dffe_gates), len(components)))
        if self.dffe_gates:
            dffe_sel = tag_sel[self._dffe_tag_idx]
            dffe_weights[dffe_sel, comp_id[GateType.DFFE.name]] = lib.dffe_clock_cap

        dff_weight = np.zeros(len(components))
        n_selected_dff = int(np.where(tag_sel, self._dff_tag_counts, 0).sum())
        if n_selected_dff:
            dff_weight[comp_id[GateType.DFF.name]] = n_selected_dff * lib.dff_clock_cap

        return CapDecomposition(
            components=components,
            net_weights=net_weights,
            dffe_weights=dffe_weights,
            dff_weight=dff_weight,
        )

    def theoretical_max_uw(self) -> float:
        """Hard physical ceiling on any power this estimator can report.

        Every net toggles every cycle in every pattern, every DFFE loads
        every cycle, every DFF clocks every cycle.  The per-cycle
        normalisation cancels the cycle count, so the bound is a single
        number per netlist.  Any reported power above it is corrupt --
        a flipped exponent bit, an overflowed accumulator -- no matter
        which fault produced it.
        """
        lib = self.library
        cap_ff = (
            float(self.net_cap_ff.sum())
            + len(self.dffe_gates) * lib.dffe_clock_cap
            + self.n_dff * lib.dff_clock_cap
        )
        return cap_ff * lib.energy_per_ff() * lib.f_clk * 1e6

    def _check_counters(
        self,
        toggles: np.ndarray,
        load_events: np.ndarray,
        cycles: int,
        patterns: int,
    ) -> None:
        """Bound-check toggle/load counters at the accumulation boundary.

        A toggle count is a popcount over patterns accumulated once per
        settle, so no net can exceed ``cycles x patterns``; a DFFE loads
        at most once per cycle per pattern.  A counter outside those
        bounds means the simulation state itself is corrupt, and the
        offending net is named so the error points at the gate where the
        bad value entered, not at the final table.
        """
        limit = cycles * patterns
        if toggles.min(initial=0) < 0 or toggles.max(initial=0) > limit:
            bad = int(np.flatnonzero((toggles < 0) | (toggles > limit))[0])
            raise IntegrityError(
                f"net {self.netlist.net_names[bad]!r} reports {toggles[bad]} "
                f"toggles; the physical bound is {limit} "
                f"({cycles} cycles x {patterns} patterns)"
            )
        loads = load_events
        if loads.size and (loads.min() < 0 or loads.max() > limit):
            bad_row = int(np.flatnonzero((loads < 0) | (loads > limit))[0])
            gate = self.dffe_gates[bad_row]
            raise IntegrityError(
                f"register {gate.name!r} reports {loads[bad_row]} load "
                f"events; the physical bound is {limit}"
            )

    def _tag_selected(self, tag: str, prefix: str | None) -> bool:
        return prefix is None or tag.startswith(prefix)

    def _tag_mask(self, prefix: str | None) -> np.ndarray:
        """Boolean mask over interned tags selected by ``prefix`` (cached)."""
        mask = self._prefix_cache.get(prefix)
        if mask is None:
            mask = np.array(
                [self._tag_selected(t, prefix) for t in self._tags], dtype=bool
            )
            self._prefix_cache[prefix] = mask
        return mask

    def power(self, sim: CycleSimulator, tag_prefix: str | None = None) -> PowerResult:
        """Average power from a finished simulation run.

        Args:
            sim: simulator built with ``count_toggles=True`` after running.
            tag_prefix: restrict to nets/registers driven by gates whose tag
                starts with this prefix (e.g. ``"dp"`` for datapath power).
        """
        if not sim.count_toggles:
            raise ValueError("simulator was not counting toggles")
        if sim.toggle_blocks is not None:
            raise ValueError(
                "simulator counts toggles per block; convert each block's "
                "counters with power_from_counts()"
            )
        if sim.cycles_run == 0:
            raise ValueError("no cycles simulated")
        self._check_counters(sim.toggles, sim.load_events, sim.cycles_run, sim.n_patterns)
        return self.power_from_counts(
            sim.toggles, sim.load_events, sim.cycles_run, sim.n_patterns, tag_prefix
        )

    def power_from_counts(
        self,
        toggles: np.ndarray,
        load_events: np.ndarray,
        cycles: int,
        patterns: int,
        tag_prefix: str | None = None,
    ) -> PowerResult:
        """Toggle/load counters -> :class:`PowerResult` (the shared core).

        ``toggles`` is a 1-D per-net count array, ``load_events`` a 1-D
        per-DFFE count array.  All tag machinery is the interned-index
        form built once at construction, so the conversion is a handful
        of array reductions regardless of design size.
        """
        lib = self.library
        denom = cycles * patterns
        e_ff = lib.energy_per_ff()

        tag_sel = self._tag_mask(tag_prefix)
        n_tags = len(self._tags)

        per_net_ff = toggles * self.net_cap_ff
        net_sel = tag_sel[self._net_tag_idx]
        sw_energy_ff = float((per_net_ff * net_sel).sum())

        # Per-tag switching energy over toggling, selected nets.
        active = net_sel & (toggles != 0)
        sw_by_tag = np.bincount(
            self._net_tag_idx[active], weights=per_net_ff[active], minlength=n_tags
        )
        tag_present = np.bincount(self._net_tag_idx[active], minlength=n_tags) > 0

        # Clock energy: DFFEs burn per load event, plain DFFs every cycle.
        clk_by_tag = np.zeros(n_tags)
        if len(self.dffe_gates):
            dffe_sel = tag_sel[self._dffe_tag_idx]
            clk_by_tag += np.bincount(
                self._dffe_tag_idx[dffe_sel],
                weights=load_events[dffe_sel] * lib.dffe_clock_cap,
                minlength=n_tags,
            )
            tag_present |= np.bincount(self._dffe_tag_idx[dffe_sel], minlength=n_tags) > 0
        clk_by_tag += np.where(tag_sel, self._dff_tag_counts, 0) * (
            denom * lib.dff_clock_cap
        )
        tag_present |= tag_sel & (self._dff_tag_counts > 0)
        clk_energy_ff = float(clk_by_tag.sum())

        by_tag_ff = {
            self._tags[i] or "(untagged)": float(sw_by_tag[i] + clk_by_tag[i])
            for i in np.nonzero(tag_present)[0]
        }

        to_uw = e_ff * lib.f_clk / denom * 1e6
        total_uw = (sw_energy_ff + clk_energy_ff) * to_uw
        if not math.isfinite(total_uw):
            raise IntegrityError(
                f"estimated power is non-finite ({total_uw!r} uW) -- "
                f"switching {sw_energy_ff!r} fF, clock {clk_energy_ff!r} fF"
            )
        return PowerResult(
            total_uw=total_uw,
            switching_uw=sw_energy_ff * to_uw,
            clock_uw=clk_energy_ff * to_uw,
            by_tag={k: v * to_uw for k, v in sorted(by_tag_ff.items())},
            cycles=cycles,
            patterns=patterns,
        )
