"""Power-signature diagnosis: *which* SFR fault is in the part?

A natural extension of the paper's detection method (Section 5 grades
faults by total power only): because the estimator can attribute power to
individual datapath components (registers, FUs, muxes -- see
``PowerResult.by_tag``), every SFR fault has a *signature*: the vector of
per-component power deviations from fault-free.  A fault that reloads
REG4 heats REG4; one that flips a multiplier's select heats the
multiplier.  Matching a measured signature against a precomputed
dictionary ranks the candidate faults.

On a real tester only total current is visible per supply pin, but cores
with per-domain power pins (the paper's "power management schemes
employed in large microchips can be potentially useful") expose exactly
this kind of vector.

The dictionary is the grading campaign itself: its per-batch integer
counters (:mod:`repro.fleet.activity`) priced per component, so every
signature's total equals the fault's graded power change exactly, and a
store holding the design's grade builds the dictionary without
simulating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..fleet.activity import activity_campaign
from ..hls.system import System
from ..logic.faults import FaultSite
from ..power.estimator import PowerEstimator
from ..power.montecarlo import ActivityTrace, monte_carlo_power, trace_powers
from ..store.cache import CampaignStore
from .pipeline import PipelineResult


@dataclass
class PowerSignature:
    """Per-component relative power deviation of one machine vs fault-free."""

    total_pct: float
    component_pct: dict[str, float] = field(default_factory=dict)

    def distance(self, other: "PowerSignature") -> float:
        """Euclidean distance over the union of components + total."""
        keys = set(self.component_pct) | set(other.component_pct)
        acc = (self.total_pct - other.total_pct) ** 2
        for k in keys:
            acc += (self.component_pct.get(k, 0.0) - other.component_pct.get(k, 0.0)) ** 2
        return math.sqrt(acc)


def _breakdown(estimator: PowerEstimator, trace: ActivityTrace) -> tuple[float, dict]:
    """Batch-average datapath power of one trace: total and per tag.

    The total averages :func:`~repro.power.montecarlo.trace_powers` as
    :func:`~repro.power.montecarlo.recovered_power_uw` does, so it is the
    campaign's scalar power bit for bit.
    """
    batches = trace_powers(estimator, trace)
    tags = sorted({t for p in batches for t in p.by_tag})
    return float(np.mean([p.total_uw for p in batches])), {
        t: float(np.mean([p.by_tag.get(t, 0.0) for p in batches])) for t in tags
    }


class PowerDictionary:
    """Fault signatures of one system, priced from activity traces."""

    def __init__(self, system: System, estimator: PowerEstimator, baseline: ActivityTrace):
        self.system = system
        self.estimator = estimator
        self._base_uw, self._base_tags = _breakdown(estimator, baseline)
        self.entries: dict[FaultSite, PowerSignature] = {}

    def signature(self, trace: ActivityTrace) -> PowerSignature:
        """The signature of one machine's activity trace."""
        total_uw, by_tag = _breakdown(self.estimator, trace)
        base_uw, base_tags = self._base_uw, self._base_tags
        return PowerSignature(
            total_pct=100.0 * (total_uw - base_uw) / base_uw,
            component_pct={
                tag: 100.0 * (by_tag.get(tag, 0.0) - base_tags.get(tag, 0.0)) / base_uw
                for tag in sorted(set(base_tags) | set(by_tag))
            },
        )

    def signature_of_machine(self, fault: FaultSite | None) -> PowerSignature:
        """Measure a 'device under test' on the per-fault Monte-Carlo oracle
        (bit-identical to the campaign kernel, at the same knobs)."""
        mc = monte_carlo_power(
            self.system, self.estimator, fault=fault, capture_activity=True
        )
        return self.signature(mc.activity)

    def diagnose(self, observed: PowerSignature, top: int = 5):
        """Rank dictionary faults by signature distance to ``observed``."""
        ranked = sorted(
            self.entries.items(), key=lambda kv: observed.distance(kv[1])
        )
        return [(site, observed.distance(sig)) for site, sig in ranked[:top]]


def build_dictionary(
    system: System, pipeline_result: PipelineResult, store: CampaignStore | None = None
) -> PowerDictionary:
    """Dictionary over every SFR fault of a pipeline result.

    The signatures price the design's activity campaign at the
    Monte-Carlo defaults (:func:`~repro.fleet.activity.activity_campaign`):
    replayed from ``store`` when it holds the design's grade, otherwise
    simulated once by the grading kernel (and published to ``store``).
    """
    estimator = PowerEstimator(system.netlist)
    campaign = activity_campaign(system, pipeline_result, estimator, store=store)
    dictionary = PowerDictionary(system, estimator, campaign.baseline.activity)
    for record, key in zip(pipeline_result.sfr_records, campaign.fault_keys):
        trace = campaign.by_key[key].activity
        dictionary.entries[record.system_site] = dictionary.signature(trace)
    return dictionary
