"""The population kernel: a manufactured fleet priced by one matmul.

Power is a linear functional of per-row activity (``power_from_counts``),
and activity is instance-independent -- so the dynamic power of every
instance of a fleet under every fault is one matrix product::

    P[instances x faults] = S[instances x types] @ (W.T @ A)[types x faults]

where ``A`` holds the converged mean activity per counter row (from an
:mod:`~repro.fleet.activity` campaign), ``W`` the estimator's
per-row, per-gate-type capacitance
(:class:`~repro.power.estimator.CapDecomposition`) and ``S`` each
instance's per-gate-type log-normal process scales.  ``W.T @ A`` is
contracted once per design, so each instance and fault costs about a
dozen multiply-adds (one per gate type), not one per counter row.  A
million-instance threshold ROC therefore costs one Monte-Carlo campaign
plus chunked float64 matmuls -- about 10^6 x cheaper than re-simulating
per instance.

The measurement model follows the paper's test setup: a tester measures
total supply power, subtracts its quiescent (IDDQ) measurement, and
compares the remaining dynamic power against the expected fault-free
value with a +/- threshold band (Section 6's +/-5 %).  Process spread
enters through per-gate-type capacitance and leakage scales; tester
noise multiplies each measurement.  At zero sigma every instance is the
nominal chip and the kernel reproduces the scalar grading verdicts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.errors import CampaignError, IntegrityError
from ..power.estimator import CapDecomposition, PowerEstimator
from ..power.iddq import quiescent_leakage_components
from .activity import ActivityCampaign

#: instances per sampled chunk; fixed (never tuned per run) so the
#: per-chunk RNG streams -- seeded ``[seed, chunk_index]`` -- make every
#: drawn scale reproducible regardless of how many chunks a host machine
#: processes per second.
FLEET_CHUNK_INSTANCES = 16384

#: default threshold grid swept by the ROC (fractions; 0.05 is the
#: paper's +/-5 % band)
DEFAULT_THRESHOLDS = (
    0.005,
    0.01,
    0.015,
    0.02,
    0.03,
    0.04,
    0.05,
    0.075,
    0.10,
    0.15,
    0.20,
)


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of one fleet-calibration run (all deterministic given seed)."""

    instances: int = 100_000
    #: per-gate-type log-normal sigma of capacitance spread
    sigma_cap: float = 0.05
    #: per-gate-type log-normal sigma of quiescent-leakage spread
    sigma_leak: float = 0.30
    #: multiplicative tester measurement noise sigma
    sigma_meas: float = 0.02
    #: tolerated fault-free yield loss (fraction of good chips failed)
    yield_budget: float = 0.01
    seed: int = 7
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS

    def validate(self) -> None:
        if self.instances < 1:
            raise CampaignError(f"instances must be >= 1, got {self.instances}")
        for name in ("sigma_cap", "sigma_leak", "sigma_meas"):
            v = getattr(self, name)
            if not 0 <= v < 1:
                raise CampaignError(f"{name} must be in [0, 1), got {v}")
        if not 0 <= self.yield_budget < 1:
            raise CampaignError(
                f"yield_budget must be in [0, 1), got {self.yield_budget}"
            )
        if not self.thresholds or any(not 0 < t < 1 for t in self.thresholds):
            raise CampaignError(
                f"thresholds must be fractions in (0, 1), got {self.thresholds}"
            )
        if list(self.thresholds) != sorted(set(self.thresholds)):
            raise CampaignError("thresholds must be strictly increasing")

    def params_dict(self) -> dict:
        """Canonical parameter dict (store keys, reports, fingerprints)."""
        return {
            "instances": self.instances,
            "sigma_cap": self.sigma_cap,
            "sigma_leak": self.sigma_leak,
            "sigma_meas": self.sigma_meas,
            "yield_budget": self.yield_budget,
            "seed": self.seed,
            "thresholds": list(self.thresholds),
        }


def activity_matrix(
    campaign: ActivityCampaign,
    estimator: PowerEstimator,
    fault_keys: list[str] | None = None,
) -> np.ndarray:
    """Stack the campaign's mean activities into ``A[rows x (1+faults)]``.

    Row layout matches :meth:`CapDecomposition.stack`: per-net toggle
    rows, per-DFFE load rows, then one constant row (always 1.0 -- the
    plain-DFF clock burns every cycle-pattern).  Column 0 is the
    fault-free machine, then one column per fault of ``fault_keys``
    (default: every campaign fault, in campaign order).
    Entries are mean transitions per cycle-pattern, so the product
    against fF-per-transition weights is fF switched per cycle-pattern
    -- no further normalisation needed downstream.
    """
    n_nets = estimator.netlist.num_nets
    n_dffe = len(estimator.dffe_gates)
    keys = campaign.fault_keys if fault_keys is None else fault_keys
    results = [campaign.baseline] + [campaign.by_key[k] for k in keys]
    A = np.empty((n_nets + n_dffe + 1, len(results)), dtype=np.float64)
    for j, mc in enumerate(results):
        assert mc.activity is not None
        toggles, loads = mc.activity.mean_activity()
        A[:n_nets, j] = toggles
        A[n_nets : n_nets + n_dffe, j] = loads
        A[-1, j] = 1.0
    return A


@dataclass
class FleetResult:
    """ROC of one design's fleet over the threshold grid.

    All counts are exact integers, so :meth:`to_json_dict` is
    byte-identical across runs of the same configuration; wall-clock
    timings live on separate fields that the JSON form deliberately
    excludes.
    """

    design: str
    params: dict
    fault_keys: list[str]
    #: reference dynamic power the tester compares against (the scalar
    #: grading baseline -- bit-identical to ``fault_free_uw``)
    p_ref_uw: float
    #: nominal (all-scales-one) matmul powers, column order = baseline
    #: then faults; equals the scalar campaign means up to float
    #: summation order
    nominal_uw: list[float]
    #: nominal fault-free quiescent leakage
    leak_uw: float
    thresholds: list[float]
    #: fault-free instances failed per threshold (yield loss numerator)
    yield_fail: list[int]
    #: undetected faulty instances per threshold per fault
    escapes: list[list[int]]
    #: adaptive chooser verdict: smallest threshold meeting the
    #: yield-loss budget (see :func:`choose_threshold`)
    chosen: dict
    # -- timings (excluded from the deterministic JSON form) --
    matmul_s: float = field(default=0.0, compare=False)
    wall_s: float = field(default=0.0, compare=False)

    @property
    def instances(self) -> int:
        return int(self.params["instances"])

    @property
    def throughput(self) -> float:
        """Population kernel rate in instances * faults per wall second."""
        if self.wall_s <= 0:
            return 0.0
        return self.instances * max(1, len(self.fault_keys)) / self.wall_s

    def roc(self) -> list[dict]:
        """Per-threshold operating points: yield loss vs escape rate."""
        n = self.instances
        n_faults = max(1, len(self.fault_keys))
        return [
            {
                "threshold": t,
                "yield_loss": self.yield_fail[i] / n,
                "escape_rate": sum(self.escapes[i]) / (n * n_faults),
                "escapes": sum(self.escapes[i]),
            }
            for i, t in enumerate(self.thresholds)
        ]

    def to_json_dict(self) -> dict:
        return {
            "design": self.design,
            "params": self.params,
            "fault_keys": list(self.fault_keys),
            "p_ref_uw": self.p_ref_uw,
            "nominal_uw": list(self.nominal_uw),
            "leak_uw": self.leak_uw,
            "thresholds": list(self.thresholds),
            "yield_fail": list(self.yield_fail),
            "escapes": [list(row) for row in self.escapes],
            "chosen": self.chosen,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FleetResult":
        return cls(
            design=data["design"],
            params=dict(data["params"]),
            fault_keys=list(data["fault_keys"]),
            p_ref_uw=float(data["p_ref_uw"]),
            nominal_uw=[float(v) for v in data["nominal_uw"]],
            leak_uw=float(data["leak_uw"]),
            thresholds=[float(t) for t in data["thresholds"]],
            yield_fail=[int(v) for v in data["yield_fail"]],
            escapes=[[int(v) for v in row] for row in data["escapes"]],
            chosen=dict(data["chosen"]),
        )


def choose_threshold(
    thresholds: list[float],
    yield_fail: list[int],
    escapes: list[list[int]],
    instances: int,
    yield_budget: float,
) -> dict:
    """Smallest threshold whose fault-free yield loss fits the budget.

    Tightening the band catches more faults but fails more good chips;
    the chooser walks the grid from the tight end and stops at the first
    threshold whose yield loss is within budget -- the best escape rate
    the budget buys.  If even the loosest threshold overruns the budget,
    the loosest is returned with ``met_budget=False``.
    """
    n_faults = max(1, len(escapes[0]) if escapes else 1)
    pick = len(thresholds) - 1
    met = False
    for i in range(len(thresholds)):
        if yield_fail[i] / instances <= yield_budget:
            pick = i
            met = True
            break
    return {
        "threshold": thresholds[pick],
        "yield_loss": yield_fail[pick] / instances,
        "escape_rate": sum(escapes[pick]) / (instances * n_faults),
        "met_budget": met,
    }


def run_population(
    estimator: PowerEstimator,
    decomp: CapDecomposition,
    A: np.ndarray,
    fault_keys: list[str],
    config: FleetConfig,
    p_ref_uw: float,
    design: str = "",
) -> FleetResult:
    """Sample the fleet and sweep the threshold grid over one matmul chain.

    ``W.T @ A`` is contracted once, scaled to microwatts.  Then per chunk
    of at most :data:`FLEET_CHUNK_INSTANCES` instances, drawn from an
    independent ``default_rng([seed, chunk])`` stream (chunking is
    therefore invisible to the statistics):

    1. per-gate-type capacitance scales ``S = exp(sigma_cap * N)`` and
       leakage scales ``exp(sigma_leak * N)`` (log-normal, mean ~1);
    2. dynamic power ``P = S @ (W.T @ A)``;
    3. tester measurements: total power and IDDQ, each with independent
       multiplicative noise; the reported dynamic power is their
       difference, so the leakage *mean* cancels and only its spread and
       the noise remain;
    4. the relative deviation from ``p_ref_uw``, computed in place and
       sorted per column, is counted against the threshold grid by
       binary search: column 0 failures (``> t``) are yield loss,
       fault-column passes (``<= t``) are escapes.  A non-finite
       deviation would fit neither side, so it raises
       :class:`IntegrityError`.

    ``matmul_s`` holds the matmul time alone; ``wall_s`` the whole
    kernel (RNG, matmul, noise and counting), which is the throughput
    denominator.
    """
    config.validate()
    if not 0 < p_ref_uw:
        raise IntegrityError(f"fleet reference power must be positive, got {p_ref_uw}")
    wall_t0 = time.perf_counter()
    lib = estimator.library
    W = decomp.stack()  # (rows, types) fF per transition
    if A.shape[0] != W.shape[0]:
        raise IntegrityError(
            f"activity matrix has {A.shape[0]} rows, decomposition has "
            f"{W.shape[0]}; the campaign and the estimator disagree"
        )
    to_uw = lib.energy_per_ff() * lib.f_clk * 1e6  # fF/cycle-pattern -> uW
    leak_by_type = quiescent_leakage_components(estimator.netlist, lib)
    L = np.array(
        [leak_by_type.get(name, 0.0) for name in decomp.components], dtype=np.float64
    )
    thresholds = np.asarray(config.thresholds, dtype=np.float64)

    n_cols = A.shape[1]
    ones = np.ones((1, W.shape[1]), dtype=np.float64)
    nominal = ((ones @ W.T) @ A)[0] * to_uw
    WA = (W.T @ A) * to_uw  # (types, 1+faults) uW per unit scale

    yield_fail = np.zeros(len(thresholds), dtype=np.int64)
    escapes = np.zeros((len(thresholds), n_cols - 1), dtype=np.int64)
    matmul_s = 0.0
    done = 0
    chunk_idx = 0
    while done < config.instances:
        n = min(FLEET_CHUNK_INSTANCES, config.instances - done)
        rng = np.random.default_rng([config.seed, chunk_idx])
        S = np.exp(config.sigma_cap * rng.standard_normal((n, W.shape[1])))
        leak_scale = np.exp(config.sigma_leak * rng.standard_normal((n, W.shape[1])))
        eps_total = rng.standard_normal((n, n_cols))
        eps_iddq = rng.standard_normal(n)

        t0 = time.perf_counter()
        rel = S @ WA  # dynamic power P, overwritten in place by the deviation
        matmul_s += time.perf_counter() - t0

        leak = leak_scale @ L  # (n,) uW per instance
        eps_total *= config.sigma_meas
        eps_total += 1.0
        rel += leak[:, None]
        rel *= eps_total  # measured total power
        rel -= (leak * (1.0 + config.sigma_meas * eps_iddq))[:, None]  # minus IDDQ
        rel /= p_ref_uw
        rel -= 1.0
        np.abs(rel, out=rel)
        if not np.isfinite(rel).all():
            raise IntegrityError(
                f"fleet {design!r}: chunk {chunk_idx} has non-finite power "
                "deviations; the activity matrix or the reference is corrupt"
            )
        # #(rel <= t) per column: column 0's complement is yield loss,
        # the fault columns' counts are escapes
        rel.sort(axis=0)
        passed = np.stack(
            [np.searchsorted(col, thresholds, side="right") for col in rel.T], axis=1
        )
        yield_fail += n - passed[:, 0]
        escapes += passed[:, 1:]
        done += n
        chunk_idx += 1

    chosen = choose_threshold(
        [float(t) for t in thresholds],
        [int(v) for v in yield_fail],
        [[int(v) for v in row] for row in escapes],
        config.instances,
        config.yield_budget,
    )
    return FleetResult(
        design=design,
        params=config.params_dict(),
        fault_keys=list(fault_keys),
        p_ref_uw=p_ref_uw,
        nominal_uw=[float(v) for v in nominal],
        leak_uw=float(L.sum()),
        thresholds=[float(t) for t in thresholds],
        yield_fail=[int(v) for v in yield_fail],
        escapes=[[int(v) for v in row] for row in escapes],
        chosen=chosen,
        matmul_s=matmul_s,
        wall_s=time.perf_counter() - wall_t0,
    )
