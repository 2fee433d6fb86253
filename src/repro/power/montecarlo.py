"""Monte-Carlo power estimation for controller-datapath systems.

The paper grades SFR faults by "simulating the faulty circuit for random
data until the power converges" (Section 5).  ``monte_carlo_power`` runs
batches of random computations through the (optionally faulted) system and
stops when the running mean of the datapath power settles within a
relative tolerance, or a batch budget is exhausted.

``monte_carlo_power_block`` is the campaign kernel every grading
campaign runs: each fault of a chunk owns one pattern block of a single
wide block-parallel simulator, per-fault convergence is tracked exactly
as the per-fault loop does, and converged faults are compacted out of
the next pass's simulator.  No stream can converge before
``MC_MIN_BATCHES``, so the first pass lays those batches side by side
(:func:`first_pass_batches`): fault ``f``'s block holds one word-aligned
sub-block per batch, the counters are kept per (fault, batch), and the
convergence rule reads them in batch order.  Every later batch is one
pass of its own over the still-unconverged faults.  Each pass applies
the cone restriction: one fault-free reference run per batch group (the
first pass's batches side by side, then each later batch) supplies the
toggle counts of every net outside a fault's sequential fanout cone
(those nets provably never diverge -- see docs/performance.md), and only
the chunk's union cone is simulated.  A batch size that is not a
multiple of 64 pads each batch's last word, and the padding bits are
masked out of the load counters.  The campaign replays its batches from
``precompute_batches``, which packs each batch as a
:class:`NormalModeStimulus` exactly once (``shared_batches`` memoizes
that list on the system object, so pool workers regenerate it locally
instead of receiving it pickled).

``monte_carlo_power`` is the per-fault reference: it draws each batch
from the seed as it goes and simulates the whole netlist, and the
kernel's per-fault ``MonteCarloResult`` is bit-identical to it.  It runs
for the grading audit, for the devices under test of fault diagnosis and
for ``worstcase``.

``monte_carlo_baseline`` is the fault-free result of the same campaign,
read off those per-group fault-free reference runs (one memo serves it
and the kernel) instead of simulating the batches a second time.  All
three share one convergence rule (``_Convergence``).
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from ..core.errors import CampaignError, IntegrityError
from ..hls.system import NormalModeStimulus, System
from ..logic import values as V
from ..logic.cones import compute_cones
from ..logic.faults import FaultSite
from ..logic.simulator import CycleSimulator, compile_netlist
from .estimator import PowerEstimator, PowerResult

DATAPATH_TAG = "dp"

#: shared Monte-Carlo campaign defaults -- one definition keeps
#: ``monte_carlo_power``, ``grade_sfr_faults`` and every store key
#: derived from them in agreement.
MC_DEFAULT_SEED = 2000
MC_DEFAULT_BATCH_PATTERNS = 192
MC_DEFAULT_MAX_BATCHES = 12
MC_DEFAULT_ITERATIONS_WINDOW = 4
#: the convergence rule: stop once the cumulative mean moved by less
#: than ``MC_REL_TOL`` (relative) over the last batch, after at least
#: ``MC_MIN_BATCHES`` batches
MC_MIN_BATCHES = 3
MC_REL_TOL = 0.004


def mc_campaign_params(
    seed: int, batch_patterns: int, max_batches: int, iterations_window: int
) -> dict:
    """The result-relevant knobs of one Monte-Carlo grading campaign.

    Two campaigns with equal params (and equal design + fault universe)
    produce bit-identical powers, so this dict keys the persistent
    store entries of the campaign.  Every campaign builds it before
    simulating, so it is also where batch knobs below 1 are rejected.
    """
    if batch_patterns < 1 or max_batches < 1:
        raise CampaignError(
            f"batch_patterns and max_batches must be >= 1 "
            f"(got {batch_patterns}, {max_batches})"
        )
    return {
        "seed": seed,
        "batch_patterns": batch_patterns,
        "max_batches": max_batches,
        "iterations_window": iterations_window,
    }


def _run_batch(
    system: System, stim: NormalModeStimulus, fault: FaultSite | None
) -> CycleSimulator:
    """Simulate one batch stimulus and return the counting simulator."""
    sim = CycleSimulator(
        system.netlist,
        stim.n_patterns,
        faults=[fault] if fault else None,
        count_toggles=True,
    )
    for cycle in range(stim.n_cycles):
        stim.apply(sim, cycle)
        sim.settle()
        sim.latch()
    return sim


@dataclass
class ActivityTrace:
    """Per-batch integer activity counters of one Monte-Carlo run.

    ``toggles[b]`` / ``load_events[b]`` are the exact per-net toggle and
    per-DFFE load counters batch ``b`` accumulated -- the *integer*
    sufficient statistic behind every float in the power pipeline.
    Keeping the per-batch resolution (instead of a summed matrix) is
    what makes recovery bit-identical: replaying
    ``power_from_counts`` per batch and averaging visits the very same
    float operands in the very same order as the original campaign
    (see :func:`recovered_power_uw`).
    """

    toggles: np.ndarray  # (batches, num_nets) int64
    load_events: np.ndarray  # (batches, n_dffe) int64
    cycles: int  # settled cycles per batch
    patterns: int  # patterns per batch

    @property
    def batches(self) -> int:
        return int(self.toggles.shape[0])

    def mean_activity(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean transitions per cycle-pattern: per-net and per-DFFE rows.

        Integer sums divided once by the total ``batches * cycles *
        patterns`` denominator -- exact integers in, one float divide
        out.  These are the columns of the fleet activity matrix ``A``.
        """
        denom = float(self.batches * self.cycles * self.patterns)
        return (
            self.toggles.sum(axis=0, dtype=np.int64) / denom,
            self.load_events.sum(axis=0, dtype=np.int64) / denom,
        )

    def to_json_dict(self) -> dict:
        return {
            "toggles": self.toggles.tolist(),
            "load_events": self.load_events.tolist(),
            "cycles": self.cycles,
            "patterns": self.patterns,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ActivityTrace":
        def rows(key: str) -> np.ndarray:
            arr = np.asarray(data[key], dtype=np.int64)
            if arr.ndim == 1:  # no batches, or zero counters per batch
                arr = arr.reshape(len(data[key]), 0)
            return arr

        return cls(
            toggles=rows("toggles"),
            load_events=rows("load_events"),
            cycles=int(data["cycles"]),
            patterns=int(data["patterns"]),
        )


@dataclass
class MonteCarloResult:
    """Converged Monte-Carlo power estimate."""

    power_uw: float
    batches: int
    patterns: int
    history: list[float] = field(default_factory=list)
    converged: bool = True
    #: per-batch integer counters (only with ``capture_activity=True``);
    #: deliberately excluded from the JSON forms below so the grading
    #: store artifact and the baseline seeds stay scalar -- activity
    #: persists through its own store artifact (:func:`traced_json_dict`).
    activity: "ActivityTrace | None" = field(
        default=None, compare=False, repr=False
    )

    def to_json_dict(self) -> dict:
        """JSON-safe form for store entries.

        Floats round-trip exactly through JSON, so a result replayed from
        the store is bit-identical to the freshly computed one.  A NaN or
        infinite power is a corrupted computation: serializing it would
        smuggle the corruption into the store and reports, so it is
        rejected here (and by ``to_json``'s ``allow_nan=False``).
        """
        if not all(math.isfinite(v) for v in [self.power_uw, *self.history]):
            raise IntegrityError(
                f"refusing to serialize a non-finite Monte-Carlo power "
                f"(power_uw={self.power_uw!r}, history={self.history!r})"
            )
        return {
            "power_uw": self.power_uw,
            "batches": self.batches,
            "patterns": self.patterns,
            "history": list(self.history),
            "converged": self.converged,
        }

    def to_json(self) -> str:
        """Strict JSON encoding (``allow_nan=False``)."""
        return json.dumps(self.to_json_dict(), allow_nan=False)

    @classmethod
    def from_json_dict(cls, data: dict) -> "MonteCarloResult":
        return cls(
            power_uw=float(data["power_uw"]),
            batches=int(data["batches"]),
            patterns=int(data["patterns"]),
            history=[float(h) for h in data["history"]],
            converged=bool(data["converged"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "MonteCarloResult":
        return cls.from_json_dict(json.loads(text))


def traced_json_dict(mc: MonteCarloResult) -> dict:
    """JSON form of a result *with* its activity trace (``activity`` stage)."""
    assert mc.activity is not None
    return {"mc": mc.to_json_dict(), "activity": mc.activity.to_json_dict()}


def traced_from_json_dict(data: dict) -> MonteCarloResult:
    mc = MonteCarloResult.from_json_dict(data["mc"])
    mc.activity = ActivityTrace.from_json_dict(data["activity"])
    return mc


def trace_powers(
    estimator: PowerEstimator,
    trace: ActivityTrace,
    tag_prefix: str | None = DATAPATH_TAG,
) -> list[PowerResult]:
    """Each batch's :class:`PowerResult`, priced from its stored counters.

    :meth:`~repro.power.estimator.PowerEstimator.power_from_counts` per
    batch, every batch's counters bound-checked first: the very same
    float operands the original campaign priced.
    """
    results = []
    for b in range(trace.batches):
        counts = (trace.toggles[b], trace.load_events[b], trace.cycles, trace.patterns)
        estimator._check_counters(*counts)
        results.append(estimator.power_from_counts(*counts, tag_prefix))
    return results


def recovered_power_uw(
    estimator: PowerEstimator,
    trace: ActivityTrace,
    tag_prefix: str | None = DATAPATH_TAG,
) -> float:
    """Scalar Monte-Carlo power recomputed from stored integer counters.

    Averages :func:`trace_powers` -- the very same float operands in the
    very same order as the original campaign, so the result is
    *bit-identical* to the ``power_uw`` the simulation reported (the
    per-batch integers are the sufficient statistic; every downstream
    float is a pure function of them).
    """
    totals = [p.total_uw for p in trace_powers(estimator, trace, tag_prefix)]
    return float(np.mean(totals))


def verify_trace(estimator: PowerEstimator, key: str, mc: MonteCarloResult) -> None:
    """One result's counters must reproduce its scalar power exactly.

    Runs on every freshly captured result before it is published (a
    disagreement means the capture path diverged from the float pipeline
    -- a bug) and on every store replay (a disagreement means a
    tampered-but-well-formed blob).
    """
    if mc.activity is None:
        raise IntegrityError(f"activity campaign result {key!r} carries no trace")
    trace = mc.activity
    n_nets = estimator.netlist.num_nets
    n_dffe = len(estimator.dffe_gates)
    if trace.toggles.shape != (mc.batches, n_nets) or trace.load_events.shape != (
        mc.batches,
        n_dffe,
    ):
        raise IntegrityError(
            f"activity trace of {key!r} has shape "
            f"{trace.toggles.shape}/{trace.load_events.shape}; expected "
            f"({mc.batches}, {n_nets}) / ({mc.batches}, {n_dffe})"
        )
    recovered = recovered_power_uw(estimator, trace)
    if recovered != mc.power_uw:
        raise IntegrityError(
            f"activity counters of {key!r} recover {recovered!r} uW but the "
            f"campaign recorded {mc.power_uw!r} uW; the integer trace and "
            f"the scalar grade must be the same measurement"
        )


def random_data(system: System, rng: np.random.Generator, n_patterns: int) -> dict[str, np.ndarray]:
    """Uniform random input data for every primary data input.

    Values are masked to the datapath width at generation time, so drivers
    downstream (``drive_bus`` asserts this) never see out-of-range words.
    """
    hi = 1 << system.rtl.width
    return {
        name: rng.integers(0, hi, n_patterns) & (hi - 1)
        for name in system.rtl.dfg.inputs
    }


def precompute_batches(
    system: System,
    seed: int = MC_DEFAULT_SEED,
    batch_patterns: int = MC_DEFAULT_BATCH_PATTERNS,
    max_batches: int = MC_DEFAULT_MAX_BATCHES,
    iterations_window: int = MC_DEFAULT_ITERATIONS_WINDOW,
    hold_cycles: int = 3,
) -> list[NormalModeStimulus]:
    """Materialise every Monte-Carlo batch as a packed stimulus, once.

    Drawing all ``max_batches`` batches from one RNG stream reproduces the
    exact per-batch data of the generate-per-call path, so early-converging
    runs simply ignore the tail of the list.
    """
    rng = np.random.default_rng(seed)
    n_cycles = system.cycles_for(iterations_window, hold_cycles)
    return [
        NormalModeStimulus(system, random_data(system, rng, batch_patterns), n_cycles)
        for _ in range(max_batches)
    ]


def shared_batches(
    system: System,
    seed: int = MC_DEFAULT_SEED,
    batch_patterns: int = MC_DEFAULT_BATCH_PATTERNS,
    max_batches: int = MC_DEFAULT_MAX_BATCHES,
    iterations_window: int = MC_DEFAULT_ITERATIONS_WINDOW,
    hold_cycles: int = 3,
) -> list[NormalModeStimulus]:
    """:func:`precompute_batches`, memoized per system object and knobs.

    Campaign workers regenerate their batches from the seed through this
    memo, so the parallel context pickled to each pool never carries the
    packed batch stimuli -- only the knobs (regeneration is bit-identical
    by construction: one RNG stream from one seed).  The memo lives on
    the system itself: every batch references its system, so a global
    table would keep each system -- and its golden-batch entries --
    alive for the life of the process.  ``System`` pickles its fields
    only, so the memo stays behind.
    """
    per_system = system.__dict__.setdefault("_mc_batches", {})
    params = (seed, batch_patterns, max_batches, iterations_window, hold_cycles)
    batches = per_system.get(params)
    if batches is None:
        batches = per_system[params] = precompute_batches(
            system,
            seed=seed,
            batch_patterns=batch_patterns,
            max_batches=max_batches,
            iterations_window=iterations_window,
            hold_cycles=hold_cycles,
        )
    return batches


def _check_knobs(
    batch_patterns: int, max_batches: int, min_batches: int, rel_tol: float
) -> None:
    if batch_patterns < 1 or max_batches < 1 or min_batches < 1:
        raise ValueError(
            "batch_patterns, max_batches and min_batches must all be >= 1 "
            f"(got {batch_patterns}, {max_batches}, {min_batches})"
        )
    if rel_tol <= 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")


def _batch_source(
    system: System,
    seed: int,
    batch_patterns: int,
    max_batches: int,
    iterations_window: int,
    hold_cycles: int,
    batches: list[NormalModeStimulus] | None,
):
    """``(batch_stim, max_batches)``: batch ``b`` (1-based) of a campaign.

    Precomputed ``batches`` are replayed (and cap ``max_batches``);
    otherwise each call draws the next batch from one RNG stream seeded
    with ``seed`` -- the same data :func:`precompute_batches` packs.
    """
    if batches is not None:
        return (lambda batch: batches[batch - 1]), min(max_batches, len(batches))
    rng = np.random.default_rng(seed)
    n_cycles = system.cycles_for(iterations_window, hold_cycles)

    def batch_stim(_batch: int) -> NormalModeStimulus:
        return NormalModeStimulus(
            system, random_data(system, rng, batch_patterns), n_cycles
        )

    return batch_stim, max_batches


class _Convergence:
    """Running-mean convergence of one Monte-Carlo stream.

    The stopping rule every Monte-Carlo loop shares: each batch's power
    joins a cumulative mean, and the stream converges once that mean
    moved by less than ``rel_tol`` (relative) over the last batch, after
    at least ``min_batches``.  With ``capture`` the per-batch integer
    counters are kept for the result's :class:`ActivityTrace`.
    """

    def __init__(self, min_batches: int, rel_tol: float, capture: bool, fault):
        self.min_batches = min_batches
        self.rel_tol = rel_tol
        self.capture = capture
        self.fault = fault
        self.totals: list[float] = []
        self.history: list[float] = []
        self.toggles: list[np.ndarray] = []
        self.loads: list[np.ndarray] = []
        self.last: PowerResult | None = None

    def add(
        self,
        batch: int,
        result: PowerResult,
        counts: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> MonteCarloResult | None:
        """Account batch ``batch``; the final result once it converges."""
        # Accumulation boundary guard: one bad batch must be caught here,
        # where it enters, not after it has been averaged into the final
        # table (a NaN poisons every later mean silently).
        if not math.isfinite(result.total_uw) or result.total_uw < 0:
            raise IntegrityError(
                f"Monte-Carlo batch {batch} produced an unusable power "
                f"{result.total_uw!r} uW (fault={self.fault!r})"
            )
        if self.capture:
            assert counts is not None
            self.toggles.append(counts[0])
            self.loads.append(counts[1])
        self.last = result
        self.totals.append(result.total_uw)
        mean = float(np.mean(self.totals))
        self.history.append(mean)
        # The mean can only have moved from the second batch on.
        if batch >= self.min_batches and batch > 1:
            prev = self.history[-2]
            if prev > 0 and abs(mean - prev) / prev < self.rel_tol:
                return MonteCarloResult(
                    power_uw=mean,
                    batches=batch,
                    patterns=batch * result.patterns,
                    history=self.history,
                    activity=self._trace(),
                )
        return None

    def unconverged(self, max_batches: int) -> MonteCarloResult:
        """The result of a stream that spent its whole batch budget."""
        last = self.last
        return MonteCarloResult(
            power_uw=float(np.mean(self.totals)),
            batches=max_batches,
            patterns=max_batches * (last.patterns if last is not None else 0),
            history=self.history,
            converged=False,
            activity=self._trace() if last is not None else None,
        )

    def _trace(self) -> ActivityTrace | None:
        if not self.capture:
            return None
        assert self.last is not None
        return ActivityTrace(
            toggles=np.stack(self.toggles),
            load_events=np.stack(self.loads),
            cycles=self.last.cycles,
            patterns=self.last.patterns,
        )


def monte_carlo_power(
    system: System,
    estimator: PowerEstimator,
    fault: FaultSite | None = None,
    seed: int = MC_DEFAULT_SEED,
    batch_patterns: int = MC_DEFAULT_BATCH_PATTERNS,
    max_batches: int = MC_DEFAULT_MAX_BATCHES,
    min_batches: int = MC_MIN_BATCHES,
    rel_tol: float = MC_REL_TOL,
    iterations_window: int = MC_DEFAULT_ITERATIONS_WINDOW,
    hold_cycles: int = 3,
    capture_activity: bool = False,
) -> MonteCarloResult:
    """Run random batches until the cumulative mean power converges.

    Convergence: the cumulative mean moved by less than ``rel_tol``
    (relative) over the last batch, after at least ``min_batches``.
    Each batch is drawn from one RNG stream seeded with ``seed`` as the
    loop reaches it -- the same data :func:`precompute_batches` packs.

    With ``capture_activity=True`` the result additionally carries an
    :class:`ActivityTrace` of the per-batch integer counters every float
    was derived from; powers, histories and convergence are bit-identical
    either way (every batch runs the same simulation and float pipeline;
    capture only snapshots the counters).
    """
    _check_knobs(batch_patterns, max_batches, min_batches, rel_tol)
    batch_stim, max_batches = _batch_source(
        system,
        seed,
        batch_patterns,
        max_batches,
        iterations_window,
        hold_cycles,
        None,
    )
    stream = _Convergence(min_batches, rel_tol, capture_activity, fault)
    for batch in range(1, max_batches + 1):
        sim = _run_batch(system, batch_stim(batch), fault)
        counts = sim.counter_snapshot() if capture_activity else None
        done = stream.add(batch, estimator.power(sim, tag_prefix=DATAPATH_TAG), counts)
        if done is not None:
            return done
    return stream.unconverged(max_batches)


def first_pass_batches(max_batches: int, min_batches: int = MC_MIN_BATCHES) -> int:
    """Batches the first simulation pass of a campaign lays side by side.

    No stream can converge before ``min_batches`` (:class:`_Convergence`),
    so every stream runs batches ``1..min(min_batches, max_batches)``
    whatever its data: those run as one pass.
    """
    return min(min_batches, max_batches)


def _batch_groups(max_batches: int, min_batches: int) -> list[list[int]]:
    """The 1-based batches of a campaign, one list per simulation pass.

    The first pass runs :func:`first_pass_batches` batches side by side;
    every later batch runs alone, so converged streams can be compacted
    out before it.
    """
    m = first_pass_batches(max_batches, min_batches)
    return [list(range(1, m + 1))] + [[b] for b in range(m + 1, max_batches + 1)]


@dataclass
class _GoldenGroup:
    """Fault-free reference of a batch group: per-cycle planes + counters."""

    planes: list[np.ndarray]  # (2, n_rows, batches * wpb) snapshot per settled cycle
    toggles: np.ndarray  # (batches, num_nets) fault-free toggle counts
    load_events: np.ndarray  # (batches, n_dffe) fault-free DFFE load counts
    cycles: int


# Golden runs, memoized per batch group of live stimulus objects (grading
# replays the same precomputed batches for every fault chunk and for the
# baseline, so each worker simulates each group's fault-free reference
# exactly once).
_GOLDEN_CACHE: dict[tuple[int, ...], _GoldenGroup] = {}


def _golden_group(system: System, stims: list[NormalModeStimulus]) -> _GoldenGroup:
    """One fault-free run over equal-shape ``stims`` side by side.

    Batch ``k`` occupies words ``[k * wpb, (k + 1) * wpb)``, its padding
    bits included, and the simulator's mask is each batch's tail mask:
    every block holds exactly what a simulator of that batch alone holds,
    and the counters are kept per batch.
    """
    key = tuple(map(id, stims))
    golden = _GOLDEN_CACHE.get(key)
    if golden is not None:
        return golden
    first = stims[0]
    assert all(
        (s.n_patterns, s.n_cycles) == (first.n_patterns, first.n_cycles)
        for s in stims
    )
    sim = CycleSimulator(
        system.netlist,
        len(stims) * V.num_words(first.n_patterns) * V.WORD_BITS,
        count_toggles=True,
        toggle_blocks=len(stims),
        mask=np.tile(V.tail_mask(first.n_patterns), len(stims)),
    )
    planes = []
    for cycle in range(first.n_cycles):
        drives = [s.drive_planes(cycle) for s in stims]
        for i, (net, _, _) in enumerate(drives[0]):
            sim.drive_words(
                net,
                np.concatenate([d[i][1] for d in drives]),
                np.concatenate([d[i][2] for d in drives]),
            )
        sim.settle()
        planes.append(sim.snapshot_planes())
        sim.latch()
    golden = _GoldenGroup(
        planes, sim.toggles.copy(), sim.load_events.copy(), sim.cycles_run
    )
    for stim in stims:
        weakref.finalize(stim, _GOLDEN_CACHE.pop, key, None)
    _GOLDEN_CACHE[key] = golden
    return golden


def monte_carlo_baseline(
    system: System,
    estimator: PowerEstimator,
    batches: list[NormalModeStimulus],
    max_batches: int = MC_DEFAULT_MAX_BATCHES,
) -> MonteCarloResult:
    """Fault-free Monte-Carlo power, read off the golden runs.

    The block kernel simulates each batch group's fault-free reference
    anyway (:func:`_golden_group`, memoized per group of stimulus
    objects); the baseline converts those counters through
    :meth:`~repro.power.estimator.PowerEstimator.power_from_counts` under
    the default convergence rule, counter bounds check and batch guard
    of :func:`monte_carlo_power`.  The result, its :class:`ActivityTrace`
    included, equals a fault-free ``monte_carlo_power(capture_activity=
    True)`` on the seed and knobs that drew ``batches``, field for field,
    without simulating any batch a second time.
    """
    if max_batches < 1:
        raise ValueError(f"max_batches must be >= 1, got {max_batches}")
    max_batches = min(max_batches, len(batches))
    stream = _Convergence(MC_MIN_BATCHES, MC_REL_TOL, True, None)
    for group in _batch_groups(max_batches, MC_MIN_BATCHES):
        golden = _golden_group(system, [batches[b - 1] for b in group])
        for j, batch in enumerate(group):
            n_patterns = batches[batch - 1].n_patterns
            counts = (golden.toggles[j], golden.load_events[j])
            estimator._check_counters(*counts, golden.cycles, n_patterns)
            result = estimator.power_from_counts(
                *counts, golden.cycles, n_patterns, DATAPATH_TAG
            )
            done = stream.add(batch, result, counts)
            if done is not None:
                return done
    return stream.unconverged(max_batches)


class _ConeBlockKernel:
    """Per-chunk cone-restricted block-parallel power kernel.

    Only a fault's sequential fanout cone can ever diverge from the
    fault-free machine (the PR-5 cone theorem, docs/performance.md), so a
    fault's power differs from golden only through the toggle counts of
    its cone nets and the load counts of its cone DFFEs.  One golden run
    per batch group (memoized across chunks) supplies every other
    counter; the chunk simulates just its union cone on the
    block-parallel :class:`~repro.logic.faultsim._ConeSim`, counting
    toggles over the union nets.  Counters are exact integers, so the
    resulting powers are bit-identical to a standalone faulted
    simulation's.  One instance serves every pass of an unchanged
    live-fault set and batch count (state reset and counters zeroed
    between passes); a new kernel is built when convergence compacts
    faults out or the batch count changes.

    A pass simulates ``n_batches`` batches side by side: fault ``f``'s
    block spans one ``V.num_words(n_patterns)``-word sub-block per batch,
    laid out as the golden group's planes are, and the counters are kept
    per (fault, batch) sub-block.  When the batch size is not a multiple
    of 64, the last word of every sub-block carries padding bits that
    full-word stem forces and branch poisons still set.  Those bits never
    toggle: every padding source (golden boundary rows, which are X
    there, forces, poisons and pinned constants) holds one value for the
    whole batch and the state starts all-X, so three-valued simulation
    only refines a padding bit from X to a known value and never flips
    it.  A load event, though, counts an enable's level, not a change, so
    the DFFE load counters see each sub-block through its tail mask (the
    simulator's ``count_mask``).
    """

    def __init__(
        self,
        system: System,
        estimator: PowerEstimator,
        faults: list[FaultSite],
        cones,
        n_batches: int,
        capture: bool = False,
    ):
        self.system = system
        self.estimator = estimator
        self.faults = list(faults)
        self.cones = cones
        self.n_batches = n_batches
        self.capture = capture
        #: (fault, batch, counter) snapshot of the last ``run`` (capture mode)
        self.last_counts: tuple[np.ndarray, np.ndarray] | None = None
        self.cs = None

    def _build(self, n_patterns: int) -> None:
        from ..logic.faultsim import _ConeSim

        netlist = self.system.netlist
        n_sub = len(self.faults) * self.n_batches
        wpb = V.num_words(n_patterns)
        self.cs = cs = _ConeSim(
            netlist,
            compile_netlist(netlist),
            self.faults,
            self.cones,
            [],
            self.n_batches * wpb,
            False,
            count_splits=self.n_batches,
        )
        cs.sim.count_mask = np.tile(V.tail_mask(n_patterns), n_sub)
        self.counted = np.array(sorted(cs.union_nets), dtype=np.int64)
        self.state = np.zeros((2, len(cs.state_rows), n_sub * wpb), dtype=np.uint64)
        # the union nets' planes after the previous and the current settle
        self.prev = np.empty((2, len(self.counted), n_sub * wpb), dtype=np.uint64)
        self.cur = np.empty_like(self.prev)

    def run(
        self, stims: list[NormalModeStimulus], tag_prefix: str | None
    ) -> list[list[PowerResult]]:
        """Powers of every live fault over ``stims``: ``[fault][batch]``."""
        assert len(stims) == self.n_batches
        golden = _golden_group(self.system, stims)
        n_patterns = stims[0].n_patterns
        n_blocks, n_batches = len(self.faults), self.n_batches
        n_sub = n_blocks * n_batches
        wpb = V.num_words(n_patterns)
        if self.cs is None:
            self._build(n_patterns)
        else:
            self.cs.sim.reset_state()
            self.cs.sim.load_events[:] = 0
            self.state[:] = 0
        cs, counted, state, prev, cur = (
            self.cs, self.counted, self.state, self.prev, self.cur,
        )
        sim = cs.sim
        # Per-word toggle counts accumulate over the cycles (at most 64
        # per word per cycle, so the dtype holds the whole pass) and
        # reduce to per-sub-block counters once, after the last cycle.
        words = np.zeros(
            (len(counted), n_sub * wpb),
            dtype=np.min_scalar_type(V.WORD_BITS * golden.cycles),
        )
        for cycle in range(golden.cycles):
            cs.run_cycle(golden.planes[cycle], state)
            np.take(sim._ZO, counted, axis=1, out=cur, mode="clip")
            if cycle:
                # flips, computed in place: ``prev`` is spent after this
                prev[0] &= cur[1]
                prev[1] &= cur[0]
                prev[0] |= prev[1]
                np.add(words, np.bitwise_count(prev[0]), out=words)
            prev, cur = cur, prev
            cs.latch(state)
        counts = (
            words.reshape(len(counted), n_sub, wpb).sum(axis=2, dtype=np.int64).T
        )
        # Splice: golden counters everywhere, simulated counters on the
        # union cone.  For a block whose fault's own cone is a strict
        # subset of the union, the extra union rows carry fault-free
        # values in that block (they are outside the fault's cone), so
        # the spliced counts still equal the standalone faulted run's.
        # Row ``f * n_batches + j`` is fault ``f`` on batch ``j``.
        estimator = self.estimator
        toggles = np.tile(golden.toggles, (n_blocks, 1))
        toggles[:, counted] = counts
        loads = np.tile(golden.load_events, (n_blocks, 1))
        for group in cs.seq_subs:
            if group.dffe_rows is not None:
                loads[:, group.dffe_rows] = sim.load_events[:, group.dffe_rows]
        toggles = toggles.reshape(n_blocks, n_batches, -1)
        loads = loads.reshape(n_blocks, n_batches, -1)
        if self.capture:
            # The spliced arrays above are freshly allocated each run, so
            # they are safe to hand out without another copy.
            self.last_counts = (toggles, loads)
        results = []
        for b in range(n_blocks):
            per_batch = []
            for j in range(n_batches):
                estimator._check_counters(
                    toggles[b, j], loads[b, j], golden.cycles, n_patterns
                )
                per_batch.append(
                    estimator.power_from_counts(
                        toggles[b, j], loads[b, j], golden.cycles, n_patterns,
                        tag_prefix,
                    )
                )
            results.append(per_batch)
        return results


def monte_carlo_power_block(
    system: System,
    estimator: PowerEstimator,
    faults: list[FaultSite],
    seed: int = MC_DEFAULT_SEED,
    batch_patterns: int = MC_DEFAULT_BATCH_PATTERNS,
    max_batches: int = MC_DEFAULT_MAX_BATCHES,
    min_batches: int = MC_MIN_BATCHES,
    rel_tol: float = MC_REL_TOL,
    iterations_window: int = MC_DEFAULT_ITERATIONS_WINDOW,
    hold_cycles: int = 3,
    batches: list[NormalModeStimulus] | None = None,
    capture_activity: bool = False,
) -> list[MonteCarloResult]:
    """Monte-Carlo power of a whole fault chunk in block-parallel passes.

    Returns one :class:`MonteCarloResult` per fault, bit-identical to
    calling :func:`monte_carlo_power` per fault with the same knobs --
    same ``power_uw``, ``batches``, ``patterns`` and ``history``.  The
    first pass simulates the :func:`first_pass_batches` batches every
    fault must run side by side; each later batch is one pass over the
    still-unconverged faults (converged faults are compacted out,
    exactly mirroring the serial loop's early return).  Every pass is
    one wide simulation restricted to the chunk's union fault cone.
    With ``capture_activity=True`` each result also carries its
    :class:`ActivityTrace` of per-batch integer counters (the counters
    the kernels already accumulate -- capture only snapshots them).

    Any batch size works: each batch pads to whole 64-bit words and
    counts only its real patterns' load events.  Pass ``batches`` (from
    :func:`shared_batches`) to replay packed batch stimuli across fault
    chunks; ``seed``/``batch_patterns`` are then ignored in favour of
    the precomputed data.  Callers are responsible for keeping chunks
    small enough for the first pass's simulator to fit in memory (the
    grading layer chunks accordingly).
    """
    faults = list(faults)
    if not faults:
        return []
    _check_knobs(batch_patterns, max_batches, min_batches, rel_tol)
    batch_stim, max_batches = _batch_source(
        system,
        seed,
        batch_patterns,
        max_batches,
        iterations_window,
        hold_cycles,
        batches,
    )
    cones = compute_cones(system.netlist, faults)
    streams = [_Convergence(min_batches, rel_tol, capture_activity, f) for f in faults]
    final: list[MonteCarloResult | None] = [None] * len(faults)
    live = list(range(len(faults)))
    kernel = None
    kernel_key: tuple | None = None
    for group in _batch_groups(max_batches, min_batches):
        stims = [batch_stim(batch) for batch in group]
        if kernel_key != (live, len(group)):
            # Convergence compaction: build a kernel one block per
            # still-unconverged fault; an unchanged live set and batch
            # count reuses the previous pass's simulator (state reset,
            # counters zeroed).
            live_faults = [faults[i] for i in live]
            kernel = _ConeBlockKernel(
                system, estimator, live_faults, cones, len(group), capture_activity
            )
            kernel_key = (list(live), len(group))
        assert kernel is not None
        powers = kernel.run(stims, DATAPATH_TAG)
        survivors = []
        for pos, i in enumerate(live):
            for j, batch in enumerate(group):
                counts = None
                if capture_activity:
                    assert kernel.last_counts is not None
                    counts = (
                        kernel.last_counts[0][pos, j],
                        kernel.last_counts[1][pos, j],
                    )
                final[i] = streams[i].add(batch, powers[pos][j], counts)
                if final[i] is not None:
                    break
            else:
                survivors.append(i)
        live = survivors
        if not live:
            break
    for i in live:
        final[i] = streams[i].unconverged(max_batches)
    assert all(r is not None for r in final)
    return final  # type: ignore[return-value]
