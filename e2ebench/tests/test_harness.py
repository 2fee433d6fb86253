"""Tests of the benchmark's own machinery (no program code runs here).

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness import (  # noqa: E402
    InputPlan,
    SpeedSampler,
    Tally,
    Tracer,
    coverage,
    covered,
    layer_totals,
    median,
    percentile,
)


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ------------------------------------------------------- nested span self time


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("request"):
        clock.now = 1.0
        with tracer.span("classify"):
            clock.now = 4.0
            with tracer.span("store.lookup"):
                clock.now = 5.0
            clock.now = 6.0
        with tracer.span("report"):
            clock.now = 6.5
        clock.now = 7.0
    (root,) = tracer.roots
    self_s, _ = layer_totals(tracer.roots)
    assert root.duration == 7.0
    assert self_s["request"] == pytest.approx(7.0 - 5.0 - 0.5)
    assert self_s["classify"] == pytest.approx(5.0 - 1.0)
    assert self_s["store.lookup"] == pytest.approx(1.0)
    assert self_s["report"] == pytest.approx(0.5)
    # self times partition the root's wall time exactly
    assert sum(self_s.values()) == pytest.approx(root.duration)


def test_self_time_sums_over_repeated_spans_and_counts_accumulate():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    for _ in range(3):
        with tracer.span("request"):
            with tracer.span("classify"):
                clock.now += 2.0
                tracer.count("classify.faults")
            tracer.count("classify.faults", 2)
            clock.now += 1.0
    self_s, counts = layer_totals(tracer.roots)
    assert self_s == {"request": pytest.approx(3.0), "classify": pytest.approx(6.0)}
    assert counts == {"classify.faults": 9}


def test_overlapping_children_are_not_double_counted():
    assert covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert covered([(2, 2), (3, 1)]) == 0.0


def test_span_on_another_thread_nests_under_the_open_root():
    tracer = Tracer()

    def handler():
        with tracer.span("service.campaign"):
            pass

    with tracer.span("serve.http"):
        worker = threading.Thread(target=handler)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
    (root,) = tracer.roots
    assert [c.name for c in root.children] == ["service.campaign"]


def test_coverage_counts_only_layer_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("request.grade"):
        with tracer.span("pipeline"):
            with tracer.span("classify"):
                clock.now = 8.0
            clock.now = 9.0
        clock.now = 10.0
    with tracer.span("serve.http"):
        clock.now = 12.0
    # 8 s of classify in a 10 s request, plus a 2 s read that is a layer
    assert coverage(tracer.roots, frozenset({"classify", "serve.http"})) == pytest.approx(10 / 12)


# ------------------------------------------------- percentile with sample count


def test_percentile_is_nearest_rank_with_its_sample():
    values = [float(v) for v in range(200, 0, -1)]  # 200..1, unsorted
    p50, p90 = percentile(values, 50), percentile(values, 90)
    assert (p50.value, p50.n) == (100.0, 200)
    assert (p90.value, p90.n) == (180.0, 200)
    assert p90.beyond == 20
    assert percentile([7.0], 90).value == 7.0
    assert percentile([7.0], 90).beyond == 0


def test_percentile_and_median_reject_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        median([])
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


# ---------------------------------------------------- host-speed normalization


def test_timed_block_drops_probe_time_and_rescales_to_reference_speed():
    clock = FakeClock()
    probe_s = [SpeedSampler.NOMINAL_S * 2]  # the host runs at half speed

    def kernel():
        clock.now += probe_s[0]

    sampler = SpeedSampler(kernel=kernel, clock=clock)
    with sampler.timed() as block:
        clock.now += 3.0  # program work
        sampler._on_alarm(None, None)  # a timer sample lands mid-block
        clock.now += 1.0
    assert block.wall == pytest.approx(4.0 + probe_s[0])
    assert block.program == pytest.approx(4.0)
    assert block.probe == pytest.approx(probe_s[0])
    assert block.reference == pytest.approx(2.0)  # 4 s at half speed


def _program(n: int) -> None:
    """Stand-in program work, unlike the probe: sorting, hashing and
    small matrix products."""
    rows = [(i * 7919 % 1009, str(i)) for i in range(n)]
    rows.sort()
    hash(tuple(rows))
    m = np.arange(64, dtype=np.float64).reshape(8, 8) / 64
    for _ in range(n // 20):
        m = m @ m.T / 8 + 0.01


def _extra_cost() -> None:
    """A fixed extra CPU cost, as a slower build of the program adds."""
    total = 0
    for i in range(900_000):
        total += i * i % 7


def test_injected_cost_is_reported_at_its_reference_size():
    """A program change that adds a fixed CPU cost moves the reported
    time by that cost at reference speed: the real probe on the real
    timer does not divide it away.  Rounds interleave the three blocks
    so host drift hits them alike; the tolerance covers what is left of
    the host's noise on blocks this short."""
    sampler = SpeedSampler()

    def reference(fn) -> float:
        with sampler.timed() as block:
            fn()
        return block.reference

    shares = []
    sampler.start()
    try:
        for _ in range(9):
            base = reference(lambda: _program(80_000))
            extra = reference(_extra_cost)
            slowed = reference(lambda: (_program(80_000), _extra_cost()))
            shares.append((slowed - base) / extra)
    finally:
        sampler.stop()
    assert median(shares) == pytest.approx(1.0, abs=0.35)


# ------------------------------------------------------------ failure counting


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    assert tally.error_rate == 0.0
    assert tally.record(True)
    assert not tally.record(False, "GET /campaigns/poly: HTTP 404")
    assert not tally.record(False, "diffeq Table 2 pin: got (249, 49)")
    assert tally.record(True, "never listed")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.error_rate == 0.5
    assert tally.reasons == [
        "GET /campaigns/poly: HTTP 404",
        "diffeq Table 2 pin: got (249, 49)",
    ]


# ----------------------------------------------------- seeded input generation

DESIGNS = ["facet", "poly", "diffeq"]
GATES = {"facet": ["g1", "g2", "g3"], "poly": ["a", "b"], "diffeq": ["x", "y", "z", "w"]}
KINDS = ("report", "sfr")


def _inputs(seed: int):
    plan = InputPlan(seed, DESIGNS)
    return (
        [plan.design_order(i) for i in range(4)],
        plan.edit_gates(GATES),
        [plan.reads(i, 60, KINDS) for i in range(2)],
    )


def test_same_seed_same_inputs():
    assert _inputs(7) == _inputs(7)


def test_different_seeds_differ_and_inputs_are_valid():
    assert _inputs(7) != _inputs(8)
    orders, gates, reads = _inputs(3)
    assert all(sorted(o) == sorted(DESIGNS) for o in orders)
    assert all(gates[d] in GATES[d] for d in DESIGNS)
    for r in reads:  # a balanced mix: each (design, kind) pair 10 times
        assert sorted(r) == sorted((d, k) for d in DESIGNS for k in KINDS for _ in range(10))
    assert reads[0] != reads[1]
    with pytest.raises(ValueError):
        InputPlan(3, DESIGNS).reads(0, 50, KINDS)


def test_streams_are_independent_of_what_else_was_drawn():
    plan = InputPlan(11, DESIGNS)
    third_first = plan.design_order(3)
    plan.reads(0, 120, KINDS)
    plan.edit_gates(GATES)
    assert InputPlan(11, DESIGNS).design_order(3) == third_first
