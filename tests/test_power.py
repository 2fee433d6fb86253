"""Unit tests for the switched-capacitance power model."""

import numpy as np
import pytest

from repro.logic.simulator import CycleSimulator
from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import GateType
from repro.power.estimator import PowerEstimator
from repro.power.library import DEFAULT_LIBRARY, PowerLibrary


def _toggler():
    """One inverter (tag 'dp') + one DFF (tag 'ctrl')."""
    b = NetlistBuilder()
    a = b.input("a")
    y = b.not_(a, output=b.net("y"), tag="dp:inv")
    q = b.dff(y, output=b.net("q"), tag="ctrl")
    b.output(q)
    return b.done(), a, y


class TestEstimator:
    def test_requires_toggle_counting(self):
        nl, a, y = _toggler()
        sim = CycleSimulator(nl, 1)
        est = PowerEstimator(nl)
        with pytest.raises(ValueError, match="not counting"):
            est.power(sim)

    def test_requires_cycles(self):
        nl, a, y = _toggler()
        sim = CycleSimulator(nl, 1, count_toggles=True)
        est = PowerEstimator(nl)
        with pytest.raises(ValueError, match="no cycles"):
            est.power(sim)

    def test_static_input_only_clock_power(self):
        nl, a, y = _toggler()
        sim = CycleSimulator(nl, 1, count_toggles=True)
        for _ in range(4):
            sim.drive_const(a, 0)
            sim.settle()
            sim.latch()
        est = PowerEstimator(nl)
        # y toggles X->0 once (not counted); only the DFF clock burns power.
        res = est.power(sim)
        assert res.switching_uw == 0.0
        assert res.clock_uw > 0.0

    def test_switching_energy_proportional_to_toggles(self):
        nl, a, y = _toggler()

        def run(bits):
            sim = CycleSimulator(nl, 1, count_toggles=True)
            for bit in bits:
                sim.drive_const(a, bit)
                sim.settle()
                sim.latch()
            return PowerEstimator(nl).power(sim).switching_uw

        # Same cycle count, different toggle counts.
        low = run([0, 0, 0, 1])
        high = run([0, 1, 0, 1])
        assert high > low > 0

    def test_tag_filter_restricts(self):
        nl, a, y = _toggler()
        sim = CycleSimulator(nl, 1, count_toggles=True)
        for bit in [0, 1, 0, 1]:
            sim.drive_const(a, bit)
            sim.settle()
            sim.latch()
        est = PowerEstimator(nl)
        total = est.power(sim, tag_prefix=None).total_uw
        dp = est.power(sim, tag_prefix="dp").total_uw
        ctrl = est.power(sim, tag_prefix="ctrl").total_uw
        assert dp > 0 and ctrl > 0
        # Untagged primary-input nets account for the remainder.
        assert dp + ctrl <= total + 1e-9

    def test_by_tag_sums_to_total(self):
        nl, a, y = _toggler()
        sim = CycleSimulator(nl, 1, count_toggles=True)
        for bit in [0, 1, 1, 0]:
            sim.drive_const(a, bit)
            sim.settle()
            sim.latch()
        res = PowerEstimator(nl).power(sim)
        assert abs(sum(res.by_tag.values()) - res.total_uw) < 1e-9

    def test_custom_library_scales(self):
        nl, a, y = _toggler()
        sim = CycleSimulator(nl, 1, count_toggles=True)
        for bit in [0, 1, 0]:
            sim.drive_const(a, bit)
            sim.settle()
            sim.latch()
        base = PowerEstimator(nl).power(sim).total_uw
        doubled_lib = PowerLibrary(cal_scale=DEFAULT_LIBRARY.cal_scale * 2)
        doubled = PowerEstimator(nl, doubled_lib).power(sim).total_uw
        assert abs(doubled - 2 * base) < 1e-9

    def test_dffe_clock_power_counts_enabled_cycles_only(self):
        b = NetlistBuilder()
        en, d = b.input("en"), b.input("d")
        b.output(b.dffe(en, d, output=b.net("q"), tag="dp:reg"))
        nl = b.done()

        def run(en_bits):
            sim = CycleSimulator(nl, 1, count_toggles=True)
            for e in en_bits:
                sim.drive_const(en, e)
                sim.drive_const(d, 0)
                sim.settle()
                sim.latch()
            return PowerEstimator(nl).power(sim).clock_uw

        assert run([1, 1, 1, 1]) > run([1, 0, 0, 0]) > run([0, 0, 0, 0]) == 0.0


class TestPowerBlocks:
    """power() refuses per-block counters: the block kernel converts each
    block's row with power_from_counts()."""

    def test_power_rejects_block_sim(self):
        b = NetlistBuilder()
        en, d = b.input("en"), b.input("d")
        q = b.dffe(en, d, output=b.net("q"), tag="dp:reg")
        b.output(b.not_(q, output=b.net("y"), tag="dp:inv"))
        nl = b.done()
        block_sim = CycleSimulator(nl, 128, count_toggles=True, toggle_blocks=2)
        with pytest.raises(ValueError, match="power_from_counts"):
            PowerEstimator(nl).power(block_sim)


class TestMonteCarlo:
    def test_converges_and_is_deterministic(self, facet_system):
        from repro.power.montecarlo import monte_carlo_power

        est = PowerEstimator(facet_system.netlist)
        a = monte_carlo_power(facet_system, est, seed=5, batch_patterns=64, max_batches=4)
        b = monte_carlo_power(facet_system, est, seed=5, batch_patterns=64, max_batches=4)
        assert a.power_uw == b.power_uw
        assert a.batches <= 4
        assert a.power_uw > 0

    def test_batch_power_with_fixed_data(self, facet_system):
        from repro.hls.system import NormalModeStimulus
        from repro.power.montecarlo import MC_DEFAULT_ITERATIONS_WINDOW, _run_batch

        est = PowerEstimator(facet_system.netlist)
        data = {k: np.arange(32) % 16 for k in facet_system.rtl.dfg.inputs}
        stim = NormalModeStimulus(
            facet_system, data, facet_system.cycles_for(MC_DEFAULT_ITERATIONS_WINDOW)
        )
        res = est.power(_run_batch(facet_system, stim, None), tag_prefix="dp")
        assert res.total_uw > 0
        assert res.patterns == 32


class TestMonteCarloSerialization:
    def test_json_round_trip_is_bit_identical(self, facet_system):
        from repro.power.montecarlo import MonteCarloResult, monte_carlo_power

        est = PowerEstimator(facet_system.netlist)
        res = monte_carlo_power(
            facet_system, est, seed=9, batch_patterns=64, max_batches=4
        )
        back = MonteCarloResult.from_json(res.to_json())
        # floats survive JSON exactly -- a store replay reproduces the
        # original result bit for bit
        assert back == res
        assert back.power_uw == res.power_uw
        assert back.history == res.history

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_power_refuses_to_serialize(self, bad):
        from repro.core.errors import IntegrityError
        from repro.power.montecarlo import MonteCarloResult

        res = MonteCarloResult(power_uw=bad, batches=1, patterns=8)
        with pytest.raises(IntegrityError, match="non-finite"):
            res.to_json_dict()
        with pytest.raises(IntegrityError):
            res.to_json()

    def test_non_finite_history_refuses_to_serialize(self):
        from repro.core.errors import IntegrityError
        from repro.power.montecarlo import MonteCarloResult

        res = MonteCarloResult(
            power_uw=1.0, batches=2, patterns=8, history=[1.0, float("nan")]
        )
        with pytest.raises(IntegrityError, match="non-finite"):
            res.to_json()


class TestCounterEquivalence:
    """The integer activity counters are a sufficient statistic.

    ``power_from_counts`` replayed per batch must reproduce the float
    power path bit-identically -- same operands, same order -- on every
    paper design, for the flat and block-parallel kernels, and
    regardless of how faults are chunked into toggle blocks.
    """

    @pytest.mark.parametrize(
        "system_fixture", ["diffeq_system", "facet_system", "poly_system"]
    )
    def test_counts_recover_flat_power_bit_identically(self, request, system_fixture):
        from repro.fleet import recovered_power_uw
        from repro.power.montecarlo import monte_carlo_power

        system = request.getfixturevalue(system_fixture)
        est = PowerEstimator(system.netlist)
        res = monte_carlo_power(
            system, est, seed=11, batch_patterns=64, max_batches=3,
            capture_activity=True,
        )
        trace = res.activity
        assert trace is not None
        assert trace.toggles.shape == (trace.batches, system.netlist.num_nets)
        assert trace.load_events.shape == (trace.batches, len(est.dffe_gates))
        # Per-batch totals replayed from the counters reproduce the whole
        # convergence history, not just the final mean.
        totals = [
            est.power_from_counts(
                trace.toggles[b],
                trace.load_events[b],
                trace.cycles,
                trace.patterns,
                "dp",
            ).total_uw
            for b in range(trace.batches)
        ]
        for k in range(1, len(totals) + 1):
            assert float(np.mean(totals[:k])) == res.history[k - 1]
        assert recovered_power_uw(est, trace) == res.power_uw

    @pytest.mark.parametrize("chunks", [[6], [2, 3, 1], [1] * 6])
    def test_block_counts_invariant_to_chunk_shape(self, facet_faultsim_setup, chunks):
        from repro.fleet import recovered_power_uw
        from repro.power.montecarlo import monte_carlo_power_block

        system, _, _, _, faults = facet_faultsim_setup
        sites = faults[:6]
        assert sum(chunks) == len(sites)
        est = PowerEstimator(system.netlist)

        def run(groups):
            out = []
            for group in groups:
                out.extend(
                    monte_carlo_power_block(
                        system, est, group, seed=11, batch_patterns=64,
                        max_batches=3, capture_activity=True,
                    )
                )
            return out

        whole = run([sites])
        split, start = [], 0
        for n in chunks:
            split.append(sites[start : start + n])
            start += n
        regrouped = run(split)
        for a, b in zip(whole, regrouped):
            assert a.power_uw == b.power_uw
            assert a.activity is not None and b.activity is not None
            np.testing.assert_array_equal(a.activity.toggles, b.activity.toggles)
            np.testing.assert_array_equal(
                a.activity.load_events, b.activity.load_events
            )
            assert recovered_power_uw(est, a.activity) == a.power_uw
