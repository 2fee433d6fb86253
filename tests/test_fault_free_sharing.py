"""One fault-free simulation per stimulus: the shared results must equal
what each consumer used to compute for itself.

* the Monte-Carlo baseline read off the golden-run counters equals a
  fault-free ``monte_carlo_power`` run field for field, and shares each
  batch group's one fault-free run with the grading kernel;
* a store-backed cold ``grade`` simulates the fault-free TPGR machine
  once and runs no separate fault-free Monte-Carlo campaign.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.grading as grading_mod
import repro.fleet.activity as activity_mod
import repro.logic.simulator as simulator_mod
import repro.power.montecarlo as montecarlo_mod
from repro.cli import main
from repro.power.estimator import PowerEstimator
from repro.power.montecarlo import (
    monte_carlo_baseline,
    monte_carlo_power,
    monte_carlo_power_block,
    precompute_batches,
    shared_batches,
)


class TestGoldenBatchBaseline:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},  # campaign defaults: converges
            {"max_batches": 2},  # stops before the convergence rule can fire
            {"batch_patterns": 32, "max_batches": 4},  # partial last word
        ],
        ids=["defaults", "budget-stop", "partial-word"],
    )
    def test_equals_fault_free_monte_carlo(self, facet_system, kwargs):
        estimator = PowerEstimator(facet_system.netlist)
        batches = shared_batches(facet_system, **kwargs)
        max_batches = kwargs.get("max_batches", montecarlo_mod.MC_DEFAULT_MAX_BATCHES)
        got = monte_carlo_baseline(
            facet_system, estimator, batches, max_batches=max_batches
        )
        want = monte_carlo_power(
            facet_system,
            estimator,
            fault=None,
            capture_activity=True,
            **{**kwargs, "max_batches": max_batches},
        )
        for name in ("power_uw", "batches", "patterns", "history", "converged"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.converged == (kwargs.get("max_batches") != 2)
        np.testing.assert_array_equal(got.activity.toggles, want.activity.toggles)
        np.testing.assert_array_equal(
            got.activity.load_events, want.activity.load_events
        )
        assert (got.activity.cycles, got.activity.patterns) == (
            want.activity.cycles,
            want.activity.patterns,
        )

    @pytest.mark.parametrize("batch_patterns", [32, 100, 192])
    @pytest.mark.parametrize("max_batches", [1, 2, 3, 5])
    def test_first_pass_edge_shapes(self, facet_system, max_batches, batch_patterns):
        """A budget below the convergence minimum fuses fewer batches, a
        one-batch budget fuses none, and padded batches keep their own
        tail masks: the baseline still equals the per-fault oracle."""
        estimator = PowerEstimator(facet_system.netlist)
        kwargs = dict(batch_patterns=batch_patterns, max_batches=max_batches)
        got = monte_carlo_baseline(
            facet_system,
            estimator,
            shared_batches(facet_system, **kwargs),
            max_batches=max_batches,
        )
        want = monte_carlo_power(
            facet_system, estimator, fault=None, capture_activity=True, **kwargs
        )
        for name in ("power_uw", "batches", "patterns", "history", "converged"):
            assert getattr(got, name) == getattr(want, name), name
        for name in ("toggles", "load_events", "cycles", "patterns"):
            np.testing.assert_array_equal(
                getattr(got.activity, name), getattr(want.activity, name), name
            )

    def test_baseline_and_kernel_share_one_run_per_batch_group(
        self, facet_system, facet_pipeline, monkeypatch
    ):
        """The first ``MC_MIN_BATCHES`` batches run fault-free once, side
        by side; every later batch once on its own; the grading kernel
        reads the very runs the baseline read."""
        runs = []
        real = montecarlo_mod.CycleSimulator

        def counting(netlist, n_patterns, **kwargs):
            runs.append(kwargs.get("toggle_blocks"))
            return real(netlist, n_patterns, **kwargs)

        monkeypatch.setattr(montecarlo_mod, "CycleSimulator", counting)
        estimator = PowerEstimator(facet_system.netlist)
        kwargs = dict(batch_patterns=100, max_batches=6)
        batches = precompute_batches(facet_system, **kwargs)
        base = monte_carlo_baseline(facet_system, estimator, batches, max_batches=6)
        faults = [r.system_site for r in facet_pipeline.sfr_records][:4]
        block = monte_carlo_power_block(
            facet_system, estimator, faults, batches=batches, **kwargs
        )
        last = max(base.batches, *(r.batches for r in block))
        m = montecarlo_mod.MC_MIN_BATCHES
        assert runs == [m] + [1] * (last - m)


def test_cold_grade_simulates_the_fault_free_machine_once(tmp_path, monkeypatch):
    """A store-backed cold ``grade`` builds one fault-free simulator over
    the system netlist at the pipeline's pattern count, and runs no
    fault-free Monte-Carlo campaign."""
    n_patterns = 128
    fault_free = []
    real_init = simulator_mod.CycleSimulator.__init__

    def counting_init(self, netlist, n_patterns, faults=None, *args, **kwargs):
        real_init(self, netlist, n_patterns, faults, *args, **kwargs)
        if netlist.name == "facet" and not faults:
            fault_free.append(n_patterns)

    monkeypatch.setattr(simulator_mod.CycleSimulator, "__init__", counting_init)
    baseline_calls = []

    def spy(module):
        real = module.monte_carlo_power

        def wrapped(*args, **kwargs):
            if kwargs.get("fault") is None and (len(args) < 3 or args[2] is None):
                baseline_calls.append(module.__name__)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "monte_carlo_power", wrapped)

    for module in (grading_mod, activity_mod, montecarlo_mod):
        spy(module)
    assert (
        main(
            [
                "--patterns",
                str(n_patterns),
                "--store-dir",
                str(tmp_path / "store"),
                "grade",
                "facet",
            ]
        )
        == 0
    )
    assert fault_free.count(n_patterns) == 1
    assert baseline_calls == []
