"""Unit tests for control-line effect extraction."""

import numpy as np
import pytest

from repro.core.effects import (
    ControlLineEffect,
    Scenario,
    diff_traces,
    faulty_control_trace,
    faulty_control_values,
    golden_control_trace,
    make_scenarios,
    trace_values,
)
from repro.hls.rtl import HOLD_STATE, RESET_STATE
from repro.logic.faults import FaultSite


class TestScenario:
    def test_timeline_states(self):
        sc = Scenario(iterations=2, n_steps=3, hold_cycles=2, idle_cycles=1)
        states = [sc.golden_state(c) for c in range(sc.n_cycles)]
        assert states == [
            "X", "RESET", "RESET",
            "CS1", "CS2", "CS3",
            "CS1", "CS2", "CS3",
            "HOLD", "HOLD",
        ]

    def test_n_cycles(self):
        sc = Scenario(iterations=2, n_steps=3, hold_cycles=2, idle_cycles=1)
        assert sc.n_cycles == 2 + 1 + 6 + 2

    def test_start_waveform(self):
        sc = Scenario(iterations=1, n_steps=2, idle_cycles=2)
        # start rises in the last RESET cycle (first_body_cycle - 1).
        assert sc.start_at(sc.first_body_cycle - 1) == 1
        assert sc.start_at(sc.first_body_cycle - 2) == 0

    def test_cond_waveform_last_decision(self):
        sc = Scenario(iterations=2, n_steps=3, idle_cycles=0)
        last_decision = sc.first_body_cycle - 1 + 6
        assert sc.cond_at(last_decision - 1) == 1
        assert sc.cond_at(last_decision) == 0

    def test_make_scenarios_loop_vs_straight(self, diffeq_system, facet_system):
        loops = make_scenarios(diffeq_system.rtl)
        straight = make_scenarios(facet_system.rtl)
        assert [s.iterations for s in loops] == [1, 2, 3]
        assert [s.iterations for s in straight] == [1]


class TestTraces:
    def test_golden_trace_matches_control_table(self, diffeq_system):
        rtl = diffeq_system.rtl
        sc = make_scenarios(rtl)[0]
        trace = golden_control_trace(diffeq_system.controller, sc)
        for cycle in range(1, sc.n_cycles):
            state = sc.golden_state(cycle)
            for line in rtl.load_lines:
                assert trace.lines[cycle][line] == rtl.control.loads[state][line]
            for sel in rtl.sel_lines:
                spec = rtl.control.selects[state][sel]
                if spec is not None:
                    assert trace.lines[cycle][sel] == spec

    def test_faulty_trace_differs_for_real_fault(self, diffeq_system):
        ctrl = diffeq_system.controller
        rtl = diffeq_system.rtl
        sc = make_scenarios(rtl)[1]
        golden = golden_control_trace(ctrl, sc)
        # Stuck-at-1 on the LD1 output stem: LD1 high everywhere.
        ld1 = ctrl.output_nets["LD1"]
        g = ctrl.netlist.driver_of(ld1)
        fault = FaultSite(g.index, -1, ld1, 1)
        faulty = faulty_control_trace(ctrl, sc, fault)
        effects = diff_traces(golden, faulty)
        assert effects
        assert all(e.line == "LD1" for e in effects)
        assert all(e.golden == 0 and e.faulty == 1 for e in effects)
        # LD1 is genuinely 1 in RESET and in x1's step, so no effect there.
        states_hit = {e.state for e in effects}
        assert RESET_STATE not in states_hit

    def test_effect_description(self):
        e = ControlLineEffect(cycle=5, state="CS3", line="LD2", golden=0, faulty=1)
        assert e.describe() == "LD2: extra load in CS3"
        e2 = ControlLineEffect(cycle=5, state="CS3", line="LD2", golden=1, faulty=0)
        assert e2.describe() == "LD2: skipped load in CS3"
        e3 = ControlLineEffect(cycle=5, state="HOLD", line="MS1", golden=0, faulty=1)
        assert e3.describe() == "MS1 changes in HOLD"
        e4 = ControlLineEffect(cycle=5, state="CS1", line="LD2", golden=1, faulty=-1)
        assert "unknown load" in e4.describe()

    def test_no_fault_no_effects(self, diffeq_system):
        ctrl = diffeq_system.controller
        sc = make_scenarios(diffeq_system.rtl)[0]
        golden = golden_control_trace(ctrl, sc)
        assert diff_traces(golden, golden) == []


class TestBatchedKernel:
    """One simulation per scenario for every fault vs the per-fault oracle."""

    @staticmethod
    def _scenarios(system):
        from repro.core.classify import Classifier

        return Classifier(system.rtl, system.controller).scenarios

    @pytest.mark.parametrize(
        "design,stride", [("facet", 1), ("poly", 1), ("diffeq", 4)]
    )
    def test_traces_match_oracle(self, design, stride, request):
        from repro.core.pipeline import controller_fault_universe

        system = request.getfixturevalue(f"{design}_system")
        faults = controller_fault_universe(system)[::stride]
        assert len(faults) >= 60
        ctrl = system.controller
        for sc in self._scenarios(system):
            batched = faulty_control_values(ctrl, sc, faults)
            assert batched.shape == (sc.n_cycles, len(ctrl.output_nets), len(faults))
            for i, fault in enumerate(faults):
                want = trace_values(ctrl, faulty_control_trace(ctrl, sc, fault))
                np.testing.assert_array_equal(batched[:, :, i], want, err_msg=str(fault))

    def test_per_fault_cond_flips_match_oracle(self, diffeq_system):
        """Every fault gets its own seeded ``cond`` flip set in one run."""
        import random

        from repro.core.pipeline import controller_fault_universe

        ctrl = diffeq_system.controller
        faults = controller_fault_universe(diffeq_system)[::3]
        rng = random.Random(1234)
        for sc in self._scenarios(diffeq_system):
            flips = [
                set(rng.sample(range(1, sc.n_cycles), rng.randint(0, 6)))
                for _ in faults
            ]
            batched = faulty_control_values(ctrl, sc, faults, cond_flips=flips)
            unflipped = faulty_control_values(ctrl, sc, faults)
            diverged = 0
            for i, (fault, cycles) in enumerate(zip(faults, flips)):
                want = trace_values(
                    ctrl, faulty_control_trace(ctrl, sc, fault, cond_flips=cycles)
                )
                np.testing.assert_array_equal(
                    batched[:, :, i], want, err_msg=f"{fault} {sorted(cycles)}"
                )
                diverged += not np.array_equal(want, unflipped[:, :, i])
            assert diverged, "no flip set changed any trace; the probe is untested"

    def test_empty_fault_list(self, facet_system):
        sc = self._scenarios(facet_system)[0]
        values = faulty_control_values(facet_system.controller, sc, [])
        assert values.shape == (sc.n_cycles, len(facet_system.controller.output_nets), 0)
