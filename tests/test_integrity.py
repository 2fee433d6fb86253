"""Result-integrity guard layer tests.

The contract under test: the guard layer is invisible on a clean run
(auditing a correct campaign changes nothing, bit for bit), catches
silently corrupted results on an independent path, and either
quarantines the offending fault (default) or aborts (strict mode).
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import re

import numpy as np
import pytest

import repro.core.grading as grading_mod
import repro.logic.faultsim as faultsim_mod
import repro.power.montecarlo as montecarlo_mod
from repro.core.classify import EffectLabel
from repro.core.errors import CampaignError, IntegrityError, validate_config
from repro.core.grading import grade_sfr_faults
from repro.core.integrity import (
    IntegrityGuard,
    IntegrityViolation,
    adds_register_loads,
    audit_fraction,
    check_finite_power,
    check_load_monotonicity,
    check_power_ceiling,
    check_sfr_is_cfi,
    select_audit,
)
from repro.core.parallel import RunReport
from repro.core.pipeline import PipelineConfig, controller_fault_universe, run_pipeline
from repro.hls.system import NormalModeStimulus, hold_masks
from repro.logic.faults import fault_key
from repro.logic.faultsim import Verdict, fault_simulate
from repro.power.estimator import PowerEstimator
from repro.power.montecarlo import (
    MC_DEFAULT_ITERATIONS_WINDOW,
    MonteCarloResult,
    _run_batch,
)
from repro.tpg.tpgr import TPGR


# ---------------------------------------------------------- audit selection
class TestAuditSelection:
    def test_fraction_is_deterministic_and_uniform_range(self):
        keys = [f"{g}:{p}:{n}:0" for g in range(20) for p in range(3) for n in (1, 2)]
        for k in keys:
            f = audit_fraction(k)
            assert 0.0 <= f < 1.0
            assert f == audit_fraction(k)  # pure function of the key

    def test_selection_independent_of_order(self):
        keys = [f"k{i}" for i in range(200)]
        fwd = set(select_audit(keys, 0.1))
        rev = set(select_audit(list(reversed(keys)), 0.1))
        assert fwd == rev
        assert 0 < len(fwd) < len(keys)

    def test_zero_rate_selects_nothing(self):
        assert select_audit([f"k{i}" for i in range(100)], 0.0) == []

    def test_salt_decorrelates_stages(self):
        keys = [f"k{i}" for i in range(300)]
        a = set(select_audit(keys, 0.1, salt="faultsim"))
        b = set(select_audit(keys, 0.1, salt="grading"))
        assert a != b  # different stages audit different subsets


# ------------------------------------------------------------------- guard
class TestIntegrityGuard:
    def _violation(self, fault="f1"):
        return IntegrityViolation(check="test", fault=fault, detail="boom")

    def test_default_mode_quarantines_and_continues(self):
        guard = IntegrityGuard(strict=False)
        guard.flag(self._violation("a"))
        guard.flag(self._violation("a"))
        guard.flag(self._violation("b"))
        assert len(guard.violations) == 3
        assert guard.quarantined == 2  # distinct faults

    def test_strict_mode_raises_on_first_violation(self):
        guard = IntegrityGuard(strict=True)
        with pytest.raises(IntegrityError, match="strict mode"):
            guard.flag(self._violation())

    def test_attach_publishes_to_run_report(self):
        guard = IntegrityGuard()
        guard.flag(self._violation("a"))
        report = RunReport(n_items=10)
        guard.attach(report, audited=4)
        assert report.audited == 4
        assert report.quarantined == 1
        assert [v.fault for v in report.violations] == ["a"]
        assert report.has_incidents()

    def test_violation_json_and_describe(self):
        v = IntegrityViolation(
            check="c", fault="f", detail="d", site="s", cycle=7,
            expected="x", actual="y",
        )
        d = v.to_json_dict()
        assert d["check"] == "c" and d["cycle"] == 7
        text = v.describe()
        assert "f" in text and "cycle 7" in text


# -------------------------------------------------------- invariant checks
class TestInvariantChecks:
    def test_finite_power(self):
        guard = IntegrityGuard()
        assert check_finite_power(guard, "k", 12.5)
        assert not check_finite_power(guard, "k", float("nan"))
        assert not check_finite_power(guard, "k", float("inf"))
        assert not check_finite_power(guard, "k", -1.0)
        assert not check_finite_power(guard, "k", 0.0)
        assert len(guard.violations) == 4

    def test_power_ceiling(self):
        guard = IntegrityGuard()
        assert check_power_ceiling(guard, "k", 10.0, 20.0)
        assert not check_power_ceiling(guard, "k", 30.0, 20.0)
        assert guard.violations[0].check == "power-ceiling"

    def test_load_monotonicity_tolerates_noise(self):
        guard = IntegrityGuard()
        assert check_load_monotonicity(guard, "k", +3.0)
        assert check_load_monotonicity(guard, "k", -0.4)  # within tolerance
        assert not check_load_monotonicity(guard, "k", -5.0)
        assert guard.violations[0].check == "load-monotonicity"

    def test_adds_register_loads_label_logic(self):
        def cls(*labels):
            return SimpleNamespace(effects=[SimpleNamespace(label=l) for l in labels])

        assert adds_register_loads(cls(EffectLabel.EXTRA_LOAD_IDLE))
        assert adds_register_loads(
            cls(EffectLabel.EXTRA_LOAD_REWRITE, EffectLabel.SELECT_INACTIVE)
        )
        # A fault that also skips loads may legitimately lower power.
        assert not adds_register_loads(
            cls(EffectLabel.EXTRA_LOAD_IDLE, EffectLabel.LOAD_SKIPPED)
        )
        assert not adds_register_loads(cls(EffectLabel.SELECT_ACTIVE))
        assert not adds_register_loads(cls())

    def test_sfr_without_effects_flagged(self):
        guard = IntegrityGuard()
        good = SimpleNamespace(classification=SimpleNamespace(effects=[object()]))
        bad = SimpleNamespace(classification=SimpleNamespace(effects=[]))
        assert check_sfr_is_cfi(guard, "k", good)
        assert not check_sfr_is_cfi(guard, "k", bad)
        assert guard.violations[0].check == "sfr-without-effects"


# ------------------------------------------------- power estimator guards
class TestEstimatorGuards:
    def test_theoretical_ceiling_bounds_real_power(self, facet_system):
        estimator = PowerEstimator(facet_system.netlist)
        rng = np.random.default_rng(5)
        data = {
            k: rng.integers(0, 16, 8) for k in facet_system.rtl.dfg.inputs
        }
        stim = NormalModeStimulus(
            facet_system, data, facet_system.cycles_for(MC_DEFAULT_ITERATIONS_WINDOW)
        )
        result = estimator.power(_run_batch(facet_system, stim, None), tag_prefix=None)
        ceiling = estimator.theoretical_max_uw()
        assert 0 < result.total_uw <= ceiling

    def test_corrupt_toggle_counter_names_the_net(self, facet_system):
        from repro.logic.simulator import CycleSimulator

        system = facet_system
        sim = CycleSimulator(system.netlist, 8, count_toggles=True)
        stim = NormalModeStimulus(
            system,
            {k: np.zeros(8, dtype=np.int64) for k in system.rtl.dfg.inputs},
            system.cycles_for(1),
        )
        for cyc in range(stim.n_cycles):
            stim.apply(sim, cyc)
            sim.settle()
            sim.latch()
        estimator = PowerEstimator(system.netlist)
        estimator.power(sim)  # sane counters pass
        sim.toggles[3] = sim.cycles_run * sim.n_patterns + 1  # corrupt
        with pytest.raises(IntegrityError, match=re.escape(system.netlist.net_names[3])):
            estimator.power(sim)


# --------------------------------------------- fault-simulation audit layer
@pytest.fixture(scope="module")
def small_campaign(facet_system):
    system = facet_system
    tpgr = TPGR(system.rtl.dfg.inputs, system.rtl.width, seed=0xACE1)
    data = {k: np.asarray(v) for k, v in tpgr.generate(64).items()}
    stim = NormalModeStimulus(system, data, system.cycles_for(3))
    masks = hold_masks(system, stim)
    observe = [n for bus in system.output_buses.values() for n in bus]
    faults = [system.to_system_fault(s) for s in controller_fault_universe(system)]
    return system, stim, masks, observe, faults[:24]


_REAL_CHUNK_WORKER = faultsim_mod._fault_chunk_worker


def _flip_all_verdicts(context, chunk):
    """Stand-in worker returning corrupted verdicts for every fault."""
    out = []
    for verdict, cycle in _REAL_CHUNK_WORKER(context, chunk):
        if verdict is Verdict.DETECTED:
            out.append((Verdict.UNDETECTED, -1))
        else:
            out.append((Verdict.DETECTED, max(0, cycle)))
    return out


class TestFaultSimAudit:
    def test_audit_of_a_clean_run_changes_nothing(self, small_campaign):
        system, stim, masks, observe, faults = small_campaign
        plain = fault_simulate(
            system.netlist, faults, stim, observe=observe, valid_masks=masks,
            audit_rate=0.0,
        )
        audited = fault_simulate(
            system.netlist, faults, stim, observe=observe, valid_masks=masks,
            audit_rate=0.9,
        )
        assert audited.verdicts == plain.verdicts
        assert audited.detect_cycle == plain.detect_cycle
        assert audited.campaign.audited > 0
        assert audited.campaign.violations == []
        assert audited.campaign.quarantined == 0

    def test_divergence_caught_and_quarantined_to_reference(
        self, small_campaign, monkeypatch
    ):
        system, stim, masks, observe, faults = small_campaign
        clean = fault_simulate(
            system.netlist, faults, stim, observe=observe, valid_masks=masks,
            audit_rate=0.0,
        )
        monkeypatch.setattr(faultsim_mod, "_fault_chunk_worker", _flip_all_verdicts)
        result = fault_simulate(
            system.netlist, faults, stim, observe=observe, valid_masks=masks,
            audit_rate=0.999,
        )
        report = result.campaign
        assert report.audited > 0
        # every audited fault diverged, was flagged, and fell back to the
        # trusted serial reference
        diffs = [v for v in report.violations if v.check == "faultsim-differential"]
        assert len(diffs) == report.audited
        audited_keys = {v.fault for v in diffs}
        for fault in faults:
            if fault_key(fault) in audited_keys:
                assert result.verdicts[fault] == clean.verdicts[fault]

    def test_strict_mode_aborts_on_divergence(self, small_campaign, monkeypatch):
        system, stim, masks, observe, faults = small_campaign
        monkeypatch.setattr(faultsim_mod, "_fault_chunk_worker", _flip_all_verdicts)
        with pytest.raises(IntegrityError, match="strict mode"):
            fault_simulate(
                system.netlist, faults, stim, observe=observe, valid_masks=masks,
                audit_rate=0.999, strict=True,
            )


class TestDeathAudit:
    """The cone engine's death-pruning spot check re-simulates a capped
    handful of early-retired faults through the serial reference; a
    disagreement must surface as ``cone-death-differential``."""

    @staticmethod
    def _lying_reference(monkeypatch, faults, audit_rate):
        """Make the serial reference disagree on every fault outside the
        ordinary audit selection, i.e. on exactly the death-checked ones;
        return the faults it lied about, each with the outcome it gave."""
        real = faultsim_mod.simulate_one_fault
        audit_keys = set(select_audit([fault_key(f) for f in faults], audit_rate))
        asked = {}

        def lying(netlist, fault, *args):
            verdict, cycle = real(netlist, fault, *args)
            if fault_key(fault) in audit_keys:
                return verdict, cycle
            if verdict is Verdict.DETECTED:
                asked[fault] = (Verdict.UNDETECTED, -1)
            else:
                asked[fault] = (Verdict.DETECTED, max(0, cycle))
            return asked[fault]

        monkeypatch.setattr(faultsim_mod, "simulate_one_fault", lying)
        return asked

    def test_divergence_flagged_and_quarantined_to_reference(
        self, small_campaign, monkeypatch
    ):
        system, stim, masks, observe, faults = small_campaign
        rate = 0.02
        asked = self._lying_reference(monkeypatch, faults, rate)
        result = fault_simulate(
            system.netlist, faults, stim, observe=observe, valid_masks=masks,
            audit_rate=rate,
        )
        report = result.campaign
        assert result.cone.dead > 0 and asked
        deaths = [v for v in report.violations if v.check == "cone-death-differential"]
        assert {v.fault for v in deaths} == {fault_key(f) for f in asked}
        assert len(deaths) == len(report.violations) == report.quarantined
        for fault, (verdict, _cycle) in asked.items():
            assert result.verdicts[fault] is verdict

    def test_strict_mode_aborts_on_divergence(self, small_campaign, monkeypatch):
        system, stim, masks, observe, faults = small_campaign
        self._lying_reference(monkeypatch, faults, 0.02)
        with pytest.raises(IntegrityError, match="cone-death-differential"):
            fault_simulate(
                system.netlist, faults, stim, observe=observe, valid_masks=masks,
                audit_rate=0.02, strict=True,
            )

    def test_zero_audit_rate_runs_no_death_check(self, small_campaign, monkeypatch):
        system, stim, masks, observe, faults = small_campaign
        asked = self._lying_reference(monkeypatch, faults, 0.0)
        result = fault_simulate(
            system.netlist, faults, stim, observe=observe, valid_masks=masks,
            audit_rate=0.0,
        )
        assert result.cone.dead > 0
        assert asked == {}
        assert result.campaign.violations == []


# ------------------------------------------------------ grading guard layer
class TestGradingGuards:
    def test_poisoned_baseline_always_aborts(
        self, facet_system, facet_pipeline, monkeypatch
    ):
        # The baseline is read off the counters of the fault-free runs,
        # one per batch group (the first pass's batches side by side):
        # zero them (a datapath that never switches, 0 uW) where they
        # are produced.
        real = montecarlo_mod._golden_group

        def poisoned(system, stims):
            golden = real(system, stims)
            return dataclasses.replace(
                golden,
                toggles=np.zeros_like(golden.toggles),
                load_events=np.zeros_like(golden.load_events),
            )

        monkeypatch.setattr(montecarlo_mod, "_golden_group", poisoned)
        with pytest.raises(IntegrityError, match="baseline"):
            grade_sfr_faults(
                facet_system, facet_pipeline, batch_patterns=32, max_batches=2,
                # not even quarantine saves it
                config=PipelineConfig(audit_rate=0.0, strict=False),
            )

    def test_nonfinite_fault_power_quarantined(
        self, facet_system, facet_pipeline, monkeypatch
    ):
        records = facet_pipeline.sfr_records
        assert records, "facet must have SFR faults for this test"
        poisoned_key = fault_key(records[0].system_site)
        real = grading_mod.monte_carlo_power_block

        def poison_one(system, estimator, faults, **kwargs):
            # The campaign kernel returns one result per fault of a chunk;
            # replace the targeted fault's with a NaN power.
            return [
                MonteCarloResult(power_uw=float("nan"), batches=1, patterns=1)
                if fault_key(fault) == poisoned_key
                else mc
                for fault, mc in zip(faults, real(system, estimator, faults, **kwargs))
            ]

        monkeypatch.setattr(grading_mod, "monte_carlo_power_block", poison_one)
        grading = grade_sfr_faults(
            facet_system, facet_pipeline, batch_patterns=32, max_batches=2,
            config=PipelineConfig(audit_rate=0.0),
        )
        assert len(grading.graded) == len(records) - 1
        assert poisoned_key not in {
            fault_key(g.record.system_site) for g in grading.graded
        }
        kinds = {v.check for v in grading.campaign.violations}
        assert "non-finite-power" in kinds
        assert grading.campaign.quarantined == 1

    def test_clean_grading_audit_is_invisible(self, facet_system, facet_pipeline):
        kwargs = dict(batch_patterns=32, max_batches=2)
        plain = grade_sfr_faults(
            facet_system, facet_pipeline, config=PipelineConfig(audit_rate=0.0), **kwargs
        )
        audited = grade_sfr_faults(
            facet_system, facet_pipeline, config=PipelineConfig(audit_rate=0.9), **kwargs
        )
        assert audited.campaign.audited > 0
        assert audited.campaign.violations == []
        assert [g.power_uw for g in audited.graded] == [
            g.power_uw for g in plain.graded
        ]  # bit-identical, not approx


# ---------------------------------------------------------- config plumbing
class TestConfigValidation:
    def test_audit_rate_range_enforced(self):
        with pytest.raises(CampaignError, match="audit_rate"):
            validate_config(PipelineConfig(audit_rate=1.0))
        with pytest.raises(CampaignError, match="audit_rate"):
            validate_config(PipelineConfig(audit_rate=-0.1))
        validate_config(PipelineConfig(audit_rate=0.0))
        validate_config(PipelineConfig(audit_rate=0.5))

    def test_integrity_knobs_do_not_change_the_fingerprint(self):
        a = PipelineConfig().fingerprint_params()
        b = PipelineConfig(audit_rate=0.5, strict=True).fingerprint_params()
        assert a == b  # toggling audit knobs must not miss warm store entries

    def test_pipeline_sfr_audit_runs_by_default(self, facet_pipeline):
        assert facet_pipeline.campaign.audited > 0
        assert facet_pipeline.campaign.violations == []
