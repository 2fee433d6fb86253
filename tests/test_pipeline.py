"""Tests for the Section-5 pipeline end to end."""

import pytest

from repro.core.pipeline import (
    PipelineConfig,
    controller_fault_universe,
    run_pipeline,
)
from repro.logic.faultsim import Verdict
from repro.store.cache import CampaignStore


class TestUniverse:
    def test_universe_is_collapsed(self, facet_system):
        from repro.logic.faults import enumerate_faults

        raw = enumerate_faults(facet_system.controller.netlist)
        collapsed = controller_fault_universe(facet_system)
        assert 0 < len(collapsed) < len(raw)

    def test_universe_deterministic(self, facet_system):
        assert controller_fault_universe(facet_system) == controller_fault_universe(
            facet_system
        )


class TestPipelineResult:
    def test_buckets_partition_universe(self, facet_pipeline, facet_system):
        counts = facet_pipeline.counts()
        assert sum(counts.values()) == facet_pipeline.total_faults
        assert facet_pipeline.total_faults == len(controller_fault_universe(facet_system))

    def test_all_categories_valid(self, facet_pipeline):
        valid = {"SFI-detected", "SFI-practical", "SFI-escaped", "CFR", "SFR"}
        assert set(facet_pipeline.counts()) <= valid

    def test_detected_faults_not_classified(self, facet_pipeline):
        for r in facet_pipeline.records:
            if r.simulation is Verdict.DETECTED:
                assert r.classification is None
                assert r.category == "SFI-detected"

    def test_undetected_faults_classified(self, facet_pipeline):
        for r in facet_pipeline.records:
            if r.simulation is Verdict.UNDETECTED:
                assert r.classification is not None

    def test_sfr_records_match_category(self, facet_pipeline):
        for r in facet_pipeline.sfr_records:
            assert r.category == "SFR"
            assert r.classification.category == "SFR"

    def test_table2_row_fields(self, facet_pipeline):
        row = facet_pipeline.table2_row()
        assert row["design"] == "facet"
        assert row["total_faults"] > 0
        assert 0 <= row["pct_sfr"] <= 100
        assert row["sfr_faults"] == len(facet_pipeline.sfr_records)

    def test_by_category(self, facet_pipeline):
        sfr = facet_pipeline.by_category("SFR")
        assert all(r.category == "SFR" for r in sfr)


@pytest.fixture(scope="module")
def default_pipelines(facet_system, poly_system, diffeq_system):
    """The Table-2 designs at the default (256-pattern) configuration."""
    return {
        system.rtl.name: (system, run_pipeline(system, PipelineConfig()))
        for system in (facet_system, poly_system, diffeq_system)
    }


@pytest.fixture(scope="module")
def beyond_table2_pipelines():
    """biquad and ewf, the catalog designs outside Table 2, at defaults
    (ewf, the largest controller, takes about 15 s)."""
    from repro.designs.catalog import build_rtl
    from repro.hls.system import build_system

    return {
        name: (system, run_pipeline(system, PipelineConfig()))
        for name in ("biquad", "ewf")
        for system in [build_system(build_rtl(name))]
    }


class TestScienceAtDefaults:
    """Pins the reproduced Table 2 and every fault bucket at defaults.

    A change here changes the science: it must come with an explanation
    of the scientific delta, never a silent update."""

    TABLE2 = {"facet": (114, 29), "poly": (223, 62), "diffeq": (249, 50)}
    BUCKETS = {
        "facet": {"SFI-detected": 35, "SFI-practical": 38, "CFR": 12, "SFR": 29},
        "poly": {"SFI-detected": 76, "SFI-practical": 54, "CFR": 31, "SFR": 62},
        "diffeq": {
            "SFI-detected": 119,
            "SFI-practical": 44,
            "CFR": 33,
            "SFR": 50,
            "SFI-escaped": 3,
        },
    }

    @pytest.mark.parametrize("design", ["facet", "poly", "diffeq"])
    def test_table2_row(self, default_pipelines, design):
        _system, result = default_pipelines[design]
        row = result.table2_row()
        assert (row["total_faults"], row["sfr_faults"]) == self.TABLE2[design]

    @pytest.mark.parametrize("design", ["facet", "poly", "diffeq"])
    def test_bucket_counts(self, default_pipelines, design):
        _system, result = default_pipelines[design]
        assert result.counts() == self.BUCKETS[design]
        assert not any(r.quarantined for r in result.records)


class TestPaperShapeClaims:
    """Coarse reproduction claims from the paper's Table 2 narrative."""

    def test_sfr_fraction_in_regime(self, facet_pipeline, diffeq_pipeline):
        # Paper: 13--21% of controller faults are SFR.  Our synthesis
        # differs; assert the same order of magnitude (5--35%).
        for res in (facet_pipeline, diffeq_pipeline):
            pct = res.table2_row()["pct_sfr"]
            assert 5.0 <= pct <= 35.0

    def test_most_faults_are_sfi(self, facet_pipeline, diffeq_pipeline):
        for res in (facet_pipeline, diffeq_pipeline):
            counts = res.counts()
            sfi = sum(v for k, v in counts.items() if k.startswith("SFI"))
            assert sfi > counts.get("SFR", 0)

    def test_sfr_faults_never_detected_by_logic_test(
        self, default_pipelines, beyond_table2_pipelines
    ):
        """Soundness cross-check: no SFR fault of any catalog design (the
        Table-2 three, biquad and ewf, all at defaults) is detected by an
        integrated random test independent of the TPGR campaign that
        screened it."""
        import numpy as np

        from repro.designs.catalog import design_names
        from repro.hls.system import NormalModeStimulus, hold_masks
        from repro.logic.faultsim import fault_simulate

        pipelines = {**default_pipelines, **beyond_table2_pipelines}
        assert sorted(pipelines) == sorted(design_names())
        for system, result in pipelines.values():
            sfr = [r.system_site for r in result.sfr_records]
            assert sfr
            assert all(r.simulation is Verdict.UNDETECTED for r in result.sfr_records)
            rng = np.random.default_rng(99)
            hi = 1 << system.rtl.width
            data = {k: rng.integers(0, hi, 64) for k in system.rtl.dfg.inputs}
            stim = NormalModeStimulus(system, data, system.cycles_for(5))
            observe = [n for bus in system.output_buses.values() for n in bus]
            res = fault_simulate(
                system.netlist,
                sfr,
                stim,
                observe=observe,
                valid_masks=hold_masks(system, stim),
            )
            detected = [f for f, v in res.verdicts.items() if v is Verdict.DETECTED]
            assert detected == [], result.design

    def test_diffeq_has_both_select_and_load_sfr(self, diffeq_pipeline):
        sel = [r for r in diffeq_pipeline.sfr_records if r.classification.select_only]
        load = [
            r for r in diffeq_pipeline.sfr_records if r.classification.affects_load_line
        ]
        assert sel and load


class TestConfig:
    def test_small_pattern_count_runs(self, facet_system):
        res = run_pipeline(facet_system, PipelineConfig(n_patterns=32))
        assert res.total_faults > 0

    def test_more_patterns_detect_no_fewer(self, facet_system):
        small = run_pipeline(facet_system, PipelineConfig(n_patterns=32))
        big = run_pipeline(facet_system, PipelineConfig(n_patterns=256))
        assert len(big.by_category("SFI-detected")) >= len(small.by_category("SFI-detected"))

    def test_sfr_set_stable_across_pattern_counts(self, facet_system):
        small = run_pipeline(facet_system, PipelineConfig(n_patterns=64))
        big = run_pipeline(facet_system, PipelineConfig(n_patterns=256))
        assert {r.site for r in small.sfr_records} == {r.site for r in big.sfr_records}


# ------------------------------------------- fault-free trace on a miss only
def _outcomes(result) -> list:
    return [
        (r.system_site, r.category, r.quarantined, r.classification)
        for r in result.records
    ]


class TestFaultFreeRunOnMissOnly:
    """The TPGR data and the fault-free trace feed only the fault
    simulation, so a ``faultsim`` stage hit builds neither."""

    CONFIG = PipelineConfig(n_patterns=64)

    def test_store_hit_simulates_no_fault_free_machine(
        self, facet_system, tmp_path, fault_free_runs
    ):
        calls = fault_free_runs
        cold = run_pipeline(facet_system, self.CONFIG, store=CampaignStore(tmp_path))
        assert (calls["run_golden"], calls["generate"]) == (1, 1)
        warm_store = CampaignStore(tmp_path)
        warm = run_pipeline(facet_system, self.CONFIG, store=warm_store)
        assert (calls["run_golden"], calls["generate"]) == (1, 1)
        assert [(p.stage, p.hit) for p in warm_store.provenance] == [
            ("faultsim", True),
            ("classify", True),
        ]
        assert _outcomes(warm) == _outcomes(cold)

    def test_storeless_and_refreshed_runs_simulate_once(
        self, facet_system, tmp_path, fault_free_runs
    ):
        calls = fault_free_runs
        plain = run_pipeline(facet_system, self.CONFIG)
        assert (calls["run_golden"], calls["generate"]) == (1, 1)
        run_pipeline(facet_system, self.CONFIG, store=CampaignStore(tmp_path))
        refreshed = run_pipeline(
            facet_system, self.CONFIG, store=CampaignStore(tmp_path, refresh=True)
        )
        assert (calls["run_golden"], calls["generate"]) == (3, 3)
        assert _outcomes(refreshed) == _outcomes(plain)

    def test_baseline_edit_run_shares_its_one_golden(
        self, facet_system, tmp_path, fault_free_runs
    ):
        """The incremental path is a miss: it simulates the fault-free
        machine once for the dirty faults, and the planner and the
        manifest publication simulate nothing of their own."""
        from repro.incremental import edit_system_controller, pick_editable_gate

        run_pipeline(facet_system, self.CONFIG, store=CampaignStore(tmp_path))
        edited = edit_system_controller(
            facet_system, pick_editable_gate(facet_system, "restructure"), "restructure"
        )
        result = run_pipeline(
            edited,
            self.CONFIG,
            store=CampaignStore(tmp_path),
            baseline=facet_system.netlist,
        )
        assert result.incremental is not None and result.campaign.replayed > 0
        # one fault-free run for the baseline's cold campaign, one for the edit
        assert (fault_free_runs["run_golden"], fault_free_runs["generate"]) == (2, 2)
