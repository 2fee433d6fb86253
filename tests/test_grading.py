"""Tests for Monte-Carlo power grading of SFR faults."""

import json

import numpy as np
import pytest

import repro.core.parallel as parallel_mod
from repro.cli import main
from repro.core.grading import (
    grade_sfr_faults,
    pick_representative,
    table3_rows,
)
from repro.core.pipeline import PipelineConfig, controller_fault_universe, run_pipeline
from repro.hls.system import NormalModeStimulus
from repro.logic.faults import fault_key
from repro.power.estimator import PowerEstimator
from repro.power.montecarlo import (
    MC_DEFAULT_ITERATIONS_WINDOW,
    _run_batch,
    monte_carlo_power,
    monte_carlo_power_block,
    shared_batches,
)
from repro.store.cache import CampaignStore
from repro.tpg.tpgr import TPGR


@pytest.fixture(scope="module")
def facet_grading(facet_system, facet_pipeline):
    return grade_sfr_faults(
        facet_system, facet_pipeline, batch_patterns=96, max_batches=4
    )


class TestGrading:
    def test_every_sfr_fault_graded(self, facet_grading, facet_pipeline):
        assert len(facet_grading.graded) == len(facet_pipeline.sfr_records)

    def test_figure7_ordering(self, facet_grading):
        groups = [g.group for g in facet_grading.graded]
        # select-only faults first, then load faults
        if "select" in groups and "load" in groups:
            assert groups.index("load") > groups.index("select")
            first_load = groups.index("load")
            assert all(g == "load" for g in groups[first_load:])
        for name in ("select", "load"):
            powers = [g.power_uw for g in facet_grading.graded if g.group == name]
            assert powers == sorted(powers)

    def test_load_faults_increase_power(self, facet_grading):
        """The paper's guarantee: extra-load SFR faults only increase power
        (gated clocks).  Allow tiny negative noise for zero-effect faults."""
        for g in facet_grading.group("load"):
            assert g.pct_change > -0.5

    def test_group_assignment_matches_classification(self, facet_grading):
        for g in facet_grading.graded:
            expected = "load" if g.record.classification.affects_load_line else "select"
            assert g.group == expected

    def test_detected_flags_respect_threshold(self, facet_grading):
        flags = facet_grading.detected_flags()
        for flag, g in zip(flags, facet_grading.graded):
            assert flag == (abs(g.pct_change) > 100 * facet_grading.threshold)

    def test_summary_counts(self, facet_grading):
        s = facet_grading.summary()
        assert s["n_sfr"] == len(facet_grading.graded)
        assert s["n_select_only"] + s["n_load"] == s["n_sfr"]
        assert s["select_detected"] <= s["n_select_only"]
        assert s["load_detected"] <= s["n_load"]

    def test_some_load_fault_beyond_band(self, facet_grading):
        """Facet's shared load lines produce large increases (paper 7b)."""
        assert facet_grading.summary()["load_detected"] >= 1


class TestRepresentativePicks:
    def test_picks_span_range(self, facet_grading):
        picks = pick_representative(facet_grading, count=5)
        assert len(picks) >= 2
        pcts = [p.pct_change for p in picks]
        assert pcts == sorted(pcts)
        assert picks[0].pct_change == min(g.pct_change for g in facet_grading.graded)
        assert picks[-1].pct_change == max(g.pct_change for g in facet_grading.graded)

    def test_small_set_returns_all(self, facet_grading):
        picks = pick_representative(facet_grading, count=10**6)
        assert len(picks) == len(facet_grading.graded)


class TestTestSets:
    def test_fault_free_test_set_power_positive(self, facet_system, facet_grading):
        est = PowerEstimator(facet_system.netlist)
        rows = table3_rows(
            facet_system, est, facet_grading, [], seeds=(0xACE1,), n_patterns=64
        )
        assert rows[0].per_set_uw[0] > 0

    def test_different_seeds_different_power(self, facet_system, facet_grading):
        est = PowerEstimator(facet_system.netlist)
        rows = table3_rows(
            facet_system, est, facet_grading, [], seeds=(0xACE1, 1), n_patterns=64
        )
        p1, p2 = rows[0].per_set_uw
        assert p1 != p2

    @pytest.mark.parametrize("n_patterns", [100, 128])
    def test_per_set_powers_match_full_netlist_reference(
        self, facet_system, facet_grading, n_patterns
    ):
        """Every Table-3 power -- the fault-free row and each pick -- equals
        a serial full-netlist simulation of the same TPGR set bit for bit,
        with the last word padded (100 patterns) or whole (128)."""
        system = facet_system
        est = PowerEstimator(system.netlist)
        picks = pick_representative(facet_grading, count=4)
        seeds = (0xACE1, 0x1)
        rows = table3_rows(
            system, est, facet_grading, picks, seeds=seeds, n_patterns=n_patterns
        )
        faults = [None] + [g.record.system_site for g in picks]
        assert len(rows) == len(faults)
        for j, seed in enumerate(seeds):
            tpgr = TPGR(system.rtl.dfg.inputs, system.rtl.width, seed=seed)
            data = {k: np.asarray(v) for k, v in tpgr.generate(n_patterns).items()}
            stim = NormalModeStimulus(
                system, data, system.cycles_for(MC_DEFAULT_ITERATIONS_WINDOW)
            )
            for row, fault in zip(rows, faults):
                ref = est.power(_run_batch(system, stim, fault), tag_prefix="dp")
                assert row.per_set_uw[j] == ref.total_uw

    def test_table3_rows_structure(self, facet_system, facet_grading):
        est = PowerEstimator(facet_system.netlist)
        picks = pick_representative(facet_grading, count=2)
        rows = table3_rows(
            facet_system, est, facet_grading, picks, seeds=(0xACE1, 1), n_patterns=64
        )
        assert rows[0].label == "fault-free"
        assert len(rows) == 1 + len(picks)
        for row in rows[1:]:
            assert len(row.per_set_uw) == 2
            assert row.per_set_pct is not None

    def test_pct_consistency_across_test_sets(self, facet_system, facet_grading):
        """Paper Table 3: the percentage increase is reasonably consistent
        from test set to test set.  Check the biggest-effect fault agrees
        within a few points between two seeds."""
        est = PowerEstimator(facet_system.netlist)
        picks = [facet_grading.graded[-1]]  # largest power effect
        rows = table3_rows(
            facet_system, est, facet_grading, picks, seeds=(0xACE1, 0xBEEF), n_patterns=256
        )
        pcts = rows[1].per_set_pct
        assert abs(pcts[0] - pcts[1]) < 6.0


# --------------------------------------------- batched-kernel bit identity
def _assert_mc_equal(a, b):
    """Bit-identical MonteCarloResult: exact floats, not approx."""
    assert a.power_uw == b.power_uw
    assert a.batches == b.batches
    assert a.patterns == b.patterns
    assert a.history == b.history
    assert a.converged == b.converged


def _assert_grading_equal(a, b):
    assert a.fault_free_uw == b.fault_free_uw
    assert len(a.graded) == len(b.graded)
    for ga, gb in zip(a.graded, b.graded):
        assert fault_key(ga.record.system_site) == fault_key(gb.record.system_site)
        assert ga.power_uw == gb.power_uw
        assert ga.pct_change == gb.pct_change
        assert ga.group == gb.group


@pytest.fixture
def multicore(monkeypatch):
    """Pretend the machine has 4 cores so n_jobs > 1 builds a real pool."""
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)


@pytest.fixture(scope="module")
def poly_pipeline(poly_system):
    return run_pipeline(poly_system, PipelineConfig(n_patterns=128))


def _sampled_faults(system, pipeline, n_sfr: int = 8, n_stems: int = 6) -> list:
    """SFR faults plus stem faults sampled evenly across the universe."""
    universe = [system.to_system_fault(s) for s in controller_fault_universe(system)]
    stems = [f for f in universe if f.is_stem]
    sfr = [r.system_site for r in pipeline.sfr_records][:n_sfr]
    return sfr + stems[:: max(1, len(stems) // n_stems)][:n_stems]


def _assert_matches_oracle(grading, system, pipeline, **kwargs):
    """Every grade equals the per-fault ``monte_carlo_power`` oracle's."""
    est = PowerEstimator(system.netlist)
    base = monte_carlo_power(system, est, **kwargs).power_uw
    assert grading.fault_free_uw == base
    graded = {fault_key(g.record.system_site): g for g in grading.graded}
    assert len(graded) == len(pipeline.sfr_records)
    for record in pipeline.sfr_records:
        g = graded[fault_key(record.system_site)]
        ref = monte_carlo_power(system, est, fault=record.system_site, **kwargs)
        assert g.power_uw == ref.power_uw
        assert g.pct_change == 100.0 * (ref.power_uw - base) / base


class TestBlockKernelBitIdentity:
    """monte_carlo_power_block vs the per-fault reference."""

    @pytest.mark.parametrize("design", ["facet", "diffeq", "poly"])
    @pytest.mark.parametrize("capture_activity", [False, True])
    def test_matches_serial_per_fault(self, design, capture_activity, request):
        """Powers, histories and (when captured) every per-batch counter
        equal the per-fault loop's: capturing the traces changes nothing,
        and replaying shared batches equals drawing them per call."""
        system = request.getfixturevalue(f"{design}_system")
        pipeline = request.getfixturevalue(f"{design}_pipeline")
        faults = [r.system_site for r in pipeline.sfr_records][:6]
        assert faults, f"{design} has no SFR faults to grade"
        est = PowerEstimator(system.netlist)
        kwargs = dict(batch_patterns=64, max_batches=4)
        block = monte_carlo_power_block(
            system,
            est,
            faults,
            batches=shared_batches(system, **kwargs),
            capture_activity=capture_activity,
            **kwargs,
        )
        for fault, got in zip(faults, block):
            ref = monte_carlo_power(
                system, est, fault=fault, capture_activity=capture_activity, **kwargs
            )
            _assert_mc_equal(got, ref)
            assert (got.activity is None) == (not capture_activity)
            if capture_activity:
                np.testing.assert_array_equal(got.activity.toggles, ref.activity.toggles)
                np.testing.assert_array_equal(
                    got.activity.load_events, ref.activity.load_events
                )

    @pytest.mark.parametrize("rel_tol", [0.5, 1e-12])
    def test_early_and_late_convergence(self, facet_system, facet_pipeline, rel_tol):
        """rel_tol=0.5 converges at min_batches; 1e-12 exhausts the budget
        (converged=False) -- compaction and the non-converged tail must
        both reproduce the per-fault loop exactly."""
        faults = [r.system_site for r in facet_pipeline.sfr_records][:4]
        est = PowerEstimator(facet_system.netlist)
        kwargs = dict(batch_patterns=64, max_batches=5, rel_tol=rel_tol)
        block = monte_carlo_power_block(facet_system, est, faults, **kwargs)
        for fault, got in zip(faults, block):
            ref = monte_carlo_power(facet_system, est, fault=fault, **kwargs)
            _assert_mc_equal(got, ref)
        if rel_tol == 0.5:
            assert all(r.converged and r.batches == 3 for r in block)
        else:
            assert not any(r.converged for r in block)

    @pytest.mark.parametrize("design", ["facet", "poly", "diffeq"])
    @pytest.mark.parametrize("batch_patterns", [32, 96, 100, 160])
    def test_padded_blocks_match_per_fault(self, design, batch_patterns, request):
        """A batch size that is not a multiple of 64 pads every block's
        last word, and full-word stem forces set those padding bits: the
        masked load counters and the never-toggling padding keep every
        block's counters equal to the per-fault oracle's (SFR faults plus
        sampled stem faults)."""
        system = request.getfixturevalue(f"{design}_system")
        pipeline = request.getfixturevalue(f"{design}_pipeline")
        faults = _sampled_faults(system, pipeline)
        assert any(f.is_stem for f in faults)
        est = PowerEstimator(system.netlist)
        kwargs = dict(batch_patterns=batch_patterns, max_batches=3)
        block = monte_carlo_power_block(
            system,
            est,
            faults,
            batches=shared_batches(system, **kwargs),
            capture_activity=True,
            **kwargs,
        )
        for fault, got in zip(faults, block):
            ref = monte_carlo_power(
                system, est, fault=fault, capture_activity=True, **kwargs
            )
            _assert_mc_equal(got, ref)
            np.testing.assert_array_equal(
                got.activity.toggles, ref.activity.toggles, err_msg=str(fault)
            )
            np.testing.assert_array_equal(
                got.activity.load_events, ref.activity.load_events, err_msg=str(fault)
            )


class TestFirstPassEdgeShapes:
    """The first pass lays ``min(min_batches, max_batches)`` batches side
    by side: a budget below the convergence minimum, a one-batch first
    pass (nothing to fuse) and padded batch sizes all match the per-fault
    oracle field for field, activity traces included."""

    @pytest.mark.parametrize("batch_patterns", [32, 100, 192])
    @pytest.mark.parametrize("min_batches", [1, 3])
    @pytest.mark.parametrize("max_batches", [1, 2, 3, 5])
    def test_matches_per_fault(
        self, facet_system, facet_pipeline, max_batches, min_batches, batch_patterns
    ):
        faults = _sampled_faults(facet_system, facet_pipeline, n_sfr=3, n_stems=2)
        est = PowerEstimator(facet_system.netlist)
        kwargs = dict(
            batch_patterns=batch_patterns, max_batches=max_batches, min_batches=min_batches
        )
        block = monte_carlo_power_block(
            facet_system,
            est,
            faults,
            batches=shared_batches(
                facet_system, batch_patterns=batch_patterns, max_batches=max_batches
            ),
            capture_activity=True,
            **kwargs,
        )
        for fault, got in zip(faults, block):
            ref = monte_carlo_power(
                facet_system, est, fault=fault, capture_activity=True, **kwargs
            )
            _assert_mc_equal(got, ref)
            for name in ("toggles", "load_events"):
                np.testing.assert_array_equal(
                    getattr(got.activity, name),
                    getattr(ref.activity, name),
                    err_msg=f"{name} of {fault}",
                )
            assert (got.activity.cycles, got.activity.patterns) == (
                ref.activity.cycles,
                ref.activity.patterns,
            )


class TestBatchedGradingBitIdentity:
    """grade_sfr_faults (the block kernel) vs the per-fault oracle."""

    KWARGS = dict(batch_patterns=64, max_batches=3)

    def test_batched_matches_serial(self, facet_system, facet_pipeline):
        grading = grade_sfr_faults(facet_system, facet_pipeline, **self.KWARGS)
        _assert_matches_oracle(grading, facet_system, facet_pipeline, **self.KWARGS)

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_bit_identical_across_jobs(
        self, facet_system, facet_pipeline, multicore, n_jobs
    ):
        grading = grade_sfr_faults(
            facet_system,
            facet_pipeline,
            config=PipelineConfig(n_jobs=n_jobs),
            **self.KWARGS,
        )
        _assert_matches_oracle(grading, facet_system, facet_pipeline, **self.KWARGS)

    def test_warm_store_replay(self, facet_system, facet_pipeline, tmp_path):
        """A campaign published to the store replays bit-identically, and
        both runs equal the per-fault oracle."""
        store = CampaignStore(tmp_path / "store")
        cold = grade_sfr_faults(facet_system, facet_pipeline, store=store, **self.KWARGS)
        warm = grade_sfr_faults(facet_system, facet_pipeline, store=store, **self.KWARGS)
        assert any(p.hit for p in store.provenance)
        _assert_matches_oracle(cold, facet_system, facet_pipeline, **self.KWARGS)
        _assert_grading_equal(cold, warm)

    def test_cli_result_json_byte_identical(self, tmp_path):
        """The deterministic --result-json report must not change a byte
        when every fault is re-derived on the per-fault oracles under
        --strict (which aborts on any divergence)."""
        default = tmp_path / "default.json"
        audited = tmp_path / "audited.json"
        report = tmp_path / "report.json"
        argv = ["--patterns", "64"]
        tail = ["grade", "facet"]
        assert main([*argv, "--result-json", str(default), *tail]) == 0
        strict = ["--audit-rate", "0.999999", "--strict", "--report-json", str(report)]
        assert main([*argv, *strict, "--result-json", str(audited), *tail]) == 0
        assert default.read_bytes() == audited.read_bytes()
        grading = json.loads(report.read_text())["campaigns"]["grading"]
        assert grading["audited"] == grading["faults"] > 0


class TestMonteCarloCacheLifetime:
    """The Monte-Carlo memos must die with their system."""

    def test_system_and_golden_batches_are_freed(self):
        import gc
        import pickle
        import weakref

        import repro.power.montecarlo as mc
        from repro.designs.catalog import build_rtl
        from repro.core.pipeline import controller_fault_universe
        from repro.hls.system import build_system

        gc.collect()
        golden_before = len(mc._GOLDEN_CACHE)
        system = build_system(build_rtl("facet"))
        faults = [system.to_system_fault(s) for s in controller_fault_universe(system)][:3]
        kwargs = dict(batch_patterns=64, max_batches=3)
        batches = shared_batches(system, **kwargs)
        assert shared_batches(system, **kwargs) is batches
        monte_carlo_power_block(
            system,
            PowerEstimator(system.netlist),
            faults,
            batches=batches,
            **kwargs,
        )
        # one memo entry per batch group: the first pass's batches share one
        assert len(mc._GOLDEN_CACHE) > golden_before
        assert tuple(map(id, batches[:3])) in mc._GOLDEN_CACHE
        # the memo stays out of pickled pool contexts
        assert "_mc_batches" in vars(system)
        assert "_mc_batches" not in vars(pickle.loads(pickle.dumps(system)))

        ref = weakref.ref(system)
        del system, faults, batches
        gc.collect()
        assert ref() is None
        assert len(mc._GOLDEN_CACHE) == golden_before
