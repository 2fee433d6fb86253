"""Tests for the fleet calibration layer (:mod:`repro.fleet`).

Covers the three layers and their contracts: the activity artifact (the
per-fault integer counters and their store round trip), the population
kernel (sigma=0 reproduces the scalar grading verdicts; ROC monotone;
deterministic JSON; counts equal to a rowwise reference), and the
integration surface (calibrate end-to-end with warm-store
zero-simulation replay, the serve endpoint's validation boundary, and
the CLI subcommand).
"""

from __future__ import annotations

import json
import threading
from types import SimpleNamespace
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.core.errors import CampaignError, IntegrityError
import repro.core.grading as grading_mod
from repro.core.grading import _BASELINE_KEY, grade_sfr_faults, power_detected
from repro.core.pipeline import PipelineConfig
from repro.fleet import (
    FLEET_CHUNK_INSTANCES,
    FleetConfig,
    FleetResult,
    activity_campaign,
    activity_matrix,
    calibrate_fleet,
    calibrate_report_dict,
    choose_threshold,
    recovered_power_uw,
    run_population,
)
from repro.logic.faults import fault_key
from repro.power.estimator import PowerEstimator
from repro.power.iddq import quiescent_leakage_components
from repro.power.montecarlo import DATAPATH_TAG, ActivityTrace, MonteCarloResult
from repro.store.cache import CampaignStore
from repro.store.server import make_server

#: small-but-real Monte-Carlo knobs shared by every campaign in this file
MC = {"seed": 11, "batch_patterns": 64, "max_batches": 3}


@pytest.fixture(scope="module")
def facet_estimator(facet_system):
    return PowerEstimator(facet_system.netlist)


@pytest.fixture(scope="module")
def facet_activity(facet_system, facet_pipeline, facet_estimator):
    return activity_campaign(
        facet_system, facet_pipeline, estimator=facet_estimator, **MC
    )


@pytest.fixture(scope="module")
def facet_seeded_grading(facet_system, facet_pipeline, facet_estimator, facet_activity):
    return grade_sfr_faults(
        facet_system,
        facet_pipeline,
        estimator=facet_estimator,
        threshold=0.05,
        seed_results={_BASELINE_KEY: facet_activity.baseline, **facet_activity.by_key},
        **MC,
    )


# ------------------------------------------------------------- activity
class TestActivityTrace:
    def test_json_round_trip(self):
        trace = ActivityTrace(
            toggles=np.arange(6, dtype=np.int64).reshape(2, 3),
            load_events=np.array([[7], [9]], dtype=np.int64),
            cycles=4,
            patterns=8,
        )
        back = ActivityTrace.from_json_dict(trace.to_json_dict())
        np.testing.assert_array_equal(back.toggles, trace.toggles)
        np.testing.assert_array_equal(back.load_events, trace.load_events)
        assert back.toggles.dtype == np.int64
        assert (back.cycles, back.patterns) == (4, 8)

    def test_round_trip_with_zero_counter_rows(self):
        # A design without DFFEs serializes (batches, 0) arrays, which JSON
        # flattens to empty lists -- the reshape guard must restore them.
        trace = ActivityTrace(
            toggles=np.ones((2, 3), dtype=np.int64),
            load_events=np.empty((2, 0), dtype=np.int64),
            cycles=4,
            patterns=8,
        )
        back = ActivityTrace.from_json_dict(trace.to_json_dict())
        assert back.load_events.shape == (2, 0)

    def test_mean_activity_normalizes_once(self):
        trace = ActivityTrace(
            toggles=np.array([[8, 0], [8, 16]], dtype=np.int64),
            load_events=np.array([[4], [12]], dtype=np.int64),
            cycles=2,
            patterns=4,
        )
        toggles, loads = trace.mean_activity()
        np.testing.assert_allclose(toggles, [1.0, 1.0])
        np.testing.assert_allclose(loads, [1.0])


class TestActivityCampaign:
    def test_campaign_covers_every_sfr_fault(self, facet_activity, facet_pipeline):
        keys = [fault_key(r.system_site) for r in facet_pipeline.sfr_records]
        assert facet_activity.fault_keys == keys
        assert not facet_activity.store_hit
        assert facet_activity.campaign.completed == len(keys)
        assert facet_activity.baseline.activity is not None
        for key in keys:
            assert facet_activity.by_key[key].activity is not None

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_parallel_campaign_bit_identical(
        self, facet_system, facet_pipeline, facet_estimator, facet_activity, n_jobs
    ):
        parallel = activity_campaign(
            facet_system,
            facet_pipeline,
            estimator=facet_estimator,
            config=PipelineConfig(n_jobs=n_jobs),
            **MC,
        )
        assert parallel.baseline.power_uw == facet_activity.baseline.power_uw
        for key in facet_activity.fault_keys:
            a, b = facet_activity.by_key[key], parallel.by_key[key]
            assert a.power_uw == b.power_uw
            np.testing.assert_array_equal(a.activity.toggles, b.activity.toggles)
            np.testing.assert_array_equal(
                a.activity.load_events, b.activity.load_events
            )

    def test_store_round_trip_replays_without_simulation(
        self, facet_system, facet_pipeline, facet_estimator, tmp_path
    ):
        store = CampaignStore(tmp_path / "store")
        cold = activity_campaign(
            facet_system, facet_pipeline, estimator=facet_estimator, store=store, **MC
        )
        assert not cold.store_hit and cold.campaign.completed > 0
        warm = activity_campaign(
            facet_system, facet_pipeline, estimator=facet_estimator, store=store, **MC
        )
        assert warm.store_hit
        assert warm.campaign.completed == 0
        assert warm.campaign.resumed == len(cold.fault_keys)
        for key in cold.fault_keys:
            assert warm.by_key[key].power_uw == cold.by_key[key].power_uw
            np.testing.assert_array_equal(
                warm.by_key[key].activity.toggles, cold.by_key[key].activity.toggles
            )

    def test_seeded_grading_is_bit_identical_to_plain(
        self, facet_system, facet_pipeline, facet_estimator, facet_seeded_grading
    ):
        plain = grade_sfr_faults(
            facet_system,
            facet_pipeline,
            estimator=facet_estimator,
            threshold=0.05,
            **MC,
        )
        seeded = facet_seeded_grading
        assert seeded.campaign.resumed == len(plain.graded)
        assert seeded.campaign.completed == 0
        assert seeded.fault_free_uw == plain.fault_free_uw
        assert [g.power_uw for g in seeded.graded] == [
            g.power_uw for g in plain.graded
        ]
        assert [g.pct_change for g in seeded.graded] == [
            g.pct_change for g in plain.graded
        ]


# ------------------------------------------------------------ population
class TestFleetConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"instances": 0},
            {"sigma_cap": -0.1},
            {"sigma_meas": 1.0},
            {"yield_budget": 1.5},
            {"thresholds": (0.1, 0.05)},
            {"thresholds": (0.05, 0.05)},
            {"thresholds": (0.0, 0.05)},
            {"thresholds": ()},
            {"sigma_leak": 1.0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(CampaignError):
            FleetConfig(**kwargs).validate()

    def test_default_config_is_valid(self):
        FleetConfig().validate()


def test_choose_threshold_walks_from_tight_end():
    thresholds = [0.01, 0.05, 0.10]
    chosen = choose_threshold(
        thresholds, [50, 10, 0], [[0], [3], [9]], instances=100, yield_budget=0.10
    )
    assert chosen == {
        "threshold": 0.05,
        "yield_loss": 0.10,
        "escape_rate": 0.03,
        "met_budget": True,
    }
    # Budget unreachable: loosest threshold, flagged.
    chosen = choose_threshold(
        thresholds, [50, 40, 30], [[0], [3], [9]], instances=100, yield_budget=0.01
    )
    assert chosen["threshold"] == 0.10
    assert not chosen["met_budget"]


def _rowwise_reference(estimator, decomp, A, config, p_ref_uw):
    """The population kernel written the direct way: per chunk, the
    per-instance row weights ``C = S @ W.T``, then ``C @ A``, then a
    broadcast compare against every threshold.  Same RNG draws."""
    lib = estimator.library
    W = decomp.stack()
    to_uw = lib.energy_per_ff() * lib.f_clk * 1e6
    leak_by_type = quiescent_leakage_components(estimator.netlist, lib)
    L = np.array([leak_by_type.get(name, 0.0) for name in decomp.components])
    t = np.asarray(config.thresholds)
    yield_fail = np.zeros(len(t), dtype=np.int64)
    escapes = np.zeros((len(t), A.shape[1] - 1), dtype=np.int64)
    for chunk, start in enumerate(range(0, config.instances, FLEET_CHUNK_INSTANCES)):
        n = min(FLEET_CHUNK_INSTANCES, config.instances - start)
        rng = np.random.default_rng([config.seed, chunk])
        S = np.exp(config.sigma_cap * rng.standard_normal((n, W.shape[1])))
        leak = np.exp(config.sigma_leak * rng.standard_normal((n, W.shape[1]))) @ L
        eps_total = rng.standard_normal((n, A.shape[1]))
        eps_iddq = rng.standard_normal(n)
        P = ((S @ W.T) @ A) * to_uw
        m_total = (P + leak[:, None]) * (1.0 + config.sigma_meas * eps_total)
        m_dyn = m_total - (leak * (1.0 + config.sigma_meas * eps_iddq))[:, None]
        rel = np.abs(m_dyn / p_ref_uw - 1.0)
        yield_fail += (rel[:, 0, None] > t).sum(axis=0)
        escapes += (rel[:, 1:, None] <= t).sum(axis=0).T
    nominal = ((np.ones((1, W.shape[1])) @ W.T) @ A)[0] * to_uw
    return yield_fail.tolist(), escapes.tolist(), nominal.tolist()


class TestPopulationKernel:
    @pytest.fixture(scope="class")
    def matrices(self, facet_estimator, facet_activity):
        decomp = facet_estimator.cap_decomposition(tag_prefix=DATAPATH_TAG)
        A = activity_matrix(facet_activity, facet_estimator)
        return decomp, A

    def _run(self, facet_estimator, facet_activity, matrices, grading, **overrides):
        decomp, A = matrices
        config = FleetConfig(instances=overrides.pop("instances", 4000), **overrides)
        return run_population(
            facet_estimator,
            decomp,
            A,
            facet_activity.fault_keys,
            config,
            p_ref_uw=grading.fault_free_uw,
            design="facet",
        )

    def test_sigma_zero_reproduces_scalar_grading(
        self, facet_estimator, facet_activity, matrices, facet_seeded_grading
    ):
        grading = facet_seeded_grading
        result = self._run(
            facet_estimator,
            facet_activity,
            matrices,
            grading,
            instances=100,
            sigma_cap=0.0,
            sigma_leak=0.0,
            sigma_meas=0.0,
        )
        # Column 0 is the fault-free machine, then campaign fault-key
        # order (grading.graded is pct-sorted); the matmul agrees with
        # the scalar Monte-Carlo mean to float-summation-order precision.
        by_key = {fault_key(g.record.system_site): g for g in grading.graded}
        expected = [grading.fault_free_uw] + [
            by_key[k].power_uw for k in facet_activity.fault_keys
        ]
        np.testing.assert_allclose(result.nominal_uw, expected, rtol=1e-9)
        # Every instance is the nominal chip: zero yield loss everywhere,
        # and per-threshold escapes match the scalar detection verdicts.
        assert result.yield_fail == [0] * len(result.thresholds)
        for i, t in enumerate(result.thresholds):
            undetected = sum(
                1 for g in grading.graded if not power_detected(g.pct_change, t)
            )
            assert sum(result.escapes[i]) == 100 * undetected

    def test_roc_is_monotone_and_chooser_consistent(
        self, facet_estimator, facet_activity, matrices, facet_seeded_grading
    ):
        result = self._run(
            facet_estimator, facet_activity, matrices, facet_seeded_grading
        )
        roc = result.roc()
        losses = [r["yield_loss"] for r in roc]
        escapes = [r["escape_rate"] for r in roc]
        assert losses == sorted(losses, reverse=True)
        assert escapes == sorted(escapes)
        chosen = result.chosen
        assert chosen["threshold"] in result.thresholds
        if chosen["met_budget"]:
            assert chosen["yield_loss"] <= result.params["yield_budget"]

    @pytest.mark.parametrize("instances", [4000, 16384, 16385, 40000])
    def test_kernel_matches_rowwise_reference(
        self, facet_estimator, facet_activity, matrices, facet_seeded_grading, instances
    ):
        """One chunk, an exact chunk and chunk tails: the same counts as
        the rowwise product with a broadcast threshold compare."""
        decomp, A = matrices
        config = FleetConfig(instances=instances)
        p_ref = facet_seeded_grading.fault_free_uw
        result = self._run(
            facet_estimator,
            facet_activity,
            matrices,
            facet_seeded_grading,
            instances=instances,
        )
        yield_fail, escapes, nominal = _rowwise_reference(
            facet_estimator, decomp, A, config, p_ref
        )
        assert result.yield_fail == yield_fail
        assert result.escapes == escapes
        assert result.nominal_uw == nominal

    def test_ties_on_a_threshold_are_escapes(self, facet_estimator):
        """A deviation exactly equal to ``t`` passes the band (``<= t``):
        an escape for a faulty chip, not a yield failure for a good one."""
        lib = facet_estimator.library
        to_uw = lib.energy_per_ff() * lib.f_clk * 1e6
        # one gate type of unit capacitance and no leakage: P = A * to_uw
        decomp = SimpleNamespace(stack=lambda: np.ones((1, 1)), components=["none"])
        A = np.array([[1.03, 1.05, 1.1, 1.2]])
        rel = np.abs(A[0] * to_uw / to_uw - 1.0)  # the kernel's float ops, increasing
        config = FleetConfig(
            instances=10,
            sigma_cap=0.0,
            sigma_leak=0.0,
            sigma_meas=0.0,
            thresholds=(0.01, *rel),
        )
        result = run_population(
            facet_estimator, decomp, A, ["a", "b", "c"], config, p_ref_uw=to_uw
        )
        assert result.yield_fail == [10, 0, 0, 0, 0]
        assert result.escapes == [
            [0, 0, 0],
            [0, 0, 0],
            [10, 0, 0],
            [10, 10, 0],
            [10, 10, 10],
        ]
        reference = _rowwise_reference(facet_estimator, decomp, A, config, to_uw)
        assert (result.yield_fail, result.escapes) == reference[:2]

    def test_non_finite_deviation_raises(
        self, facet_estimator, facet_activity, matrices, facet_seeded_grading
    ):
        """A NaN deviation is neither ``> t`` nor ``<= t``; it must abort
        rather than fall out of both the yield and the escape counts."""
        decomp, A = matrices
        A = A.copy()
        A[:, 2] = np.nan
        with pytest.raises(IntegrityError, match="'facet'"):
            self._run(
                facet_estimator, facet_activity, (decomp, A), facet_seeded_grading
            )

    def test_json_is_deterministic_and_round_trips(
        self, facet_estimator, facet_activity, matrices, facet_seeded_grading
    ):
        a = self._run(facet_estimator, facet_activity, matrices, facet_seeded_grading)
        b = self._run(facet_estimator, facet_activity, matrices, facet_seeded_grading)
        dump = lambda r: json.dumps(r.to_json_dict(), sort_keys=True)  # noqa: E731
        assert dump(a) == dump(b)
        back = FleetResult.from_json_dict(a.to_json_dict())
        assert back.to_json_dict() == a.to_json_dict()
        assert back == FleetResult.from_json_dict(b.to_json_dict())


# ------------------------------------------------------------ integration
def test_calibrate_end_to_end_with_warm_store(
    facet_system, facet_pipeline, facet_estimator, tmp_path
):
    store = CampaignStore(tmp_path / "store")
    config = FleetConfig(instances=2000)
    cold_fleet, cold_campaign, cold_grading = calibrate_fleet(
        facet_system,
        facet_pipeline,
        config,
        estimator=facet_estimator,
        store=store,
        **MC,
    )
    assert not cold_campaign.store_hit
    assert cold_fleet.instances == 2000

    warm_fleet, warm_campaign, warm_grading = calibrate_fleet(
        facet_system,
        facet_pipeline,
        config,
        estimator=facet_estimator,
        store=store,
        **MC,
    )
    # Warm replay: zero simulation anywhere, and the fleet ROC comes back
    # byte-identical from the store (the matmul is skipped entirely).
    assert warm_campaign.store_hit
    assert warm_campaign.campaign.completed == 0
    assert warm_grading.campaign.completed == 0
    assert warm_fleet.to_json_dict() == cold_fleet.to_json_dict()
    assert warm_fleet.matmul_s == 0.0 and warm_fleet.wall_s == 0.0

    report = calibrate_report_dict(warm_fleet)
    assert report["command"] == "calibrate"
    assert report["design"] == "facet"
    assert len(report["roc"]) == len(config.thresholds)


def _stage_rows(store: CampaignStore) -> dict[str, int]:
    kinds = [row.kind for row in store.artifacts.rows()]
    return {kind: kinds.count(kind) for kind in ("grading", "activity", "fleet")}


class TestOneCampaign:
    """``grade`` runs the one Monte-Carlo campaign; ``calibrate`` replays it."""

    def test_grade_captures_what_the_activity_campaign_computes(
        self, facet_system, facet_pipeline, facet_estimator, facet_activity
    ):
        graded = grade_sfr_faults(
            facet_system, facet_pipeline, estimator=facet_estimator, **MC
        )
        assert graded.captured is not None
        assert list(graded.captured) == [_BASELINE_KEY, *facet_activity.fault_keys]
        for key, mc in graded.captured.items():
            ref = facet_activity.baseline if key == _BASELINE_KEY else facet_activity.by_key[key]
            assert mc.power_uw == ref.power_uw
            np.testing.assert_array_equal(mc.activity.toggles, ref.activity.toggles)
            np.testing.assert_array_equal(mc.activity.load_events, ref.activity.load_events)
        # the captured campaign is the activity campaign: nothing re-simulated
        campaign = activity_campaign(
            facet_system, facet_pipeline, estimator=facet_estimator, grading=graded, **MC
        )
        assert campaign.campaign.completed == 0
        assert campaign.by_key == facet_activity.by_key

    def test_clean_grade_publishes_both_stages(
        self, facet_system, facet_pipeline, facet_estimator, tmp_path
    ):
        store = CampaignStore(tmp_path / "store")
        grade_sfr_faults(
            facet_system, facet_pipeline, estimator=facet_estimator, store=store, **MC
        )
        assert _stage_rows(store) == {"grading": 1, "activity": 1, "fleet": 0}
        _fleet, campaign, grading = calibrate_fleet(
            facet_system,
            facet_pipeline,
            FleetConfig(instances=500),
            estimator=facet_estimator,
            store=store,
            **MC,
        )
        assert campaign.store_hit and campaign.campaign.completed == 0
        assert grading.campaign.completed == 0 and grading.captured is None

    def test_tampered_activity_replay_is_rejected(
        self, facet_system, facet_pipeline, facet_estimator, tmp_path, monkeypatch
    ):
        """A well-formed ``activity`` blob whose counters no longer recover
        the recorded power aborts the calibration."""
        store = CampaignStore(tmp_path / "store")
        grade_sfr_faults(
            facet_system, facet_pipeline, estimator=facet_estimator, store=store, **MC
        )
        lookup = CampaignStore.lookup

        def tampered(self, kind, key):
            payload = lookup(self, kind, key)
            if kind == "activity" and payload is not None:
                counts = payload["baseline"]["activity"]["toggles"][0]
                counts[:] = [n + 1 for n in counts]
            return payload

        monkeypatch.setattr(CampaignStore, "lookup", tampered)
        with pytest.raises(IntegrityError, match="recover"):
            calibrate_fleet(
                facet_system,
                facet_pipeline,
                FleetConfig(instances=500),
                estimator=facet_estimator,
                store=store,
                **MC,
            )

    def test_audit_quarantined_grade_publishes_nothing(
        self, facet_system, facet_pipeline, facet_estimator, tmp_path, monkeypatch
    ):
        """A fault the differential audit quarantines keeps the grading,
        activity and fleet stages out of the store, and out of the fleet."""
        keys = [fault_key(r.system_site) for r in facet_pipeline.sfr_records]
        victim = facet_pipeline.sfr_records[0].system_site
        reference = grading_mod.monte_carlo_power

        def skewed(*args, **kwargs):
            mc = reference(*args, **kwargs)
            if kwargs.get("fault") == victim and kwargs.get("batches") is None:
                mc.power_uw *= 1.5  # the audit's recomputation disagrees
            return mc

        monkeypatch.setattr(grading_mod, "monte_carlo_power", skewed)
        store = CampaignStore(tmp_path / "store")
        fleet, campaign, grading = calibrate_fleet(
            facet_system,
            facet_pipeline,
            FleetConfig(instances=500),
            estimator=facet_estimator,
            store=store,
            config=PipelineConfig(audit_rate=0.999999),
            **MC,
        )
        assert [v.fault for v in grading.campaign.violations] == [fault_key(victim)]
        assert fleet.fault_keys == keys[1:]
        assert campaign.fault_keys == keys
        assert _stage_rows(store) == {"grading": 0, "activity": 0, "fleet": 0}

    def test_chaos_tampered_grade_publishes_neither_stage(
        self, facet_system, facet_pipeline, facet_estimator, tmp_path
    ):
        store = CampaignStore(tmp_path / "store")
        graded = grade_sfr_faults(
            facet_system,
            facet_pipeline,
            estimator=facet_estimator,
            store=store,
            config=PipelineConfig(chaos="bitflip:1,seed:7"),
            **MC,
        )
        assert graded.campaign.violations
        assert _stage_rows(store) == {"grading": 0, "activity": 0, "fleet": 0}

    def test_seeded_grade_publishes_grading_only(
        self, facet_system, facet_pipeline, facet_estimator, facet_activity, tmp_path
    ):
        """Seeds replayed from a scalar ``grading`` blob (the incremental
        rename path) carry no traces."""
        seeds = {
            k: MonteCarloResult.from_json_dict(mc.to_json_dict())
            for k, mc in [(_BASELINE_KEY, facet_activity.baseline), *facet_activity.by_key.items()]
        }
        store = CampaignStore(tmp_path / "store")
        seeded = grade_sfr_faults(
            facet_system,
            facet_pipeline,
            estimator=facet_estimator,
            store=store,
            seed_results=seeds,
            **MC,
        )
        assert seeded.captured is None
        assert _stage_rows(store) == {"grading": 1, "activity": 0, "fleet": 0}


def test_cli_calibrate_after_grade_runs_no_monte_carlo(tmp_path):
    """``grade`` then ``calibrate`` on one store: the calibrate replays
    both stages and reports byte-identically to a store-less calibrate and
    to one on an empty store."""
    base = ["--patterns", "64"]

    def calibrate(name: str, *store_args: str) -> bytes:
        out, rep = tmp_path / f"{name}.json", tmp_path / f"{name}-rep.json"
        argv = [*base, *store_args, "--result-json", str(out), "--report-json", str(rep)]
        assert main([*argv, "calibrate", "facet"]) == 0
        return out.read_bytes()

    storeless = calibrate("storeless")
    empty = calibrate("empty", "--store-dir", str(tmp_path / "empty"))
    shared = ["--store-dir", str(tmp_path / "shared")]
    assert main([*base, *shared, "grade", "facet"]) == 0
    after_grade = calibrate("after-grade", *shared)
    assert storeless == empty == after_grade
    campaigns = json.loads((tmp_path / "after-grade-rep.json").read_text())["campaigns"]
    assert campaigns["activity"]["computed"] == 0
    assert campaigns["grading"]["computed"] == 0


def test_warm_calibrate_counts_the_campaign_once_in_saved_s(tmp_path):
    """grade -> calibrate -> calibrate on one store: ``activity`` is a
    by-product of grade's campaign, so replaying it saves only its own
    verification and publication, well below ``grading``'s wall."""
    shared = ["--patterns", "64", "--store-dir", str(tmp_path / "store")]
    assert main([*shared, "grade", "facet"]) == 0
    for name in ("first", "second"):
        rep = tmp_path / f"{name}.json"
        assert main([*shared, "--report-json", str(rep), "calibrate", "facet"]) == 0
    stages = {
        s["stage"]: s for s in json.loads(rep.read_text())["store"]["stages"]
    }
    assert stages["grading"]["hit"] and stages["activity"]["hit"]
    assert stages["grading"]["saved_s"] > 0
    assert stages["activity"]["saved_s"] < 0.25 * stages["grading"]["saved_s"]


def test_cli_calibrate_cold_then_warm(tmp_path, capsys):
    args = [
        "--patterns",
        "64",
        "--store-dir",
        str(tmp_path / "store"),
        "--result-json",
        str(tmp_path / "result.json"),
        "calibrate",
        "facet",
        "--instances",
        "2000",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Fleet ROC" in out
    assert "chosen threshold" in out
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["command"] == "calibrate"
    assert result["fleet"]["params"]["instances"] == 2000

    assert main(args) == 0
    out = capsys.readouterr().out
    assert "0 faults computed" in out
    warm = json.loads((tmp_path / "result.json").read_text())
    assert warm == result


# -------------------------------------------------------- serve endpoint
def _fetch(url: str):
    req = urllib.request.Request(url)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture()
def fleet_server(tmp_path):
    started = []

    def start(compute_calibrate=None, **knobs):
        store = CampaignStore(tmp_path / "store")
        server = make_server(
            "127.0.0.1",
            0,
            store,
            compute_calibrate=compute_calibrate,
            designs=("facet", "diffeq", "poly"),
            **knobs,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return f"http://127.0.0.1:{server.server_address[1]}", server.service

    yield start
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestCalibrateEndpoint:
    def test_params_parsed_and_forwarded(self, fleet_server):
        seen = []

        def compute_calibrate(design, params):
            seen.append((design, params))
            return {"command": "calibrate", "design": design, "params": params}

        base, _svc = fleet_server(compute_calibrate=compute_calibrate)
        status, body = _fetch(
            f"{base}/campaigns/facet/calibrate"
            "?instances=5000&sigma_cap=0.1"
        )
        assert status == 200
        assert body["design"] == "facet"
        assert seen == [("facet", {"instances": 5000, "sigma_cap": 0.1})]

    def test_identical_requests_coalesce_to_one_compute(self, fleet_server):
        calls = []

        def compute_calibrate(design, params):
            calls.append(design)
            return {"design": design, "params": params}

        base, _svc = fleet_server(compute_calibrate=compute_calibrate)
        for _ in range(2):
            status, _ = _fetch(f"{base}/campaigns/facet/calibrate?instances=5000")
            assert status == 200
        # Second hit rides the per-configuration job key: admitted jobs
        # are keyed by (design, params), so the finished holder is reused
        # only while in flight -- two sequential hits both compute.
        assert calls == ["facet", "facet"]

    @pytest.mark.parametrize(
        "query",
        [
            "instances=zero",
            "instances=0",
            "sigma_cap=1.5",
            "sigma_cap=lots",
            "seed=-1",
            "engine=gpu",
            "engine=factored",  # the fleet has one engine; no such knob
            "threshold=0.05",  # campaign knob, not a fleet knob
            "bogus=1",
        ],
    )
    def test_bad_params_rejected_at_http_boundary(self, fleet_server, query):
        computed = []

        def compute_calibrate(design, params):
            computed.append(design)
            return {}

        base, _svc = fleet_server(compute_calibrate=compute_calibrate)
        status, body = _fetch(f"{base}/campaigns/facet/calibrate?{query}")
        assert status == 400
        assert body["error"] == "InputValidationError"
        assert computed == []

    def test_missing_hook_yields_404(self, fleet_server):
        base, _svc = fleet_server(compute_calibrate=None)
        status, body = _fetch(f"{base}/campaigns/facet/calibrate")
        assert status == 404
        assert body["error"] == "NotCached"
