"""Incremental recompute: netlist diffing, fault-granular replay, reuse.

Covers the :mod:`repro.incremental` subsystem end to end:

* canonical (permutation-invariant) netlist fingerprints and the
  payload round-trip behind ``--baseline``;
* the structural diff engine, its typed delta, the scripted one-gate
  edit helpers and the 3-valued region equivalence certifier;
* Hypothesis properties -- self-diffs are empty, edits dirty exactly
  the right fault sites, renames dirty nothing;
* the full pipeline replay: an incremental run after a one-gate edit is
  byte-identical to a cold run of the edited design while re-simulating
  only a small dirty fraction, and rename-only edits additionally
  transfer Monte-Carlo grading powers;
* stage-row reuse: a cold run publishes one manifest and no per-fault
  rows, the planner reads a fixed number of rows, and a lost, corrupted
  or stage-key-less baseline leaves the run honestly cold.
"""

from __future__ import annotations

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import (
    PipelineConfig,
    controller_fault_universe,
    run_pipeline,
)
from repro.core.report import build_result_report, canonical_report_json
from repro.incremental import (
    apply_gate_edit,
    certify_delta,
    diff_netlists,
    edit_system_controller,
    grading_seed_results,
    pick_editable_gate,
)
from repro.incremental.netdiff import EDIT_MODES, RESTRUCTURE_MAP, RETYPE_MAP
from repro.incremental.replay import (
    project_dirty,
    resolve_baseline,
    structural_dirty_sites,
)
from repro.store.cache import CampaignStore
from repro.store.fingerprint import (
    netlist_fingerprint,
    netlist_from_payload,
    netlist_payload,
)

CONFIG = PipelineConfig(n_patterns=64, audit_rate=0.05)


def _classify_report(system, result) -> str:
    params = {
        "command": "classify",
        "design": result.design,
        "pipeline": CONFIG.fingerprint_params(),
    }
    return canonical_report_json(
        build_result_report(
            result, None, system=system, params=params, command="classify"
        )
    )


# ------------------------------------------------------- fingerprints


class TestCanonicalFingerprint:
    def test_permuted_netlist_fingerprints_identically(self, facet_system):
        """Gate insertion order must not leak into the fingerprint (v2)."""
        netlist = facet_system.netlist
        payload = netlist_payload(netlist)
        shuffled = dict(payload)
        shuffled["gates"] = list(reversed(payload["gates"]))
        permuted = netlist_from_payload(shuffled)
        assert netlist_fingerprint(permuted) == netlist_fingerprint(netlist)

    def test_renamed_gate_changes_fingerprint(self, facet_system):
        netlist = facet_system.controller.netlist
        gate = pick_editable_gate(facet_system, "rename")
        renamed = apply_gate_edit(netlist, gate, "rename")
        assert netlist_fingerprint(renamed) != netlist_fingerprint(netlist)

    def test_payload_round_trip(self, facet_system):
        netlist = facet_system.netlist
        clone = netlist_from_payload(netlist_payload(netlist))
        assert netlist_fingerprint(clone) == netlist_fingerprint(netlist)
        assert clone.net_names == netlist.net_names
        assert [g.name for g in clone.gates] == [g.name for g in netlist.gates]
        assert clone.inputs == netlist.inputs
        assert clone.outputs == netlist.outputs

    def test_payload_survives_json(self, facet_system, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(netlist_payload(facet_system.netlist)))
        clone = netlist_from_payload(json.loads(path.read_text()))
        assert netlist_fingerprint(clone) == netlist_fingerprint(
            facet_system.netlist
        )


# --------------------------------------------------------------- diff


class TestNetlistDiff:
    def test_self_diff_is_structurally_empty(self, facet_system):
        delta = diff_netlists(facet_system.netlist, facet_system.netlist)
        assert delta.structurally_empty
        assert not delta.io_changed
        assert len(delta.gate_map) == len(facet_system.netlist.gates)
        report = certify_delta(
            facet_system.netlist, facet_system.netlist, delta
        )
        assert report.equivalent and report.reason == "structurally-empty"

    def test_restructure_delta_and_certification(self, facet_system):
        system = facet_system
        gate = pick_editable_gate(system, "restructure")
        edited = edit_system_controller(system, gate, "restructure")
        delta = diff_netlists(system.netlist, edited.netlist)
        s = delta.summary()
        assert s["modified_gates"] == 1 and s["added_gates"] == 1
        assert not delta.io_changed
        report = certify_delta(system.netlist, edited.netlist, delta)
        assert report.equivalent, report.reason
        assert report.checked_patterns == 3**report.boundary_inputs

    def test_retype_is_not_certified(self, facet_system):
        system = facet_system
        gate = pick_editable_gate(system, "retype")
        edited = edit_system_controller(system, gate, "retype")
        delta = diff_netlists(system.netlist, edited.netlist)
        assert delta.summary()["modified_gates"] == 1
        report = certify_delta(system.netlist, edited.netlist, delta)
        assert not report.equivalent
        assert report.reason.startswith("region-diverges-at")

    def test_rename_matches_structurally(self, facet_system):
        system = facet_system
        gate = pick_editable_gate(system, "rename")
        edited = edit_system_controller(system, gate, "rename")
        delta = diff_netlists(system.netlist, edited.netlist)
        assert delta.structurally_empty
        assert delta.renamed_gates and delta.renamed_nets
        universe = [
            edited.to_system_fault(s) for s in controller_fault_universe(edited)
        ]
        dirty, _why = structural_dirty_sites(
            edited.netlist,
            delta,
            certify_delta(system.netlist, edited.netlist, delta),
            universe,
        )
        assert dirty == set()

    def test_stability_report(self, facet_system):
        system = facet_system
        edited = edit_system_controller(
            system, pick_editable_gate(system, "rename"), "rename"
        )
        stability = diff_netlists(system.netlist, edited.netlist).stability()
        assert stability.matched_fraction == 1.0
        assert stability.io_stable


class TestProjectDirty:
    def test_projection_bounds_replay(self, facet_system):
        system = facet_system
        edited = edit_system_controller(
            system, pick_editable_gate(system, "restructure"), "restructure"
        )
        sites = [
            edited.to_system_fault(s) for s in controller_fault_universe(edited)
        ]
        _delta, region, summary = project_dirty(system.netlist, edited, sites)
        assert region.equivalent
        assert 0.0 < summary["projected_dirty_fraction"] < 0.25


# --------------------------------------------------- hypothesis properties


def _eligible(system, mode):
    from repro.netlist.gates import is_constant, is_sequential

    netlist = system.controller.netlist
    table = RESTRUCTURE_MAP if mode == "restructure" else RETYPE_MAP
    out = []
    for g in netlist.gates:
        if mode == "rename":
            if not is_sequential(g.gtype) and not is_constant(g.gtype):
                out.append(g.name)
        elif g.gtype in table:
            out.append(g.name)
    return out


class TestDiffProperties:
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_edit_dirties_exactly_the_edited_sites(self, facet_system, data):
        """diff(n, edit(n)) touches exactly the edited gates, nothing else."""
        system = facet_system
        mode = data.draw(st.sampled_from(EDIT_MODES))
        gates = _eligible(system, mode)
        gate = data.draw(st.sampled_from(gates))
        edited = edit_system_controller(system, gate, mode)
        delta = diff_netlists(system.netlist, edited.netlist)
        assert not delta.io_changed
        touched_names = {edited.netlist.gates[i].name for i in delta.touched_new}
        if mode == "rename":
            assert delta.structurally_empty
            assert touched_names == set()
        elif mode == "retype":
            assert touched_names == {f"ctrl/{gate}"}
        else:  # restructure: the rewritten gate plus its appended inverter
            assert touched_names == {f"ctrl/{gate}", f"ctrl/{gate}__inv"}

    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_rename_never_dirties_faults(self, facet_system, data):
        system = facet_system
        gate = data.draw(st.sampled_from(_eligible(system, "rename")))
        edited = edit_system_controller(system, gate, "rename")
        delta = diff_netlists(system.netlist, edited.netlist)
        region = certify_delta(system.netlist, edited.netlist, delta)
        sites = [
            edited.to_system_fault(s) for s in controller_fault_universe(edited)
        ]
        dirty, _ = structural_dirty_sites(edited.netlist, delta, region, sites)
        assert not dirty

    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_restructure_preserves_behavior(self, facet_system, data):
        """Every mapped restructure certifies: NAND+NOT == AND, 3-valued."""
        system = facet_system
        gate = data.draw(st.sampled_from(_eligible(system, "restructure")))
        edited = edit_system_controller(system, gate, "restructure")
        delta = diff_netlists(system.netlist, edited.netlist)
        report = certify_delta(system.netlist, edited.netlist, delta)
        assert report.equivalent, report.reason


# ------------------------------------------------------- pipeline replay


@pytest.fixture(scope="module")
def facet_campaign(facet_system, tmp_path_factory):
    """One cold store-backed facet campaign shared by the replay tests."""
    root = tmp_path_factory.mktemp("inc-store")
    store = CampaignStore(root)
    result = run_pipeline(facet_system, CONFIG, store=store)
    return root, result


class TestIncrementalReplay:
    def test_one_gate_edit_is_byte_identical_and_mostly_replayed(
        self, facet_system, facet_campaign
    ):
        root, _cold = facet_campaign
        system = facet_system
        edited = edit_system_controller(
            system, pick_editable_gate(system, "restructure"), "restructure"
        )
        reference = run_pipeline(edited, CONFIG)
        store = CampaignStore(root)
        inc = run_pipeline(edited, CONFIG, store=store, baseline=system.netlist)
        assert inc.incremental is not None
        assert inc.incremental["dirty_fraction"] < 0.25
        assert inc.incremental["region_equivalent"]
        assert inc.campaign.replayed == inc.incremental["reusable"] > 0
        assert any(
            p.stage == "faultsim-incremental" and p.hit for p in store.provenance
        )
        assert _classify_report(edited, inc) == _classify_report(
            edited, reference
        )

    def test_merged_campaign_graduates_to_stage_blob(
        self, facet_system, facet_campaign
    ):
        """A plain warm rerun of the edited design hits without a planner."""
        root, _cold = facet_campaign
        system = facet_system
        edited = edit_system_controller(
            system, pick_editable_gate(system, "restructure"), "restructure"
        )
        run_pipeline(
            edited, CONFIG, store=CampaignStore(root), baseline=system.netlist
        )
        warm_store = CampaignStore(root)
        warm = run_pipeline(edited, CONFIG, store=warm_store)
        assert warm.incremental is None
        assert any(
            p.stage == "faultsim" and p.hit for p in warm_store.provenance
        )

    def test_behavior_changing_edit_stays_honest(
        self, facet_system, facet_campaign
    ):
        """A retype flips verdicts; the planner must not replay stale ones."""
        root, _cold = facet_campaign
        system = facet_system
        edited = edit_system_controller(
            system, pick_editable_gate(system, "retype"), "retype"
        )
        reference = run_pipeline(edited, CONFIG)
        inc = run_pipeline(
            edited, CONFIG, store=CampaignStore(root), baseline=system.netlist
        )
        assert _classify_report(edited, inc) == _classify_report(
            edited, reference
        )

    def test_rename_transfers_grading_powers(self, facet_system, tmp_path):
        from repro.core.grading import grade_sfr_faults
        from repro.power.montecarlo import (
            MC_DEFAULT_BATCH_PATTERNS,
            MC_DEFAULT_ITERATIONS_WINDOW,
            MC_DEFAULT_SEED,
        )

        system = facet_system
        store = CampaignStore(tmp_path)
        cold = run_pipeline(system, CONFIG, store=store)
        graded = grade_sfr_faults(
            system,
            cold,
            store=store,
            config=PipelineConfig(audit_rate=0.0),
            max_batches=2,
        )
        edited = edit_system_controller(
            system, pick_editable_gate(system, "rename"), "rename"
        )
        store2 = CampaignStore(tmp_path)
        inc = run_pipeline(
            edited, CONFIG, store=store2, baseline=system.netlist
        )
        assert inc.incremental_plan is not None
        seeds = grading_seed_results(
            store2,
            inc.incremental_plan,
            inc.design,
            [r.system_site for r in inc.sfr_records],
            MC_DEFAULT_SEED,
            MC_DEFAULT_BATCH_PATTERNS,
            2,
            MC_DEFAULT_ITERATIONS_WINDOW,
        )
        assert seeds is not None and len(seeds) == len(inc.sfr_records) + 1
        regraded = grade_sfr_faults(
            edited,
            inc,
            config=PipelineConfig(audit_rate=0.0),
            max_batches=2,
            seed_results=seeds,
        )
        assert regraded.campaign.completed == 0
        assert sorted(g.power_uw for g in regraded.graded) == sorted(
            g.power_uw for g in graded.graded
        )

    def test_refresh_disables_replay(self, facet_system, facet_campaign):
        root, _cold = facet_campaign
        system = facet_system
        edited = edit_system_controller(
            system, pick_editable_gate(system, "restructure"), "restructure"
        )
        store = CampaignStore(root, refresh=True)
        inc = run_pipeline(edited, CONFIG, store=store, baseline=system.netlist)
        assert inc.incremental is None


@pytest.fixture(scope="module")
def facet_restructure(facet_system):
    """A restructure-edited facet and its cold store-less report."""
    edited = edit_system_controller(
        facet_system, pick_editable_gate(facet_system, "restructure"), "restructure"
    )
    return edited, _classify_report(edited, run_pipeline(edited, CONFIG))


@pytest.fixture(scope="module")
def facet_baseline_root(facet_system, tmp_path_factory):
    """A store holding only the cold facet campaign; tests copy it."""
    root = tmp_path_factory.mktemp("baseline-store")
    run_pipeline(facet_system, CONFIG, store=CampaignStore(root))
    return root


def _baseline_store(facet_baseline_root, tmp_path) -> tuple:
    """A private copy of the cold facet store, free to damage, with the
    key and payload of its one ``incremental-meta`` manifest."""
    shutil.copytree(facet_baseline_root, tmp_path / "store")
    store = CampaignStore(tmp_path / "store")
    (row,) = store.artifacts.rows(kind="incremental-meta")
    return store, row.key, store.lookup("incremental-meta", row.key)


class TestStageRowReuse:
    """Replay reads the baseline's own ``faultsim`` and ``classify`` rows
    through its ``incremental-meta`` manifest; no per-fault rows exist."""

    def test_cold_run_publishes_only_the_manifest_beside_its_stages(
        self, facet_baseline_root
    ):
        store = CampaignStore(facet_baseline_root)
        kinds = {
            kind: row["artifacts"]
            for kind, row in store.artifacts.stats()["by_kind"].items()
        }
        assert kinds == {
            "faultsim": 1,
            "classify": 1,
            "incremental-meta": 1,
            "netlist": 1,
        }

    def test_planner_lookups_do_not_grow_with_the_universe(
        self, facet_system, poly_system, tmp_path, monkeypatch
    ):
        import repro.incremental.replay as replay_mod

        real_lookup = CampaignStore.lookup
        real_plan = replay_mod.plan_recompute
        calls: list[str] = []

        def counting_lookup(store, kind, key):
            calls.append(kind)
            return real_lookup(store, kind, key)

        def planning(*args, **kwargs):
            with monkeypatch.context() as m:
                m.setattr(CampaignStore, "lookup", counting_lookup)
                return real_plan(*args, **kwargs)

        monkeypatch.setattr(replay_mod, "plan_recompute", planning)
        seen = {}
        for system in (facet_system, poly_system):
            root = tmp_path / system.rtl.name
            run_pipeline(system, CONFIG, store=CampaignStore(root))
            edited = edit_system_controller(
                system, pick_editable_gate(system, "restructure"), "restructure"
            )
            calls.clear()
            inc = run_pipeline(
                edited, CONFIG, store=CampaignStore(root), baseline=system.netlist
            )
            seen[system.rtl.name] = (inc.incremental["reusable"], list(calls))
        (small, small_calls), (large, large_calls) = seen.values()
        assert 0 < small < large
        assert small_calls == large_calls == ["incremental-meta", "faultsim", "classify"]

    @pytest.mark.parametrize("kind", ["faultsim", "classify"])
    @pytest.mark.parametrize("damage", ["delete", "corrupt"])
    def test_lost_stage_row_runs_cold(
        self, facet_system, facet_baseline_root, facet_restructure, tmp_path, kind, damage
    ):
        store, _key, meta = _baseline_store(facet_baseline_root, tmp_path)
        row = store.artifacts.row(meta[kind])
        blob = store.artifacts._blob_path(row.blob_sha)
        if damage == "delete":
            blob.unlink()
        else:
            blob.write_bytes(b"garbage")
        edited, reference = facet_restructure
        inc = run_pipeline(edited, CONFIG, store=store, baseline=facet_system.netlist)
        # the planner read the damaged row, and the run stayed cold
        assert [v.check for v in store.violations] == ["store-blob-corrupt"]
        assert inc.incremental is None
        assert inc.campaign.replayed == inc.classify_campaign.replayed == 0
        assert _classify_report(edited, inc) == reference

    def test_foreign_classifier_context_reclassifies(
        self, facet_system, facet_baseline_root, facet_restructure, tmp_path
    ):
        """The manifest's digests gate classification reuse once per plan:
        verdicts still replay, every classification is recomputed."""
        store, key, meta = _baseline_store(facet_baseline_root, tmp_path)
        meta["classify_ctx"] = "0" * 64
        store.publish("incremental-meta", key, meta, design="facet")
        edited, reference = facet_restructure
        inc = run_pipeline(edited, CONFIG, store=store, baseline=facet_system.netlist)
        assert inc.campaign.replayed == inc.incremental["reusable"] > 0
        assert inc.classify_campaign.replayed == 0
        assert _classify_report(edited, inc) == reference

    def test_manifest_without_stage_keys_is_a_miss(
        self, facet_system, facet_baseline_root, facet_restructure, tmp_path
    ):
        """Manifests written before they named their stage rows replay
        nothing: the run stays honestly cold."""
        store, key, meta = _baseline_store(facet_baseline_root, tmp_path)
        del meta["faultsim"], meta["classify"]
        store.publish("incremental-meta", key, meta, design="facet")
        edited, reference = facet_restructure
        inc = run_pipeline(edited, CONFIG, store=store, baseline=facet_system.netlist)
        assert inc.incremental is None
        assert _classify_report(edited, inc) == reference


class TestResolveBaseline:
    def test_netlist_passthrough(self, facet_system):
        assert (
            resolve_baseline(None, facet_system.netlist)
            is facet_system.netlist
        )

    def test_payload_path(self, facet_system, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(netlist_payload(facet_system.netlist)))
        loaded = resolve_baseline(None, str(path))
        assert netlist_fingerprint(loaded) == netlist_fingerprint(
            facet_system.netlist
        )

    def test_fingerprint_and_auto(self, facet_system, tmp_path):
        # A private store: the shared module store also holds edited
        # variants of facet, which "auto" would legitimately resolve to.
        store = CampaignStore(tmp_path)
        run_pipeline(facet_system, CONFIG, store=store)
        fp = netlist_fingerprint(facet_system.netlist)
        loaded = resolve_baseline(store, fp)
        assert loaded is not None and netlist_fingerprint(loaded) == fp
        auto = resolve_baseline(store, "auto", design="facet", exclude_fp="0" * 64)
        assert auto is not None and netlist_fingerprint(auto) == fp
        assert resolve_baseline(store, "auto", design="facet", exclude_fp=fp) is None

    def test_unresolvable_specs(self, tmp_path):
        store = CampaignStore(tmp_path)
        assert resolve_baseline(store, "f" * 64) is None
        assert resolve_baseline(store, "no/such/file.json") is None
        assert resolve_baseline(store, "") is None
