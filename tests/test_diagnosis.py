"""Tests for power-signature fault diagnosis."""

import pytest

from repro.cli import main
from repro.core.diagnosis import PowerSignature, build_dictionary
from repro.core.grading import grade_sfr_faults
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.designs.catalog import cached_system
from repro.logic.simulator import CycleSimulator
from repro.store.cache import CampaignStore


@pytest.fixture(scope="module")
def dictionary(facet_system, facet_pipeline):
    return build_dictionary(facet_system, facet_pipeline)


class TestSignature:
    def test_distance_symmetric(self):
        a = PowerSignature(1.0, {"dp:REG1": 2.0})
        b = PowerSignature(3.0, {"dp:REG2": 1.0})
        assert a.distance(b) == b.distance(a)

    def test_distance_zero_for_identical(self):
        a = PowerSignature(1.5, {"dp:REG1": 2.0, "dp:MUL1": -0.5})
        assert a.distance(a) == 0.0

    def test_missing_components_treated_as_zero(self):
        a = PowerSignature(0.0, {"x": 3.0})
        b = PowerSignature(0.0, {})
        assert a.distance(b) == 3.0


class TestDictionary:
    def test_covers_all_sfr_faults(self, dictionary, facet_pipeline):
        assert len(dictionary.entries) == len(facet_pipeline.sfr_records)

    def test_fault_free_signature_is_null(self, dictionary):
        sig = dictionary.signature_of_machine(None)
        assert abs(sig.total_pct) < 1e-9
        assert all(abs(v) < 1e-9 for v in sig.component_pct.values())

    def test_load_fault_heats_its_register(self, dictionary, facet_pipeline, facet_system):
        """A pure extra-load fault's biggest component deviation should sit
        on a register that the fault actually reloads."""
        for record in facet_pipeline.sfr_records:
            cls = record.classification
            if not cls.affects_load_line:
                continue
            load_regs = {e.register for e in cls.effects if e.register}
            sig = dictionary.entries[record.system_site]
            pos = {k: v for k, v in sig.component_pct.items() if v > 1e-6}
            if not pos or not load_regs:
                continue
            hottest = max(pos, key=pos.get)
            if hottest.startswith("dp:REG"):
                assert hottest.removeprefix("dp:") in load_regs
                return
        pytest.skip("no register-attributed load fault found")

    def test_self_diagnosis_is_exact(self, dictionary):
        """Diagnosing a machine carrying a dictionary fault (same data)
        must rank that fault at distance zero."""
        site = next(iter(dictionary.entries))
        observed = dictionary.signature_of_machine(site)
        ranked = dictionary.diagnose(observed, top=3)
        top_sites = [s for s, _ in ranked]
        assert site in top_sites
        best_distance = ranked[0][1]
        site_distance = dict(ranked)[site]
        assert site_distance <= best_distance + 1e-9

    def test_diagnosis_ranks_by_distance(self, dictionary):
        site = list(dictionary.entries)[-1]
        observed = dictionary.signature_of_machine(site)
        ranked = dictionary.diagnose(observed, top=10)
        distances = [d for _, d in ranked]
        assert distances == sorted(distances)


class TestCampaignDictionary:
    """The dictionary is the grading campaign's activity, priced per tag."""

    def test_signature_total_is_the_graded_change(
        self, dictionary, facet_system, facet_pipeline
    ):
        grading = grade_sfr_faults(facet_system, facet_pipeline)
        assert grading.graded
        for g in grading.graded:
            assert dictionary.entries[g.record.system_site].total_pct == g.pct_change

    def test_warm_store_build_simulates_nothing(self, tmp_path, monkeypatch):
        store_dir = str(tmp_path / "store")
        assert main(["--store-dir", store_dir, "grade", "facet"]) == 0
        store = CampaignStore(store_dir)
        system = cached_system("facet")
        pipeline = run_pipeline(system, PipelineConfig(), store=store)

        built = []
        init = CycleSimulator.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CycleSimulator, "__init__", counting_init)
        warm = build_dictionary(system, pipeline, store=store)
        assert built == []
        assert len(warm.entries) == len(pipeline.sfr_records)
        # the counter sees simulation: measuring a device under test simulates
        warm.signature_of_machine(None)
        assert built
        monkeypatch.undo()
        assert warm.entries == build_dictionary(system, pipeline).entries
