"""Chaos-harness tests: deterministic failure injection end to end.

The contract under test: chaos never changes final results.  Injected
worker crashes and hangs are absorbed by the recovery layer, injected
bit-flips are caught by the integrity layer's differential audit and
quarantined (or abort the run in strict mode).
"""

from __future__ import annotations

import gc
import math
import tempfile
from pathlib import Path

import pytest

import repro.core.parallel as parallel_mod
from repro.core.errors import CampaignError, IntegrityError, validate_config
from repro.core.grading import grade_sfr_faults
from repro.core.parallel import ParallelExecutor
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.logic.faults import fault_key
from repro.testing.chaos import ChaosEngine, ChaosSpec, flip_float_bit


@pytest.fixture
def multicore(monkeypatch):
    """Pretend the machine has 4 cores so n_jobs > 1 builds a real pool."""
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)


# ------------------------------------------------------------- spec parsing
class TestChaosSpec:
    def test_parse_full_spec(self):
        spec = ChaosSpec.parse("crash:0.15,hang:0.1,bitflip:2,seed:7")
        assert spec == ChaosSpec(crash=0.15, hang=0.1, bitflip=2, seed=7)
        assert spec.active

    def test_parse_partial_and_empty(self):
        assert ChaosSpec.parse("bitflip:1") == ChaosSpec(bitflip=1)
        assert not ChaosSpec.parse("").active
        assert ChaosSpec.parse("crash=0.5").crash == 0.5  # '=' also accepted

    def test_unknown_knob_rejected(self):
        for spec in ("explode:1", "corrupt:1"):
            with pytest.raises(CampaignError, match="unknown chaos knob"):
                ChaosSpec.parse(spec)

    def test_bad_values_rejected(self):
        with pytest.raises(CampaignError, match="needs a float"):
            ChaosSpec.parse("crash:maybe")
        with pytest.raises(CampaignError, match="rate must be"):
            ChaosSpec.parse("crash:1.5")
        with pytest.raises(CampaignError, match=">= 0"):
            ChaosSpec.parse("bitflip:-1")

    def test_hang_without_timeout_rejected_at_config(self):
        with pytest.raises(CampaignError, match="timeout"):
            validate_config(PipelineConfig(chaos="hang:0.5"))
        validate_config(PipelineConfig(chaos="hang:0.5", timeout=10.0))
        with pytest.raises(CampaignError, match="unknown chaos knob"):
            validate_config(PipelineConfig(chaos="nonsense:1"))


# -------------------------------------------------------------- primitives
class TestChaosPrimitives:
    def test_flip_float_bit_is_deterministic_and_involutive(self):
        x = 123.456
        y = flip_float_bit(x)
        assert y != x and math.isfinite(y)
        assert flip_float_bit(y) == x  # flipping the same bit twice restores
        assert flip_float_bit(x) == y

    def test_flip_targets_capped_and_order_independent(self):
        keys = [f"k{i}" for i in range(50)]
        a = ChaosEngine(ChaosSpec(bitflip=3, seed=1))
        a.set_flip_targets(keys)
        b = ChaosEngine(ChaosSpec(bitflip=3, seed=1))
        b.set_flip_targets(list(reversed(keys)))
        assert a.flip_targets == b.flip_targets
        assert len(a.flip_targets) == 3
        c = ChaosEngine(ChaosSpec(bitflip=3, seed=2))
        c.set_flip_targets(keys)
        assert c.flip_targets != a.flip_targets  # seed moves the aim

    def test_from_spec_none_disables(self):
        assert ChaosEngine.from_spec(None) is None
        assert ChaosEngine.from_spec("") is None
        assert ChaosEngine.from_spec("bitflip:1").spec.bitflip == 1

    def test_tamper_only_touches_targets(self):
        from repro.logic.faultsim import Verdict

        engine = ChaosEngine(ChaosSpec(bitflip=1, seed=0))
        engine.set_flip_targets(["hit"])
        assert engine.tamper_verdict("miss", (Verdict.DETECTED, 3)) == (
            Verdict.DETECTED, 3,
        )
        flipped = engine.tamper_verdict("hit", (Verdict.DETECTED, 3))
        assert flipped == (Verdict.UNDETECTED, -1)
        assert engine.tamper_verdict("hit", (Verdict.UNDETECTED, -1))[0] is (
            Verdict.DETECTED
        )


# -------------------------------------------------------- worker injection
def _identity(context, item):
    return item


class TestWorkerInjection:
    def test_injected_crash_is_absorbed_by_recovery(self, multicore, tmp_path):
        engine = ChaosEngine(
            ChaosSpec(crash=0.99, seed=3), workdir=str(tmp_path / "chaos")
        )
        worker, context = engine.wrap(_identity, None)
        ex = ParallelExecutor(n_jobs=2, chunk_size=2, max_retries=2, backoff=0.01)
        out = ex.run(worker, [1, 2, 3, 4], context)
        assert out == [1, 2, 3, 4]  # results unchanged
        assert ex.last_report.crashes >= 1
        assert ex.last_report.retries >= 1

    def test_injected_hang_is_killed_and_retried(self, multicore, tmp_path):
        engine = ChaosEngine(
            ChaosSpec(hang=0.99, seed=3), workdir=str(tmp_path / "chaos")
        )
        worker, context = engine.wrap(_identity, None)
        ex = ParallelExecutor(
            n_jobs=2, chunk_size=2, timeout=2.0, max_retries=3, backoff=0.01
        )
        out = ex.run(worker, [5, 6], context)
        assert out == [5, 6]
        assert ex.last_report.timeouts >= 1

    def test_injection_suppressed_outside_worker_pools(self, tmp_path):
        """The serial path runs in the coordinator; a crash there would
        kill the campaign itself, so injection must not fire."""
        engine = ChaosEngine(
            ChaosSpec(crash=0.99, hang=0.99, seed=3), workdir=str(tmp_path / "chaos")
        )
        worker, context = engine.wrap(_identity, None)
        out = ParallelExecutor(n_jobs=1).run(worker, [1, 2, 3], context)
        assert out == [1, 2, 3]

    def test_wrap_is_identity_when_no_worker_faults(self):
        engine = ChaosEngine(ChaosSpec(bitflip=1))
        worker, context = engine.wrap(_identity, "ctx")
        assert worker is _identity and context == "ctx"


# ------------------------------------------------------ flag directories
class TestChaosWorkdir:
    """Only crash/hang injection needs the flag-file directory; an
    engine's own directory goes away with the engine."""

    @pytest.fixture
    def temp_root(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    @staticmethod
    def _left(root):
        gc.collect()
        return sorted(p.name for p in root.glob("repro-chaos-*"))

    def test_bitflip_only_engine_makes_no_directory(self, temp_root, facet_system):
        engine = ChaosEngine(ChaosSpec(bitflip=1, seed=7))
        engine.set_flip_targets(["k"])
        assert engine.wrap(_identity, None) == (_identity, None)
        run_pipeline(
            facet_system,
            PipelineConfig(n_patterns=64, audit_rate=0.5, chaos="bitflip:1,seed:7"),
        )
        assert self._left(temp_root) == []

    def test_hang_engine_directory_removed_with_engine(self, temp_root):
        engine = ChaosEngine(ChaosSpec(hang=0.5, seed=3))
        _worker, context = engine.wrap(_identity, None)
        workdir = Path(context[3])
        assert workdir.parent == temp_root and workdir.is_dir()
        del engine, context
        assert self._left(temp_root) == []

    def test_crash_campaign_leaves_no_directory(self, temp_root, multicore, facet_system):
        result = run_pipeline(
            facet_system,
            PipelineConfig(n_patterns=64, audit_rate=0.0, n_jobs=2, chaos="crash:0.9,seed:3"),
        )
        assert result.campaign.crashes >= 1
        assert self._left(temp_root) == []

    def test_caller_workdir_is_kept(self, temp_root):
        workdir = temp_root / "mine"
        engine = ChaosEngine(ChaosSpec(crash=0.5), workdir=str(workdir))
        assert engine.wrap(_identity, None)[1][3] == str(workdir)
        del engine
        gc.collect()
        assert workdir.is_dir()


# ----------------------------------------------------------- end to end
class TestChaosEndToEnd:
    def test_bitflips_are_caught_and_results_unchanged(self, facet_system):
        clean = run_pipeline(facet_system, PipelineConfig(n_patterns=64, audit_rate=0.0))
        chaotic = run_pipeline(
            facet_system,
            PipelineConfig(
                n_patterns=64, audit_rate=0.5, chaos="bitflip:2,seed:7"
            ),
        )
        report = chaotic.campaign
        flips = [v for v in report.violations if v.check == "faultsim-differential"]
        assert len(flips) == 2  # both injected flips caught
        assert report.quarantined >= 2
        # quarantine restored the trusted verdicts: final results identical
        assert {r.system_site: r.simulation for r in chaotic.records} == {
            r.system_site: r.simulation for r in clean.records
        }

    def test_strict_mode_aborts_on_injected_flip(self, facet_system):
        with pytest.raises(IntegrityError, match="strict mode"):
            run_pipeline(
                facet_system,
                PipelineConfig(
                    n_patterns=64, audit_rate=0.5, chaos="bitflip:1,seed:7",
                    strict=True,
                ),
            )

    def test_crashes_and_flips_never_change_results(self, facet_system, multicore):
        clean = run_pipeline(facet_system, PipelineConfig(n_patterns=64, audit_rate=0.0))
        chaotic = run_pipeline(
            facet_system,
            PipelineConfig(
                n_patterns=64,
                audit_rate=0.5,
                chaos="crash:0.4,bitflip:1,seed:7",
                n_jobs=2,
                timeout=120.0,
            ),
        )
        assert {r.system_site: r.simulation for r in chaotic.records} == {
            r.system_site: r.simulation for r in clean.records
        }
        assert len(chaotic.campaign.violations) >= 1

    def test_grading_bitflip_quarantined(self, facet_system, facet_pipeline):
        kwargs = dict(batch_patterns=32, max_batches=2)
        clean = grade_sfr_faults(
            facet_system, facet_pipeline, config=PipelineConfig(audit_rate=0.0), **kwargs
        )
        chaotic = grade_sfr_faults(
            facet_system,
            facet_pipeline,
            config=PipelineConfig(audit_rate=0.9, chaos="bitflip:1,seed:11"),
            **kwargs,
        )
        assert len(chaotic.campaign.violations) == 1
        target = chaotic.campaign.violations[0].fault
        # the flipped fault was excluded; every surviving grade is
        # bit-identical to the clean run
        assert len(chaotic.graded) == len(clean.graded) - 1
        assert target not in {
            fault_key(g.record.system_site) for g in chaotic.graded
        }
        clean_by_key = {
            fault_key(g.record.system_site): g.power_uw for g in clean.graded
        }
        for g in chaotic.graded:
            assert g.power_uw == clean_by_key[fault_key(g.record.system_site)]
        checks = {v.check for v in chaotic.campaign.violations}
        assert "grading-differential" in checks or "power-ceiling" in checks
