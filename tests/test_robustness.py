"""Crash, timeout and fail-fast validation tests.

The contract under test: the resilience layer is invisible in the
results.  A campaign that loses workers or times out hung chunks
produces bit-identical verdicts and Monte-Carlo powers to a clean
uninterrupted run -- and bad inputs are rejected loudly *before* any
fan-out burns compute.  (A killed run resumes from the store: see
``tests/test_store.py``.)

The crash/timeout tests fake a 4-core machine (``os.cpu_count`` is
monkeypatched) so the multi-process paths are exercised even on 1-core
CI runners; the worker processes are real either way.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.core.parallel as parallel_mod
from repro.core.errors import (
    CampaignError,
    ChunkTimeout,
    validate_config,
    validate_netlist,
    validate_stimulus,
)
from repro.core.grading import grade_sfr_faults
from repro.core.parallel import ParallelExecutor
from repro.core.pipeline import PipelineConfig, controller_fault_universe, run_pipeline
from repro.logic.faults import fault_key
from repro.netlist.netlist import Netlist


@pytest.fixture
def multicore(monkeypatch):
    """Pretend the machine has 4 cores so n_jobs > 1 builds a real pool."""
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)


# ------------------------------------------------------------ test workers
def _double(context, item):
    return item * 2


def _crash_once(context, item):
    """Die hard (no exception, no cleanup) on the first attempt only."""
    flag = Path(context) / "crashed"
    if not flag.exists():
        flag.write_text("x")
        os._exit(13)
    return item * 2


def _hang_once(context, item):
    """Hang far past any test timeout on the first attempt per item."""
    flag = Path(context) / f"hung-{item}"
    if not flag.exists():
        flag.write_text("x")
        time.sleep(300)
    return item * 2


def _always_hang(context, item):
    time.sleep(300)


def _raise_on_three(context, item):
    if item == 3:
        raise ValueError("boom on 3")
    return item


class TestExecutorCrashRecovery:
    def test_worker_crash_rebuilds_pool_and_recovers(self, multicore, tmp_path):
        ex = ParallelExecutor(n_jobs=2, chunk_size=4, max_retries=2, backoff=0.01)
        out = ex.run(_crash_once, [1, 2, 3, 4], str(tmp_path))
        assert out == [2, 4, 6, 8]
        report = ex.last_report
        assert report.crashes >= 1
        assert report.pool_rebuilds >= 1
        assert report.retries >= 1
        assert report.completed == 4
        assert all(c.status in ("ok", "serial") for c in report.chunks)

    def test_persistent_crash_degrades_to_serial(self, multicore, tmp_path):
        """A chunk that always kills its worker still completes -- in-process."""
        calls = tmp_path / "log"

        ex = ParallelExecutor(n_jobs=2, chunk_size=2, max_retries=1, backoff=0.01)
        out = ex.run(_crash_in_pool_only, [1, 2], str(calls))
        assert out == [2, 4]
        assert ex.last_report.serial_fallbacks == 1
        assert ex.last_report.crashes >= 1

    def test_worker_exception_is_retried_then_reraised(self, multicore):
        ex = ParallelExecutor(n_jobs=2, chunk_size=2, max_retries=1, backoff=0.01)
        with pytest.raises(ValueError, match="boom on 3"):
            ex.run(_raise_on_three, [1, 2, 3, 4], None)
        report = ex.last_report
        assert report.retries >= 1
        assert report.serial_fallbacks == 1  # the in-process replay that raised


def _crash_in_pool_only(context, item):
    """Crash only when running inside a worker process (pool attempts),
    succeed when replayed in-process by the serial fallback."""
    import repro.core.parallel as P

    if P._WORKER_STATE is not None:
        os._exit(13)
    return item * 2


class TestExecutorTimeouts:
    def test_hung_worker_killed_and_retried(self, multicore, tmp_path):
        ex = ParallelExecutor(
            n_jobs=2, chunk_size=2, timeout=2.0, max_retries=3, backoff=0.01
        )
        out = ex.run(_hang_once, [5, 6], str(tmp_path))
        assert out == [10, 12]
        report = ex.last_report
        assert report.timeouts >= 1
        assert report.pool_rebuilds >= 1
        assert report.completed == 2

    def test_timeout_budget_exhausted_raises_chunk_timeout(self, multicore):
        ex = ParallelExecutor(
            n_jobs=2, chunk_size=2, timeout=0.4, max_retries=1, backoff=0.01
        )
        start = time.monotonic()
        with pytest.raises(ChunkTimeout):
            ex.run(_always_hang, [1, 2], None)
        # two attempts at 0.4 s each, not the worker's 300 s sleep
        assert time.monotonic() - start < 30
        assert ex.last_report.timeouts >= 2
        assert isinstance(ChunkTimeout("x"), TimeoutError)


class TestExecutorEdgeCases:
    def test_empty_items_never_builds_a_pool(self, multicore, monkeypatch):
        def _no_pool(*args, **kwargs):
            raise AssertionError("pool must not be constructed")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _no_pool)
        ex = ParallelExecutor(n_jobs=4)
        assert ex.run(_double, [], None) == []
        assert ex.last_report.n_chunks == 0

    def test_single_item_never_builds_a_pool(self, multicore, monkeypatch):
        def _no_pool(*args, **kwargs):
            raise AssertionError("pool must not be constructed")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _no_pool)
        assert ParallelExecutor(n_jobs=4).run(_double, [7], None) == [14]

    def test_none_context_ships_to_workers(self, multicore):
        out = ParallelExecutor(n_jobs=2, chunk_size=2).run(_double, [1, 2, 3], None)
        assert out == [2, 4, 6]

    def test_on_chunk_fires_for_every_item(self, multicore):
        seen: list[tuple[int, int]] = []

        def observer(items, results):
            seen.extend(zip(items, results))

        out = ParallelExecutor(n_jobs=2, chunk_size=2).run(
            _double, [1, 2, 3, 4, 5], None, on_chunk=observer
        )
        assert out == [2, 4, 6, 8, 10]
        assert sorted(seen) == [(1, 2), (2, 4), (3, 6), (4, 8), (5, 10)]


# ---------------------------------------------------- fail-fast validation
class TestFailFastValidation:
    def test_bad_configs_rejected(self):
        for bad in [
            PipelineConfig(n_patterns=0),
            PipelineConfig(iterations_window=0),
            PipelineConfig(hold_cycles=0),
            PipelineConfig(iteration_counts=()),
            PipelineConfig(iteration_counts=(0,)),
            PipelineConfig(tpgr_seed=-1),
            PipelineConfig(timeout=-2.0),
            PipelineConfig(max_retries=-1),
        ]:
            with pytest.raises(CampaignError):
                validate_config(bad)
        validate_config(PipelineConfig())  # the defaults are valid

    def test_pipeline_rejects_bad_config_before_simulating(self, facet_system):
        with pytest.raises(CampaignError, match="n_patterns"):
            run_pipeline(facet_system, PipelineConfig(n_patterns=0))

    def test_grading_rejects_bad_knobs(self, facet_system, facet_pipeline):
        with pytest.raises(CampaignError, match="threshold"):
            grade_sfr_faults(facet_system, facet_pipeline, threshold=1.5)
        with pytest.raises(CampaignError, match="max_batches"):
            grade_sfr_faults(facet_system, facet_pipeline, max_batches=0)
        with pytest.raises(CampaignError, match="timeout"):
            grade_sfr_faults(
                facet_system, facet_pipeline, config=PipelineConfig(timeout=0)
            )

    def test_empty_netlist_rejected(self):
        with pytest.raises(CampaignError, match="no gates"):
            validate_netlist(Netlist(name="empty"))

    def test_degenerate_stimulus_rejected(self):
        with pytest.raises(CampaignError, match="patterns"):
            validate_stimulus(SimpleNamespace(n_patterns=0, n_cycles=5, apply=lambda s, c: None))
        with pytest.raises(CampaignError, match="cycles"):
            validate_stimulus(SimpleNamespace(n_patterns=8, n_cycles=0, apply=lambda s, c: None))
        with pytest.raises(CampaignError, match="apply"):
            validate_stimulus(SimpleNamespace(n_patterns=8, n_cycles=5, apply=None))

    def test_valid_system_passes(self, facet_system):
        validate_netlist(facet_system.netlist)  # must not raise


class TestFaultKey:
    def test_fault_keys_unique_per_universe(self, facet_system):
        universe = controller_fault_universe(facet_system)
        keys = [fault_key(facet_system.to_system_fault(s)) for s in universe]
        assert len(set(keys)) == len(keys)
