"""Tests for the content-addressed campaign store (:mod:`repro.store`).

Covers the acceptance surface of the store subsystem: fingerprint
stability across processes, single-writer exclusion, corrupted-blob
degradation (recompute, never crash, violation logged), gc safety,
cold/warm bit-identity at the CLI level, resuming a killed run from the
store, chaos quarantine-not-published, and the query/serve layers.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.store.artifacts import ArtifactCorrupt, ArtifactStore, StoreLockError
from repro.store.cache import CampaignStore
from repro.store.fingerprint import (
    canonical_json,
    digest,
    netlist_fingerprint,
    stage_key,
)
from repro.store.query import query_campaigns, query_json
from repro.store.server import make_server

REPO_SRC = str(Path(repro.__file__).parents[1])


# ------------------------------------------------------------- fingerprints
def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": [2, {"y": 0, "x": 1}]}) == canonical_json(
        {"a": [2, {"x": 1, "y": 0}], "b": 1}
    )
    assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})
    assert digest({"a": [1, 2]}) != digest({"a": [2, 1]})  # list order is data


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"power": float("nan")})


_FP_SCRIPT = """
from repro.designs.catalog import cached_system
from repro.store.fingerprint import netlist_fingerprint, stage_key
system = cached_system("facet")
fp = netlist_fingerprint(system.netlist)
print(fp)
print(stage_key("faultsim", fp, {"n": 64, "nested": {"b": 2.5, "a": "x"}}))
"""


def test_fingerprint_stable_across_processes():
    """Keys must not depend on per-process state (hash seed, dict order):
    two fresh interpreters and the current one all agree."""

    def run_once() -> list[str]:
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        env.pop("PYTHONHASHSEED", None)  # let each process pick its own
        out = subprocess.run(
            [sys.executable, "-c", _FP_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return out.stdout.split()

    first, second = run_once(), run_once()
    assert first == second
    from repro.designs.catalog import cached_system

    system = cached_system("facet")
    fp = netlist_fingerprint(system.netlist)
    assert fp == first[0]
    assert stage_key("faultsim", fp, {"n": 64, "nested": {"b": 2.5, "a": "x"}}) == first[1]


# ---------------------------------------------------------- artifact store
def test_put_get_roundtrip_and_dedup(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    payload = {"verdicts": {"a": [1, 2], "b": [0, -1]}}
    store.put("faultsim", "key-one", payload, design="facet", wall_s=1.5)
    store.put("faultsim", "key-two", payload, design="facet")  # same bytes
    assert store.get("key-one") == payload
    row = store.row("key-one")
    assert row.kind == "faultsim" and row.design == "facet" and row.wall_s == 1.5
    stats = store.stats()
    assert stats["artifacts"] == 2
    assert stats["blobs"] == 1  # content addressing dedups identical payloads
    assert store.get("missing") is None


def test_concurrent_writer_exclusion(tmp_path):
    """A second writer must fail fast (not deadlock, not interleave) while
    the first holds the store lock."""
    root = tmp_path / "store"
    first = ArtifactStore(root)
    second = ArtifactStore(root, lock_timeout=0.2)
    with first.writer():
        with pytest.raises(StoreLockError):
            second.put("faultsim", "k", {"v": 1})
    # lock released -> the same writer succeeds
    second.put("faultsim", "k", {"v": 1})
    assert second.get("k") == {"v": 1}


def _corrupt_blob(store: ArtifactStore, key: str) -> None:
    row = store.row(key)
    path = store._blob_path(row.blob_sha)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x40  # flip one bit mid-payload
    path.write_bytes(bytes(data))


def test_corrupted_blob_detected_and_quarantined(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    store.put("grading", "k", {"baseline": 123.25})
    _corrupt_blob(store, "k")
    with pytest.raises(ArtifactCorrupt):
        store.get("k")
    # quarantined: the entry is gone, the next read is a clean miss and a
    # recompute can republish under the same key
    assert store.get("k") is None
    store.put("grading", "k", {"baseline": 123.25})
    assert store.get("k") == {"baseline": 123.25}


def test_campaign_store_degrades_corruption_to_logged_miss(tmp_path):
    store = CampaignStore(tmp_path / "store")
    store.artifacts.put("faultsim", "k", {"verdicts": {}})
    _corrupt_blob(store.artifacts, "k")
    assert store.lookup("faultsim", "k") is None  # miss, not a crash
    assert [v.check for v in store.violations] == ["store-blob-corrupt"]


def test_stage_hit_makes_one_index_query(tmp_path, monkeypatch):
    store = CampaignStore(tmp_path / "store")
    store.artifacts.put("grading", "k", {"v": 1}, wall_s=1.25)
    queries = []
    connect = store.artifacts._connect

    def counting_connect():
        queries.append(1)
        return connect()

    monkeypatch.setattr(store.artifacts, "_connect", counting_connect)
    stage = store.stage("grading", "k", decode=lambda payload: payload)
    assert stage.hit and stage.cached == {"v": 1}
    assert len(queries) == 1
    (prov,) = store.provenance
    assert prov.hit and prov.saved_s == store.artifacts.row("k").wall_s == 1.25


def test_concurrent_stage_hits_keep_their_own_saved_s(tmp_path):
    """``serve`` workers share one store: each thread's stage hit reports
    the wall of the row it read, never another thread's."""
    store = CampaignStore(tmp_path / "store")
    keys = [f"k{i}" for i in range(4)]
    for i, key in enumerate(keys):
        store.artifacts.put("grading", key, {"v": i}, wall_s=float(i + 1))

    def decode(payload):
        time.sleep(0.0005)  # hand the interpreter to another thread mid-stage
        return payload

    def hits(key):
        for _ in range(40):
            assert store.stage("grading", key, decode=decode).hit

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hits, args=(key,)) for key in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert len(store.provenance) == 4 * 40
    wall = {key: float(i + 1) for i, key in enumerate(keys)}
    assert all(p.saved_s == wall[p.key] for p in store.provenance)


def test_verify_reports_defects(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    store.put("report", "good", {"a": 1})
    store.put("report", "bad", {"b": 2})
    store.put("report", "gone", {"c": 3})
    row = store.row("bad")
    store._blob_path(row.blob_sha).write_bytes(b"garbage")
    store._blob_path(store.row("gone").blob_sha).unlink()
    defects = store.verify()
    assert [(d["key"], d["defect"]) for d in defects] == [
        ("bad", "hash-mismatch"),
        ("gone", "missing-blob"),
    ]
    # verify reports; only a read quarantines
    assert {r.key for r in store.rows()} == {"good", "bad", "gone"}


def test_rows_newest_first_breaks_ties_like_max_created_at(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    # one put_many stamps every row with the same created_at
    store.put_many([("report", k, {"k": k}, "facet", None) for k in ("b", "c", "a")])
    assert [r.key for r in store.rows(kind="report")] == ["a", "b", "c"]
    assert [r.key for r in store.rows(kind="report", newest_first=True)] == ["a", "b", "c"]
    oldest_first = list(store.rows(kind="report"))
    assert max(oldest_first, key=lambda r: r.created_at).key == "a"
    store.put("report", "z", {"k": "z"}, design="facet")
    store.put("report", "other", {"k": "o"}, design="poly")
    newest = [r.key for r in store.rows(kind="report", design="facet", newest_first=True)]
    assert newest == ["z", "a", "b", "c"]


def test_newest_skips_and_records_a_corrupt_blob(tmp_path):
    store = CampaignStore(tmp_path / "store")
    store.artifacts.put("report", "old", {"v": 1}, design="facet")
    store.artifacts.put("report", "new", {"v": 2}, design="facet")
    row, data = store.newest("report", "facet")
    assert row.key == "new" and json.loads(data) == {"v": 2}
    _corrupt_blob(store.artifacts, "new")
    row, data = store.newest("report", "facet")
    assert row.key == "old" and json.loads(data) == {"v": 1}
    assert [(v.check, v.fault) for v in store.violations] == [("store-blob-corrupt", "new")]
    assert store.artifacts.row("new") is None  # quarantined
    assert store.newest("report", "poly") is None


def test_gc_never_deletes_referenced_blobs(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    store.put("faultsim", "keep", {"v": 1}, design="facet")
    # plant an orphan blob (as a crashed publish would leave behind)
    orphan = store.root / "objects" / "zz" / ("z" * 64)
    orphan.parent.mkdir(parents=True)
    orphan.write_bytes(b"orphaned bytes")
    result = store.gc()
    assert result["removed_blobs"] == 1
    assert not orphan.exists()
    assert store.get("keep") == {"v": 1}  # referenced artifact untouched
    assert store.verify() == []


# --------------------------------------- gc/verify vs publish (shared lock)
def _keys(n: int) -> list[str]:
    """Realistic store keys: canonical sha-256 fingerprints."""
    return [digest({"test-key": i}) for i in range(n)]


def test_reader_lock_blocks_writers_for_the_whole_pass(tmp_path):
    store = ArtifactStore(tmp_path / "store", lock_timeout=0.1)
    store.put("report", _keys(1)[0], {"n": 0})
    with store.reader():
        # a publish cannot land mid-verify: the maintenance pass owns
        # the store until it releases the shared lock
        with pytest.raises(StoreLockError):
            store.put("report", _keys(2)[1], {"n": 1})
        # and gc (an exclusive whole-pass writer) cannot start either
        with pytest.raises(StoreLockError):
            store.gc()


def test_reader_locks_are_shared(tmp_path):
    store = ArtifactStore(tmp_path / "store", lock_timeout=0.1)
    store.put("report", _keys(1)[0], {"n": 0})
    with store.reader():
        with store.reader():  # two scrubbers/verifiers coexist
            assert store.verify() == []


def test_writer_lock_blocks_scrub_readers(tmp_path):
    store = ArtifactStore(tmp_path / "store", lock_timeout=0.1)
    with store.writer():
        with pytest.raises(StoreLockError):
            with store.reader():
                pass  # pragma: no cover - the acquire raises


# ------------------------------------------------- a store wiped mid-run
def _published(tmp_path) -> CampaignStore:
    store = CampaignStore(tmp_path / "store")
    assert store.publish("report", "k", {"v": 1}, design="facet")
    assert store.lookup("report", "k") == {"v": 1}
    return store


def test_deleted_index_lookup_is_a_logged_miss(tmp_path, caplog):
    store = _published(tmp_path)
    (store.artifacts.root / "index.db").unlink()
    with caplog.at_level("WARNING", logger="repro.store.cache"):
        assert store.lookup("report", "k") is None
    assert "degraded to a miss" in caplog.text
    assert store.violations == []  # a lost index is not corruption


def test_deleted_index_publish_recreates_the_schema(tmp_path):
    store = _published(tmp_path)
    (store.artifacts.root / "index.db").unlink()
    assert store.publish("report", "k", {"v": 1}, design="facet")
    assert store.lookup("report", "k") == {"v": 1}


def test_wiped_root_lookup_is_a_logged_miss(tmp_path, caplog):
    store = _published(tmp_path)
    shutil.rmtree(store.artifacts.root)
    with caplog.at_level("WARNING", logger="repro.store.cache"):
        assert store.lookup("report", "k") is None
    assert "degraded to a miss" in caplog.text
    assert store.violations == []


def test_wiped_root_publish_recreates_the_layout(tmp_path):
    store = _published(tmp_path)
    shutil.rmtree(store.artifacts.root)
    assert store.publish("report", "k", {"v": 1}, design="facet")
    shutil.rmtree(store.artifacts.root)
    rows = [("fault-entry", "e", {"v": 2}, "facet", None)]
    assert store.publish_many(rows) == 1
    assert store.lookup("fault-entry", "e") == {"v": 2}
    assert store.artifacts.verify() == []


# ------------------------------------------------------- CLI cold/warm runs
def _stages(report_json: Path) -> list[dict]:
    return json.loads(report_json.read_text())["store"]["stages"]


def test_cli_cold_warm_bit_identity(tmp_path, capsys, fault_free_runs):
    """The acceptance loop and the stage protocol: ``grade`` then
    ``calibrate``, cold then warm, on one store.  Every stage records one
    provenance row per run: a cold miss is published, a warm hit costs
    its lookup and saves the row's ``wall_s``, and the warm runs write
    byte-identical deterministic result reports.  Only the cold grade
    misses the ``faultsim`` stage, so only it builds TPGR data and
    simulates the fault-free machine."""
    store_dir = str(tmp_path / "store")
    base = ["--patterns", "64", "--store-dir", store_dir]

    def run(name: str, command: str, *extra: str) -> tuple[Path, Path]:
        result, report = tmp_path / f"{name}.json", tmp_path / f"{name}-rep.json"
        args = [*extra, "--result-json", str(result), "--report-json", str(report)]
        assert main(base + args + [command, "facet"]) == 0
        return result, report

    cold, cold_rep = run("cold", "grade")
    cold_cal, cold_cal_rep = run("cold-cal", "calibrate")
    capsys.readouterr()
    warm, warm_rep = run("warm", "grade")
    assert "store: 4/4 stage hits" in capsys.readouterr().out
    warm_cal, warm_cal_rep = run("warm-cal", "calibrate")
    assert (fault_free_runs["run_golden"], fault_free_runs["generate"]) == (1, 1)
    assert cold.read_bytes() == warm.read_bytes()
    assert cold_cal.read_bytes() == warm_cal.read_bytes()
    assert json.loads(warm_rep.read_text())["store"]["hit_ratio"] == 1.0
    assert json.loads(warm_rep.read_text())["campaigns"]["classify"]["computed"] == 0

    # the cold grade publishes all five stages (grading and activity are
    # two views of its one Monte-Carlo campaign); calibrate replays four
    # of them and publishes the fleet
    grade_stages = ["faultsim", "classify", "grading", "activity", "report"]
    replayed = [(stage, True) for stage in grade_stages[:4]]
    expected = {
        cold_rep: [(stage, False) for stage in grade_stages],
        cold_cal_rep: [*replayed, ("fleet", False)],
        warm_rep: [*replayed[:3], ("report", True)],
        warm_cal_rep: [*replayed, ("fleet", True)],
    }
    artifacts = ArtifactStore(store_dir)
    for report, outcomes in expected.items():
        stages = _stages(report)
        assert [(s["stage"], s["hit"]) for s in stages] == outcomes
        for s in stages:
            row_wall_s = artifacts.row(s["key"]).wall_s
            assert s["wall_s"] > 0 and row_wall_s > 0
            if s["hit"]:
                assert s["saved_s"] == row_wall_s and not s["published"]
            else:
                assert s["wall_s"] == row_wall_s and s["published"]

    # --store-refresh recomputes and republishes every stage
    refreshed = run("refresh", "grade", "--store-refresh")[1]
    assert [(s["stage"], s["hit"], s["published"]) for s in _stages(refreshed)] == [
        (stage, False, True) for stage in grade_stages
    ]

    # a store-less run records nothing and writes no store
    before = sorted(tmp_path.rglob("*"))
    plain_rep = tmp_path / "plain-rep.json"
    assert main(["--patterns", "64", "--report-json", str(plain_rep), "grade", "facet"]) == 0
    assert "store" not in json.loads(plain_rep.read_text())
    assert sorted(tmp_path.rglob("*")) == sorted([*before, plain_rep])

    # corrupt the cached faultsim blob: the next run must fall back to
    # recompute, log the violation, and still produce identical results
    fs_key = next(r.key for r in artifacts.rows(kind="faultsim"))
    _corrupt_blob(artifacts, fs_key)
    again, again_rep = run("again", "grade")
    assert again.read_bytes() == cold.read_bytes()
    again_store = json.loads(again_rep.read_text())["store"]
    assert [v["check"] for v in again_store["violations"]] == ["store-blob-corrupt"]
    fs_stage = next(s for s in again_store["stages"] if s["stage"] == "faultsim")
    assert not fs_stage["hit"] and fs_stage["published"]  # recomputed + republished


def _wipe_root(root: Path) -> None:
    shutil.rmtree(root)


def _delete_index(root: Path) -> None:
    (root / "index.db").unlink(missing_ok=True)


def _flip_every_blob(root: Path) -> None:
    for path in (root / "objects").glob("*/*"):
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x40
        path.write_bytes(bytes(data))


#: store calls one ``--patterns 64 grade facet`` makes on an empty store:
#: lookup/publish faultsim, lookup/publish classify, publish_many fault
#: entries, lookup/publish grading, publish activity, lookup/publish report
_GRADE_STORE_CALLS = 10

_GRADE_ARGV = ["--patterns", "64", "grade", "facet"]


@pytest.fixture(scope="module")
def storeless_grade(tmp_path_factory) -> bytes:
    out = tmp_path_factory.mktemp("storeless") / "result.json"
    assert main(["--result-json", str(out), *_GRADE_ARGV]) == 0
    return out.read_bytes()


@pytest.mark.parametrize(
    "damage", [_wipe_root, _delete_index, _flip_every_blob],
    ids=["rm-root", "rm-index", "flip-blobs"],
)
@pytest.mark.parametrize("call", range(_GRADE_STORE_CALLS))
def test_damage_at_any_store_call_keeps_results_identical(
    tmp_path, monkeypatch, capsys, storeless_grade, call, damage
):
    """The store is a recomputable cache: wiping or corrupting it just
    before any lookup/publish of a cold campaign leaves the result report
    byte-identical to a store-less run, and so does the warm rerun."""
    root = tmp_path / "store"
    seen = {"calls": 0, "damaged": False}

    def damaging(method):
        def wrapper(self, *args, **kwargs):
            # count only this run's store: a service thread another test
            # left running may still publish to its own store meanwhile
            if self.artifacts.root != root:
                return method(self, *args, **kwargs)
            if seen["calls"] == call:
                damage(root)
                seen["damaged"] = True
            seen["calls"] += 1
            return method(self, *args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        for name in ("lookup", "publish", "publish_many"):
            patch.setattr(CampaignStore, name, damaging(getattr(CampaignStore, name)))
        cold = tmp_path / "cold.json"
        argv = ["--store-dir", str(root), "--result-json", str(cold), *_GRADE_ARGV]
        assert main(argv) == 0
    assert seen == {"calls": _GRADE_STORE_CALLS, "damaged": True}
    assert cold.read_bytes() == storeless_grade

    warm = tmp_path / "warm.json"
    assert main(["--store-dir", str(root), "--result-json", str(warm), *_GRADE_ARGV]) == 0
    assert warm.read_bytes() == storeless_grade


def test_store_refresh_forces_recompute(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    base = ["--patterns", "64", "--store-dir", store_dir]
    assert main(base + ["classify", "facet"]) == 0
    capsys.readouterr()
    assert main(base + ["--store-refresh", "classify", "facet"]) == 0
    out = capsys.readouterr().out
    assert "0/3 stage hits" in out  # faultsim, classify and report recomputed


def test_cli_store_maintenance_commands(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    assert main(["--patterns", "64", "--store-dir", store_dir, "classify", "facet"]) == 0
    capsys.readouterr()
    assert main(["--store-dir", store_dir, "store", "stats"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["artifacts"] >= 2 and stats["orphan_blobs"] == 0
    assert main(["--store-dir", store_dir, "store", "gc"]) == 0
    capsys.readouterr()
    assert main(["--store-dir", store_dir, "store", "verify"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    # maintenance without a store dir is a usage error
    assert main(["store", "stats"]) == 2


def test_killed_grade_resumes_from_the_store(tmp_path, capsys, monkeypatch):
    """The store is the one resume mechanism: a store-backed grade killed
    inside grading, rerun with the same --store-dir, replays faultsim and
    classify, recomputes only grading, and writes the same result bytes
    as an uninterrupted store-less run."""
    import repro.core.grading as grading_mod

    reference = tmp_path / "reference.json"
    assert main(["--patterns", "64", "--result-json", str(reference), "grade", "facet"]) == 0

    class Killed(Exception):
        pass

    real = grading_mod.simulate_campaign
    calls = []

    def killed_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise Killed("killed inside grading")
        return real(*args, **kwargs)

    monkeypatch.setattr(grading_mod, "simulate_campaign", killed_once)
    base = ["--patterns", "64", "--store-dir", str(tmp_path / "store")]
    with pytest.raises(Killed):
        main(base + ["grade", "facet"])
    rerun, rerun_rep = tmp_path / "rerun.json", tmp_path / "rerun-rep.json"
    argv = ["--result-json", str(rerun), "--report-json", str(rerun_rep), "grade", "facet"]
    assert main(base + argv) == 0
    stages = {s["stage"]: s for s in json.loads(rerun_rep.read_text())["store"]["stages"]}
    assert stages["faultsim"]["hit"] and stages["classify"]["hit"]
    assert not stages["grading"]["hit"] and stages["grading"]["published"]
    assert len(calls) == 2
    assert rerun.read_bytes() == reference.read_bytes()


def test_chaos_tainted_campaign_never_published(tmp_path, capsys):
    """Audit-quarantined results must not be served stale: a campaign that
    flagged integrity violations publishes nothing."""
    store_dir = tmp_path / "store"
    rc = main(
        [
            "--patterns", "64",
            "--chaos", "bitflip:1,seed:7",
            "--store-dir", str(store_dir),
            "grade", "facet",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "integrity violation" in out
    artifacts = ArtifactStore(store_dir)
    assert list(artifacts.rows()) == []  # nothing published, any kind


# ------------------------------------------------------------- query layer
def _fake_report(design: str = "facet", threshold: float = 0.05) -> dict:
    return {
        "schema": 1,
        "command": "grade",
        "design": design,
        "params": {},
        "counts": {"SFR": 2, "SFI-detected": 1},
        "table2": {
            "design": design, "total_faults": 3, "sfr_faults": 2, "pct_sfr": 66.7,
        },
        "faults": [
            {"fault": "1:out:5:0", "site": "g1", "category": "SFR", "quarantined": False},
            {"fault": "2:out:6:1", "site": "g2", "category": "SFR", "quarantined": False},
            {"fault": "3:out:7:0", "site": "g3", "category": "SFI-detected", "quarantined": False},
        ],
        "grading": {
            "fault_free_uw": 100.0,
            "threshold": threshold,
            "summary": {},
            "figure7": [],
            "graded": [
                {"fault": "1:out:5:0", "site": "g1", "group": "select",
                 "power_uw": 90.0, "pct": -10.0, "detected": True},
                {"fault": "2:out:6:1", "site": "g2", "group": "load",
                 "power_uw": 101.0, "pct": 1.0, "detected": False},
            ],
        },
    }


def _publish_fake(store: CampaignStore, design: str, threshold: float = 0.05) -> str:
    report = _fake_report(design, threshold)
    key = digest({"design": design, "threshold": threshold})
    store.publish("report", key, report, design=design, meta={"command": "grade"})
    return key


def test_query_filters(tmp_path):
    store = CampaignStore(tmp_path / "store")
    _publish_fake(store, "facet", 0.05)
    _publish_fake(store, "diffeq", 0.10)
    assert len(query_campaigns(store)) == 2
    assert [m.design for m in query_campaigns(store, design="facet")] == ["facet"]
    assert [m.design for m in query_campaigns(store, threshold=0.10)] == ["diffeq"]
    sfr = query_campaigns(store, verdict="SFR")
    assert all(len(m.faults) == 2 for m in sfr)
    power = query_campaigns(store, design="facet", verdict="power-detected")
    assert [f["fault"] for f in power[0].faults] == ["1:out:5:0"]
    missed = query_campaigns(store, design="facet", verdict="power-missed")
    assert [f["fault"] for f in missed[0].faults] == ["2:out:6:1"]
    rows = query_json(power)
    assert rows[0]["design"] == "facet" and rows[0]["matched_faults"] == 1


def test_query_skips_and_records_a_corrupt_report(tmp_path):
    store = CampaignStore(tmp_path / "store")
    _publish_fake(store, "facet", 0.05)
    bad = _publish_fake(store, "diffeq", 0.10)
    _corrupt_blob(store.artifacts, bad)
    assert [m.design for m in query_campaigns(store)] == ["facet"]
    assert [(v.check, v.fault) for v in store.violations] == [("store-blob-corrupt", bad)]
    assert store.artifacts.row(bad) is None  # quarantined
    assert query_campaigns(CampaignStore(tmp_path / "store", refresh=True)) == []


def test_cli_query(tmp_path, capsys):
    store_dir = tmp_path / "store"
    _publish_fake(CampaignStore(store_dir), "facet")
    assert main(["--store-dir", str(store_dir), "query", "--verdict", "SFR", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["design"] == "facet" and rows[0]["matched_faults"] == 2
    assert main(["--store-dir", str(store_dir), "query"]) == 0
    assert "Cached campaigns" in capsys.readouterr().out
    assert main(["query"]) == 2  # needs --store-dir


# ------------------------------------------------------------- serve layer
@pytest.fixture()
def serving(tmp_path):
    store = CampaignStore(tmp_path / "store")
    _publish_fake(store, "facet", 0.05)
    computed: list[str] = []

    def compute(design: str, threshold: float) -> dict:
        computed.append(design)
        report = _fake_report(design, threshold)
        store.publish("report", digest({"design": design, "threshold": threshold}),
                      report, design=design)
        return report

    server = make_server("127.0.0.1", 0, store, compute=compute,
                         designs=("facet", "diffeq"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, computed
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def test_serve_endpoints(serving):
    base, computed = serving
    assert _get(f"{base}/healthz") == (200, {"ok": True})

    status, campaigns = _get(f"{base}/campaigns")
    assert status == 200 and [c["design"] for c in campaigns] == ["facet"]

    status, report = _get(f"{base}/campaigns/facet")
    assert status == 200 and report["design"] == "facet"
    assert computed == []  # cached campaign served without computing

    status, faults = _get(f"{base}/campaigns/facet/faults?verdict=power-detected")
    assert status == 200 and [f["fault"] for f in faults] == ["1:out:5:0"]

    # miss -> compute-on-miss exactly once, then cached
    status, report = _get(f"{base}/campaigns/diffeq?threshold=0.05")
    assert status == 200 and report["design"] == "diffeq"
    _get(f"{base}/campaigns/diffeq?threshold=0.05")
    assert computed == ["diffeq"]

    status, stats = _get(f"{base}/stats")
    assert status == 200 and stats["computed"] == 1 and stats["served_cached"] >= 2

    with pytest.raises(urllib.error.HTTPError) as exc_info:
        _get(f"{base}/campaigns/unknown-design")
    assert exc_info.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        _get(f"{base}/campaigns/facet?threshold=2.0")
    assert exc_info.value.code == 400
