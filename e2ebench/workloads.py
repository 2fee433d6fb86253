"""The benchmark's workloads: what one pass sends and what it checks.

Every pass sends a ``grade`` and a ``calibrate`` request per paper
design (``facet``, ``poly``, ``diffeq``; the ``table2`` set) in the
order the workload seed picks, then a read phase of GETs against an
in-process store server.
Every request starts with the in-process build caches cleared, as a
fresh ``repro-faults`` process would, so no request inherits compiled
netlists, reachability matrices or Monte-Carlo batches from an earlier
one or from set-up; all state a request may use lives in the store.

* ``cold``  -- ``grade`` then ``calibrate`` per design into a fresh,
  empty store (the first-time user).
* ``warm``  -- the same commands against a store populated in set-up
  by one fixed cold pass (the repeat user).
* ``edit``  -- one seeded restructure edit per design's controller,
  graded and calibrated with the unedited netlist as baseline, from
  the same snapshot of the baseline store each pass (the designer
  iterating on a netlist).

``grade``/``calibrate`` go through ``repro.cli.main`` in-process; for
``edit`` the CLI's design builder is rebound to apply the edit, and
``--baseline`` names the unedited netlist's fingerprint.  The read
phase drives ``make_server`` with compute disabled, as ``serve
--no-compute`` does, from one closed-loop client.
All load runs in this process with ``n_jobs=1``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import http.client
import io
import json
import os
import shutil
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from harness import InputPlan, Interval, SpeedSampler, Tally, Tracer
from pins import EDIT_CANDIDATES, EDIT_PINS, PINS, TABLE2_PINS, oracle_digest

import repro.cli as cli
import repro.designs.catalog as catalog
from repro.incremental.netdiff import edit_system_controller
from repro.store.cache import CampaignStore
from repro.store.fingerprint import netlist_fingerprint
from repro.store.server import make_server

#: the paper designs, as ``repro-faults table2`` runs them
DESIGNS = ["facet", "poly", "diffeq"]

#: GETs per pass (>= 100 so p90 has ten samples beyond it; a multiple
#: of the 6 design/kind pairs, which the mix holds in equal shares)
READS_PER_PASS = 480

#: reads between two host-speed samples in the read phase
READ_BLOCK = 10

#: read kinds: the whole newest report, or just its SFR fault rows
READ_KINDS = ("report", "sfr")


@dataclass
class PassResult:
    """One pass: request times at reference speed (see SpeedSampler)."""

    grade: list[Interval] = field(default_factory=list)
    calibrate: list[Interval] = field(default_factory=list)
    #: per read: (latency ms at reference speed, wall latency ms)
    reads: list[tuple[float, float]] = field(default_factory=list)
    store_bytes: int = 0

    @property
    def grade_s(self) -> float:
        return sum(i.reference for i in self.grade)

    @property
    def calibrate_s(self) -> float:
        return sum(i.reference for i in self.calibrate)

    @property
    def reference_s(self) -> float:
        """All request time of the pass, at reference speed."""
        return self.grade_s + self.calibrate_s + sum(ms for ms, _ in self.reads) / 1e3

    @property
    def wall_s(self) -> float:
        return sum(i.wall for i in self.grade + self.calibrate) + sum(
            wall for _, wall in self.reads
        ) / 1e3


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def dir_bytes(path: Path) -> int:
    """Bytes of every file under ``path`` (0 when it does not exist)."""
    return sum(
        (Path(root) / f).stat().st_size for root, _, files in os.walk(path) for f in files
    )


def reset_process_caches() -> None:
    """Drop every in-process build; compile/batch caches die with it."""
    catalog.clear_build_cache()
    gc.collect()


def sfr_rows(report: dict) -> list[dict]:
    return [f for f in report["faults"] if f["category"] == "SFR"]


def cli_request(store_dir: Path, out_dir: Path, command: str, design: str, extra=()) -> str:
    """``repro-faults --store-dir S --result-json F <command> <design>``,
    in-process: the canonical result JSON it writes."""
    out = out_dir / f"{design}-{command}.json"
    argv = ["--store-dir", str(store_dir), "--result-json", str(out), command, design, *extra]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"repro-faults {' '.join(argv)} exited {code}")
    return out.read_text(encoding="utf-8")


@contextlib.contextmanager
def edited_builds(gates: dict[str, str]):
    """Have ``repro.cli`` build each design in ``gates`` with a
    restructure edit of that controller gate, inside the request."""
    build = cli._build

    def edited(args):
        system = build(args)
        if args.design not in gates:
            return system
        return edit_system_controller(system, gates[args.design], "restructure")

    cli._build = edited
    try:
        yield
    finally:
        cli._build = build


def cold_results(
    root: Path, design: str, commands=("grade", "calibrate")
) -> list[tuple[str, str]]:
    """``commands`` of ``design``, in order, into an empty store under
    ``root`` (removed after): [(command, result JSON)]."""
    store_dir = root / "store"
    store_dir.mkdir(parents=True)
    results = []
    for command in commands:
        reset_process_caches()
        results.append((command, cli_request(store_dir, root, command, design)))
    shutil.rmtree(root)
    return results


def cold_digests(root: Path, design: str) -> dict[str, str]:
    """The oracle digest of each cold result of ``design`` (see pins)."""
    return {
        command: oracle_digest(command, json.loads(text))
        for command, text in cold_results(root, design)
    }


def pin_problem(what: str, command: str, report: dict, expected: str) -> str | None:
    if oracle_digest(command, report) != expected:
        return f"{what} {command}: decisions differ from the pinned oracle"
    return None


class Workload:
    """Set-up plus repeatable passes over one campaign store."""

    name = ""
    #: whether this workload's grade reports must show the paper's counts
    table2_applies = True

    def __init__(self, root: Path, plan: InputPlan, tally: Tally, sampler: SpeedSampler):
        self.root = root
        self.plan = plan
        self.tally = tally
        self.sampler = sampler
        self.store_dir = root / "store"
        self.out_dir = root / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        #: (design, command) -> canonical result digest every pass must match
        self.reference: dict[tuple[str, str], str] = {}
        #: design -> the grade report the current pass produced
        self.reports: dict[str, dict] = {}
        #: passes run so far; each pass draws its own seeded inputs
        self.pass_index = 0

    # ------------------------------------------------------------ hooks
    def setup(self) -> None:
        raise NotImplementedError

    def prepare_store(self) -> None:
        """Bring the store into the state every pass starts from (untimed)."""

    def request(self, command: str, design: str) -> str:
        """One ``grade`` or ``calibrate`` request: its canonical result JSON."""
        return cli_request(self.store_dir, self.out_dir, command, design)

    def pin(self, design: str, command: str) -> str:
        """The pinned oracle digest of this workload's ``command`` result."""
        return PINS[design][command]

    # ----------------------------------------------------------- checks
    def digest_problem(self, design: str, command: str, text: str) -> str | None:
        """Every result must match the reference run of its request."""
        ref = self.reference.setdefault((design, command), digest(text))
        if ref != digest(text):
            return f"{design} {command}: result differs from the reference run"
        return None

    @staticmethod
    def table2_problem(design: str, report: dict) -> str | None:
        row = report["table2"]
        got = (row["total_faults"], row["sfr_faults"])
        if got != TABLE2_PINS[design]:
            return f"{design}: Table 2 {got} != paper {TABLE2_PINS[design]}"
        return None

    def result_problems(self, design: str, command: str, report: dict) -> list[str | None]:
        """The oracle checks of one result: its pin, and the paper's
        Table 2 counts for an unedited grade."""
        problems = [pin_problem(design, command, report, self.pin(design, command))]
        if command == "grade" and self.table2_applies:
            problems.append(self.table2_problem(design, report))
        return problems

    def record(self, what: str, problems: list[str | None]) -> None:
        """Count one operation; it failed if any of its checks did."""
        found = [p for p in problems if p]
        self.tally.record(not found, f"{what}: {'; '.join(found)}")

    # ------------------------------------------------------------- pass
    def _timed_request(self, tracer: Tracer | None, command: str, design: str):
        """One request as a fresh process would run it: (result, Interval).

        The result is None after a crash, which counts as a failure.
        """
        reset_process_caches()
        name = f"request.{command}"
        span = tracer.span(name) if tracer else contextlib.nullcontext()
        try:
            with self.sampler.timed() as interval, span:
                result = self.request(command, design)
        except Exception as exc:  # a crashed request is a counted failure
            traceback.print_exc()
            self.tally.record(False, f"{name} {design}: {type(exc).__name__}: {exc}")
            return None, interval
        return result, interval

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        index = self.pass_index
        self.pass_index += 1
        self.prepare_store()
        bytes_before = dir_bytes(self.store_dir)
        out = PassResult()
        self.reports = {}
        for design in self.plan.design_order(index):
            for command, times in (("grade", out.grade), ("calibrate", out.calibrate)):
                text, interval = self._timed_request(tracer, command, design)
                times.append(interval)
                if text is None:
                    continue
                report = json.loads(text)
                if command == "grade":
                    self.reports[design] = report
                self.record(
                    f"{command} {design}",
                    [self.digest_problem(design, command, text)]
                    + self.result_problems(design, command, report),
                )
        out.store_bytes = dir_bytes(self.store_dir) - bytes_before
        out.reads = self.read_phase(index, tracer)
        return out

    def read_phase(self, index: int, tracer: Tracer | None) -> list[tuple[float, float]]:
        """Seeded GETs from one closed-loop client, as ``serve --no-compute``
        answers them: per read (reference ms, wall ms)."""
        reset_process_caches()
        # The server and handler threads (which inherit this mask) share
        # the main thread's CPU, so the speed samples taken here measure the
        # CPU that serves the reads.  The interpreter lock lets one of these
        # threads run at a time anyway.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        store = CampaignStore(self.store_dir)
        server = make_server("127.0.0.1", 0, store, designs=tuple(catalog.design_names()))
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        reads = self.plan.reads(index, READS_PER_PASS, READ_KINDS)
        latencies: list[tuple[float, float]] = []
        # No timer samples inside a read: the handler would have to win the
        # interpreter lock back from the server thread first, an extra wait
        # the probe time does not account for.  Blocks are sampled at their
        # ends instead.
        self.sampler.stop()
        try:
            for first in range(0, len(reads), READ_BLOCK):
                block: list[float] = []
                mark = self.sampler.mark()
                for design, kind in reads[first : first + READ_BLOCK]:
                    ms = self._read(tracer, host, port, design, kind)
                    if ms is not None:
                        block.append(ms)
                scale = SpeedSampler.NOMINAL_S / self.sampler.close(mark).probe
                latencies += [(ms * scale, ms) for ms in block]
        finally:
            self.sampler.start()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            os.sched_setaffinity(0, cpus)
        return latencies

    def _read(self, tracer, host, port, design: str, kind: str) -> float | None:
        """One GET: its latency in ms, or None if it never completed."""
        path = f"/campaigns/{design}"
        if kind == "sfr":
            path += "/faults?verdict=SFR"
        span = tracer.span("serve.http") if tracer else contextlib.nullcontext()
        t0 = self.sampler.clock()
        try:
            with span:
                conn = http.client.HTTPConnection(host, port, timeout=30)
                try:
                    conn.request("GET", path)
                    resp = conn.getresponse()
                    body = resp.read()
                finally:
                    conn.close()
        except OSError as exc:
            self.tally.record(False, f"GET {path}: {exc}")
            return None
        wall = self.sampler.clock() - t0
        self.record(f"GET {path}", [self.read_problem(design, kind, resp.status, body)])
        return wall * 1e3

    def read_problem(self, design: str, kind: str, status: int, body: bytes) -> str | None:
        """A served body must equal the report this pass stored."""
        if status != 200:
            return f"HTTP {status}"
        report = self.reports.get(design)
        if report is None:
            return "no report was produced for this design"
        expected = report if kind == "report" else sfr_rows(report)
        if json.loads(body) != expected:
            return "served body differs from the stored report"
        return None


class Cold(Workload):
    name = "cold"

    def setup(self) -> None:
        self.store_dir.mkdir(parents=True)

    def prepare_store(self) -> None:
        shutil.rmtree(self.store_dir)
        self.store_dir.mkdir(parents=True)


class Warm(Workload):
    name = "warm"

    def setup(self) -> None:
        """One fixed cold pass (canonical design order, no reads)."""
        self.store_dir.mkdir(parents=True)
        for design in DESIGNS:
            for command in ("grade", "calibrate"):
                reset_process_caches()
                text = self.request(command, design)
                self.reference[(design, command)] = digest(text)
                self.record(
                    f"set-up {command} {design}",
                    self.result_problems(design, command, json.loads(text)),
                )


class Edit(Workload):
    """Seeded one-gate restructure edits, regraded against the baseline."""

    name = "edit"
    table2_applies = False  # the edited netlist has its own fault universe

    def setup(self) -> None:
        """Baseline store snapshot plus a cold reference of every edit."""
        self.gates = self.plan.edit_gates(EDIT_CANDIDATES)
        # the unedited netlists, by the fingerprint ``--baseline`` takes
        self.baseline = {
            d: netlist_fingerprint(catalog.cached_system(d).netlist) for d in DESIGNS
        }
        self.snapshot = self.root / "baseline"
        self.snapshot.mkdir(parents=True)
        for design in DESIGNS:
            reset_process_caches()
            report = json.loads(cli_request(self.snapshot, self.out_dir, "grade", design))
            self.record(
                f"set-up baseline grade {design}",
                [
                    self.table2_problem(design, report),
                    pin_problem(design, "grade", report, PINS[design]["grade"]),
                ],
            )
        # Every incremental report must reproduce, byte for byte, a cold
        # run of the same edited design into an empty store.
        with edited_builds(self.gates):
            for design in DESIGNS:
                ((_, text),) = cold_results(self.root / "cold-reference", design, ("grade",))
                self.reference[(design, "grade")] = digest(text)

    def prepare_store(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)
        shutil.copytree(self.snapshot, self.store_dir)

    def pin(self, design: str, command: str) -> str:
        return EDIT_PINS[design][self.gates[design]][command]

    def request(self, command: str, design: str) -> str:
        with edited_builds(self.gates):
            return cli_request(
                self.store_dir,
                self.out_dir,
                command,
                design,
                ["--baseline", self.baseline[design]],
            )


WORKLOADS = {w.name: w for w in (Cold, Warm, Edit)}
