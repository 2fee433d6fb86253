"""Command-line interface: ``repro-faults``.

Subcommands::

    repro-faults classify diffeq            # Section-5 pipeline, Table-2 row
    repro-faults grade diffeq               # + Monte-Carlo power, Figure 7
    repro-faults calibrate diffeq           # fleet-scale threshold ROC
    repro-faults table2                     # the paper's three designs
    repro-faults strategies diffeq          # separate/integrated/power compare
    repro-faults worstcase diffeq           # Section-4 max corruption
    repro-faults datapath diffeq            # integrated datapath-fault test
    repro-faults compile behavior.txt       # behavioural text -> pipeline
    repro-faults dump-vcd diffeq run.vcd    # waveform of one computation
    repro-faults export diffeq out.v        # write the system netlist
    repro-faults stats diffeq               # netlist statistics

Store-backed workflows (``--store-dir`` -- see docs/store.md)::

    repro-faults --store-dir .cache grade diffeq    # publishes + replays
    repro-faults --store-dir .cache query --verdict SFR
    repro-faults --store-dir .cache serve --port 8357
    repro-faults --store-dir .cache store stats|gc|verify
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .core.errors import CampaignError, validate_config
from .core.grading import DEFAULT_THRESHOLD, grade_sfr_faults, pick_representative
from .core.pipeline import PipelineConfig, run_pipeline
from .core.report import (
    build_json_report,
    build_result_report,
    canonical_report_json,
    render_campaign_summary,
    render_figure7,
    render_integrity_violations,
    render_store_summary,
    render_table1,
    render_table2,
)
from .designs.catalog import cached_system, design_names
from .hls.system import build_system
from .netlist.bench import write_bench
from .netlist.stats import analyze
from .netlist.verilog import write_verilog
from .power.montecarlo import (
    MC_DEFAULT_BATCH_PATTERNS,
    MC_DEFAULT_ITERATIONS_WINDOW,
    MC_DEFAULT_MAX_BATCHES,
    MC_DEFAULT_SEED,
    mc_campaign_params,
)
from .store.cache import CampaignStore, open_stage
from .store.fingerprint import netlist_fingerprint, stage_key
from .store.query import QUERY_VERDICTS

#: (seed, batch patterns, max batches, iterations window) of every
#: Monte-Carlo campaign the CLI runs: they key its published powers.
_MC_DEFAULTS = (
    MC_DEFAULT_SEED,
    MC_DEFAULT_BATCH_PATTERNS,
    MC_DEFAULT_MAX_BATCHES,
    MC_DEFAULT_ITERATIONS_WINDOW,
)

def _number(kind, ok, rule: str):
    """argparse type: a ``kind`` (int or float) for which ``ok(value)``
    holds; anything else is rejected with a readable error naming ``rule``."""
    noun = "an integer" if kind is int else "a number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value

    return parse


_positive_int = _number(int, lambda v: v >= 1, "must be >= 1")
_nonnegative_int = _number(int, lambda v: v >= 0, "must be >= 0")
_positive_float = _number(float, lambda v: v > 0, "must be > 0")
_fraction = _number(float, lambda v: 0 < v < 1, "must be a fraction in (0, 1)")
#: fleet sigmas and budgets
_unit_interval = _number(float, lambda v: 0 <= v < 1, "must be a fraction in [0, 1)")

#: ``calibrate``'s fleet flags: (flag, :class:`~repro.fleet.FleetConfig`
#: field it sets, argparse type, help); defaults come from ``FleetConfig``
_FLEET_FLAGS = (
    ("--instances", "instances", _positive_int, "manufactured instances to "
     "sample (the kernel is a matmul, so millions are fine)"),
    ("--sigma-cap", "sigma_cap", _unit_interval,
     "per-gate-type log-normal capacitance spread"),
    ("--sigma-leak", "sigma_leak", _unit_interval,
     "per-gate-type log-normal leakage spread"),
    ("--sigma-meas", "sigma_meas", _unit_interval,
     "multiplicative tester measurement noise"),
    ("--yield-budget", "yield_budget", _unit_interval,
     "tolerated fault-free yield loss for the threshold chooser"),
    ("--fleet-seed", "seed", _nonnegative_int, "population sampling seed "
     "(results are byte-identical for a fixed configuration)"),
)


def _print_campaign(campaign, title: str) -> None:
    """Surface retries/crashes/seeds whenever anything non-trivial ran."""
    if campaign is not None and (
        campaign.resumed or campaign.audited or campaign.has_incidents()
    ):
        print(render_campaign_summary(campaign, title=title))
    if campaign is not None and campaign.violations:
        print(render_integrity_violations(campaign, title=f"{title} integrity"))


def _store(args) -> CampaignStore | None:
    """The persistent campaign store of this invocation, if enabled."""
    if not args.store_dir:
        return None
    return CampaignStore(args.store_dir, refresh=args.store_refresh)


def _print_store(store: CampaignStore | None) -> None:
    if store is not None and (store.provenance or store.violations):
        print(render_store_summary(store))


def _finish(args, store, result, report: dict, **campaigns) -> None:
    """The shared tail of ``classify``/``grade``/``calibrate``: campaign,
    incremental and store summaries, then the requested JSON reports.

    ``campaigns`` are the command's campaigns after the pipeline's two,
    by report name (``activity``, ``grading``) in print order.
    """
    _print_campaign(result.campaign, "fault-sim campaign")
    _print_campaign(result.classify_campaign, "classify campaign")
    inc = result.incremental
    if inc:
        print(
            f"incremental: {inc['reusable']}/{inc['faults']} faults replayed "
            f"from baseline {inc['baseline']} "
            f"(dirty fraction {inc['dirty_fraction']:.1%}, "
            f"region: {inc['region_reason']})"
        )
    for name, campaign in campaigns.items():
        _print_campaign(campaign, f"{name} campaign")
    _print_store(store)
    if args.result_json:
        with open(args.result_json, "w", encoding="utf-8") as f:
            f.write(canonical_report_json(report))
        print(f"wrote {args.result_json}")
    if args.report_json:
        campaigns = {
            "faultsim": result.campaign,
            "classify": result.classify_campaign,
            **campaigns,
        }
        with open(args.report_json, "w", encoding="utf-8") as f:
            json.dump(
                build_json_report(campaigns, store=store), f, indent=2, allow_nan=False
            )
        print(f"wrote {args.report_json}")


def _result_report(
    store: CampaignStore | None,
    system,
    config: PipelineConfig,
    result,
    grading=None,
    command: str = "classify",
) -> dict:
    """Build (or replay) the deterministic result report of one run.

    With a store, the report is its own cached stage: a warm run replays
    the published report dict verbatim; a cold clean run publishes it so
    ``query``/``serve`` can answer without simulating.  Campaigns that
    recorded integrity violations are never published.
    """
    from .logic.faults import fault_key

    # The fault list pins the campaign identity: fingerprints are
    # permutation-invariant (v2), but report payloads carry index-based
    # fault keys, so two permuted-but-identical netlists must not alias
    # each other's cached reports.
    params: dict = {
        "command": command,
        "design": result.design,
        "pipeline": config.fingerprint_params(),
        "faults": [fault_key(r.system_site) for r in result.records],
    }
    if grading is not None:
        params["threshold"] = grading.threshold
        params["mc"] = mc_campaign_params(*_MC_DEFAULTS)
    stage = open_stage(
        store,
        "report",
        lambda: stage_key("report", result.netlist_fp, params),
        lambda cached: cached,
    )
    if stage.hit:
        return stage.cached
    report = build_result_report(
        result, grading, system=system, params=params, command=command
    )
    stage.publish(
        lambda: report,
        result.campaign,
        result.classify_campaign,
        None if grading is None else grading.campaign,
        design=result.design,
        meta={"command": command},
    )
    return report


def _system(args, name: str):
    """Catalog design ``name`` built with this invocation's global knobs."""
    return cached_system(
        name,
        width=args.width,
        encoding_kind=args.encoding,
        output_style=args.output_style,
    )


def _build(args):
    return _system(args, args.design)


def _baseline_spec(args, system):
    """Turn ``--baseline`` into what :func:`run_pipeline` accepts.

    A design name from the catalog resolves to that design's netlist
    (built with this invocation's width/encoding/output-style knobs);
    fingerprints, payload paths and ``auto`` pass through to
    :func:`~repro.incremental.replay.resolve_baseline`.
    """
    spec = args.baseline
    if not spec:
        return None
    if spec != system.rtl.name and spec in design_names():
        return _system(args, spec).netlist
    return spec


def _config(args) -> PipelineConfig:
    """The run's one configuration: every campaign of the command reads
    its fan-out and integrity knobs from it."""
    return PipelineConfig(
        n_patterns=args.patterns,
        n_jobs=args.jobs,
        timeout=args.timeout,
        max_retries=args.max_retries,
        audit_rate=args.audit_rate,
        strict=args.strict,
        chaos=args.chaos,
    )


def _cmd_classify(args) -> int:
    system = _build(args)
    store = _store(args)
    config = _config(args)
    result = run_pipeline(
        system, config, store=store, baseline=_baseline_spec(args, system)
    )
    _finish(args, store, result, _result_report(store, system, config, result))
    print(system.rtl.summary())
    print("fault buckets:", result.counts())
    row = result.table2_row()
    print(
        f"Table 2 row: total={row['total_faults']} SFR={row['sfr_faults']} "
        f"({row['pct_sfr']:.1f}%)"
    )
    for record in result.sfr_records:
        effects = "; ".join(record.classification.effect_summary())
        print(f"  SFR {record.site.describe(system.controller.netlist)}: {effects}")
    return 0


def _grade(args, store, system, baseline, threshold: float):
    """Pipeline, grading and result report of one design: the one grade
    path of the ``grade`` command and of serve's compute-on-miss.

    When the pipeline replayed a baseline, its published Monte-Carlo
    powers seed the grading campaign wherever they still hold.
    """
    config = _config(args)
    result = run_pipeline(system, config, store=store, baseline=baseline)
    seeds = None
    if store is not None and result.incremental_plan is not None:
        from .incremental.replay import grading_seed_results

        seeds = grading_seed_results(
            store,
            result.incremental_plan,
            result.design,
            [r.system_site for r in result.sfr_records],
            *_MC_DEFAULTS,
        )
    grading = grade_sfr_faults(
        system,
        result,
        threshold=threshold,
        config=config,
        store=store,
        seed_results=seeds,
    )
    report = _result_report(store, system, config, result, grading, command="grade")
    return result, grading, report


def _cmd_grade(args) -> int:
    system = _build(args)
    store = _store(args)
    result, grading, report = _grade(
        args, store, system, _baseline_spec(args, system), args.threshold
    )
    _finish(args, store, result, report, grading=grading.campaign)
    print(render_table1(grading, pick_representative(grading)))
    print()
    print(render_figure7(grading))
    s = grading.summary()
    print(
        f"\ndetected by power test: {s['select_detected']}/{s['n_select_only']} "
        f"select-only, {s['load_detected']}/{s['n_load']} load-line"
    )
    return 0


def _calibrate(args, store, system, baseline, fleet_config, threshold: float):
    """Pipeline, fleet calibration and result report of one design: the
    one calibrate path of the ``calibrate`` command and of serve."""
    from .fleet import calibrate_fleet, calibrate_report_dict

    config = _config(args)
    result = run_pipeline(system, config, store=store, baseline=baseline)
    fleet, campaign, grading = calibrate_fleet(
        system, result, fleet_config, threshold=threshold, config=config, store=store
    )
    return result, fleet, campaign, grading, calibrate_report_dict(fleet)


def _cmd_calibrate(args) -> int:
    from .core.report import render_table
    from .fleet import FleetConfig

    system = _build(args)
    store = _store(args)
    fleet_config = FleetConfig(**{f: getattr(args, f) for _, f, _, _ in _FLEET_FLAGS})
    result, fleet, campaign, grading, report = _calibrate(
        args, store, system, _baseline_spec(args, system), fleet_config, args.threshold
    )
    _finish(
        args, store, result, report, activity=campaign.campaign, grading=grading.campaign
    )
    print(
        render_table(
            ["Threshold", "Yield loss", "Escape rate", "Escapes"],
            [
                [
                    f"{r['threshold']:.3f}",
                    f"{100 * r['yield_loss']:.3f}%",
                    f"{100 * r['escape_rate']:.3f}%",
                    str(r["escapes"]),
                ]
                for r in fleet.roc()
            ],
            title=(
                f"Fleet ROC -- {fleet.design} ({fleet.instances} instances, "
                f"{len(fleet.fault_keys)} faults)"
            ),
        )
    )
    chosen = fleet.chosen
    print(
        f"\nchosen threshold: +/-{100 * chosen['threshold']:.1f}% "
        f"(yield loss {100 * chosen['yield_loss']:.3f}%, escape rate "
        f"{100 * chosen['escape_rate']:.3f}%, budget "
        f"{'met' if chosen['met_budget'] else 'NOT met'})"
    )
    if fleet.wall_s > 0:
        print(
            f"population kernel: {fleet.throughput:.3e} instances*faults/s "
            f"({fleet.wall_s:.3f}s, {fleet.matmul_s:.3f}s in matmuls)"
        )
    else:
        print("population kernel: replayed from store (no kernel run)")
    return 0


def _cmd_diff(args) -> int:
    """Structural delta + projected dirty fraction, without simulating."""
    from .core.pipeline import controller_fault_universe
    from .incremental.replay import project_dirty, resolve_baseline
    from .store.fingerprint import netlist_payload

    system = _build(args)
    store = _store(args)
    fp = netlist_fingerprint(system.netlist)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as f:
            json.dump(netlist_payload(system.netlist), f)
        print(f"wrote netlist payload to {args.dump}")
    if not args.baseline:
        print(f"design {args.design}: fingerprint {fp}")
        print("no --baseline given; nothing to diff")
        return 0
    base = resolve_baseline(
        store, _baseline_spec(args, system), design=system.rtl.name, exclude_fp=fp
    )
    if base is None:
        print("error: could not resolve --baseline", file=sys.stderr)
        return 2
    universe = controller_fault_universe(system)
    sites = [system.to_system_fault(s) for s in universe]
    _delta, _region, summary = project_dirty(base, system, sites)
    print(json.dumps(summary, indent=2, allow_nan=False))
    return 0


def _cmd_table2(args) -> int:
    from .designs.catalog import PAPER_DESIGNS

    store = _store(args)
    results = []
    for name in PAPER_DESIGNS:
        system = _system(args, name)
        results.append(run_pipeline(system, _config(args), store=store))
    _print_store(store)
    print(render_table2(results))
    return 0


def _cmd_store(args) -> int:
    store = _store(args)
    if store is None:
        print("error: the store command needs --store-dir", file=sys.stderr)
        return 2
    artifacts = store.artifacts
    if args.store_op == "stats":
        print(json.dumps(artifacts.stats(), indent=2))
    elif args.store_op == "gc":
        print(json.dumps(artifacts.gc(), indent=2))
    else:  # verify
        defects = artifacts.verify()
        print(json.dumps({"ok": not defects, "defects": defects}, indent=2))
        if defects:
            return 1
    return 0


def _cmd_query(args) -> int:
    from .store.query import query_campaigns, query_json, render_query

    store = _store(args)
    if store is None:
        print("error: query needs --store-dir", file=sys.stderr)
        return 2
    matches = query_campaigns(
        store, design=args.design, threshold=args.threshold, verdict=args.verdict
    )
    if args.json:
        print(json.dumps(query_json(matches), indent=2, allow_nan=False))
    else:
        print(render_query(matches, verdict=args.verdict))
    return 0


def _cmd_serve(args) -> int:
    from .store.server import make_server, serve_forever

    store = _store(args)
    if store is None:
        print("error: serve needs --store-dir", file=sys.stderr)
        return 2
    compute = None
    compute_calibrate = None
    if not args.no_compute:
        # Compute jobs publish every finished stage to the store, so a
        # job-level retry after a ChunkTimeout replays them and
        # recomputes only the stage that was in flight.  ``"auto"``
        # replays from the most recent published version of the design,
        # so a near-duplicate upload replays its predecessor's stage rows.
        from .fleet import FleetConfig

        def compute(design: str, threshold: float) -> dict:
            return _grade(args, store, _system(args, design), "auto", threshold)[-1]

        def compute_calibrate(design: str, params: dict) -> dict:
            # ``params``: validated FleetConfig overrides from the query string
            system = _system(args, design)
            fleet_config = FleetConfig(**params)
            return _calibrate(
                args, store, system, "auto", fleet_config, DEFAULT_THRESHOLD
            )[-1]

    server = make_server(
        args.host,
        args.port,
        store,
        compute=compute,
        compute_calibrate=compute_calibrate,
        designs=tuple(design_names()),
        queue_depth=args.queue_depth,
        workers=args.serve_workers,
        request_timeout=args.request_timeout,
    )
    host, port = server.server_address[:2]
    print(f"serving store {args.store_dir} on http://{host}:{port} (Ctrl-C stops)")
    serve_forever(server, drain_grace=args.drain_grace)
    return 0


def _cmd_export(args) -> int:
    system = _build(args)
    text = write_bench(system.netlist) if args.out.endswith(".bench") else write_verilog(
        system.netlist
    )
    with open(args.out, "w") as f:
        f.write(text)
    print(f"wrote {args.out}")
    return 0


def _cmd_stats(args) -> int:
    system = _build(args)
    stats = analyze(system.netlist)
    print(stats)
    for key, count in stats.by_type.items():
        print(f"  {key:8} {count}")
    return 0


def _cmd_strategies(args) -> int:
    from .core.report import render_table
    from .core.teststrategies import compare_strategies

    system = _build(args)
    config = _config(args)
    result = run_pipeline(system, config)
    grading = grade_sfr_faults(system, result, max_batches=4, config=config)
    rows = compare_strategies(system, result, grading, n_patterns=args.patterns)
    print(
        render_table(
            ["Strategy", "Faults", "Detected", "Coverage", "Needs DFT"],
            [
                [
                    r.strategy,
                    r.fault_universe,
                    f"{r.detected}/{r.total}",
                    f"{100 * r.coverage:.1f}%",
                    "yes" if r.requires_dft else "no",
                ]
                for r in rows
            ],
            title=f"Test strategy comparison -- {args.design}",
        )
    )
    return 0


def _cmd_worstcase(args) -> int:
    from .core.worstcase import find_worst_case
    from .power.estimator import PowerEstimator
    from .power.montecarlo import monte_carlo_power

    system = _build(args)
    wc = find_worst_case(system.rtl, system.controller)
    corrupted = wc.build()
    base = monte_carlo_power(system, PowerEstimator(system.netlist))
    worst = monte_carlo_power(corrupted, PowerEstimator(corrupted.netlist))
    pct = 100.0 * (worst.power_uw - base.power_uw) / base.power_uw
    print(f"accepted {len(wc.flips)}/{wc.candidates} non-disruptive corruptions")
    print(f"fault-free {base.power_uw:.1f} uW -> worst case {worst.power_uw:.1f} uW ({pct:+.1f}%)")
    return 0


def _cmd_datapath(args) -> int:
    from .core.datapath_faults import integrated_datapath_test

    system = _build(args)
    result = integrated_datapath_test(system, n_patterns=args.patterns)
    print(
        f"integrated datapath test: {result.detected()}/{result.total} "
        f"= {100 * result.coverage():.1f}% coverage"
    )
    print("hardest components:")
    for tag, rate in result.hardest_components():
        print(f"  {tag:16} {100 * rate:5.1f}%")
    return 0


def _cmd_compile(args) -> int:
    from .hls.bind import bind_design
    from .hls.frontend import parse_behavior
    from .hls.schedule import list_schedule

    with open(args.source) as f:
        dfg = parse_behavior(f.read())
    schedule = list_schedule(dfg, resources={})
    rtl = bind_design(dfg, schedule)
    print(rtl.summary())
    system = build_system(
        rtl, encoding_kind=args.encoding, output_style=args.output_style
    )
    result = run_pipeline(system, _config(args))
    print("fault buckets:", result.counts())
    return 0


def _cmd_dump_vcd(args) -> int:
    import numpy as np

    from .logic.vcd import dump_system_run

    system = _build(args)
    rng = np.random.default_rng(args.seed)
    data = {
        k: rng.integers(0, 1 << args.width, 1) for k in system.rtl.dfg.inputs
    }
    dump_system_run(system, data, system.cycles_for(4), args.out)
    print(f"wrote {args.out}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The whole argument tree, built once per process.

    Each parsed command names its handler; :func:`main` looks the
    ``_cmd_*`` function up when it dispatches, so a rebound handler
    takes effect.
    """
    from .fleet import FleetConfig
    from .store.service import DEFAULT_DRAIN_GRACE, DEFAULT_QUEUE_DEPTH, DEFAULT_WORKERS

    defaults, fleet_defaults = PipelineConfig(), FleetConfig()
    parser = argparse.ArgumentParser(
        prog="repro-faults",
        description="SFR controller-fault analysis via power (DATE 2000 reproduction)",
    )
    parser.add_argument(
        "--width", type=_positive_int, default=4, help="datapath bit width"
    )
    parser.add_argument(
        "--patterns",
        type=_positive_int,
        default=defaults.n_patterns,
        help="fault-sim patterns",
    )
    parser.add_argument(
        "--jobs",
        type=_number(
            int,
            lambda v: v >= 1 or v == -1,
            "--jobs takes a worker count >= 1 or -1 for all cores",
        ),
        default=defaults.n_jobs,
        help="worker processes for per-fault loops (-1 = all cores, capped at "
        "the machine's core count; results are identical for any value -- "
        "see docs/performance.md)",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=defaults.timeout,
        metavar="SECONDS",
        help="per-chunk timeout: a hung worker is killed and its chunk "
        "retried (default: wait forever)",
    )
    parser.add_argument(
        "--max-retries",
        type=_nonnegative_int,
        default=defaults.max_retries,
        help="extra attempts granted to a failed or timed-out chunk "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--audit-rate",
        type=_number(
            float,
            lambda v: 0 <= v < 1,
            "must be a fraction in [0, 1) (0 disables auditing)",
        ),
        default=defaults.audit_rate,
        metavar="FRACTION",
        help="fraction of faults re-simulated on an independent path to "
        "catch silent result corruption (0 disables; default: "
        "%(default)s -- see docs/integrity.md)",
    )
    parser.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=defaults.strict,
        help="abort on the first integrity violation instead of "
        "quarantining the offending fault and continuing (default: "
        "--no-strict)",
    )
    parser.add_argument(
        "--chaos",
        default=defaults.chaos,
        metavar="SPEC",
        help="deterministic fault injection for testing the recovery and "
        "integrity layers, e.g. 'crash:0.15,hang:0.1,bitflip:1,seed:7' "
        "(see docs/integrity.md)",
    )
    parser.add_argument(
        "--report-json",
        default=None,
        metavar="FILE",
        help="write a machine-readable campaign/integrity report to FILE",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="content-addressed result store: completed stages are published "
        "to DIR and replayed bit-identically by later runs, query and serve; "
        "rerunning a killed command with the same DIR recomputes only the "
        "stage that was in flight (see docs/store.md)",
    )
    parser.add_argument(
        "--store-refresh",
        action="store_true",
        help="treat every store lookup as a miss: recompute and republish "
        "(cache busting without deleting the store)",
    )
    parser.add_argument(
        "--result-json",
        default=None,
        metavar="FILE",
        help="write the deterministic result report (canonical JSON, "
        "byte-identical across cold and store-replayed runs) to FILE",
    )
    parser.add_argument("--encoding", default="binary", choices=["binary", "gray", "onehot"])
    parser.add_argument(
        "--output-style", default="pla", choices=["pla", "decoded", "minimized"]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    baseline_help = (
        "replay unaffected faults from an earlier design version: a "
        "published netlist fingerprint, a netlist-payload JSON path "
        "(see 'diff --dump'), a catalog design name, or 'auto' for the "
        "most recently published version of this design (needs --store-dir)"
    )

    p = sub.add_parser("classify", help="run the Section-5 classification pipeline")
    p.add_argument("design", choices=design_names())
    p.add_argument("--baseline", default=None, help=baseline_help)

    p = sub.add_parser("grade", help="classify + Monte-Carlo power grading")
    p.add_argument("design", choices=design_names())
    p.add_argument("--threshold", type=_fraction, default=DEFAULT_THRESHOLD)
    p.add_argument("--baseline", default=None, help=baseline_help)

    p = sub.add_parser(
        "calibrate",
        help="fleet-scale threshold ROC: one activity campaign + the "
        "population matmul kernel (see docs/performance.md)",
    )
    p.add_argument("design", choices=design_names())
    for flag, field, kind, text in _FLEET_FLAGS:
        p.add_argument(
            flag,
            dest=field,
            type=kind,
            default=getattr(fleet_defaults, field),
            help=f"{text} (default: %(default)s)",
        )
    p.add_argument(
        "--threshold",
        type=_fraction,
        default=DEFAULT_THRESHOLD,
        help="threshold of the embedded scalar grading report (the fleet "
        "sweeps its own grid; default: %(default)s)",
    )
    p.add_argument("--baseline", default=None, help=baseline_help)

    p = sub.add_parser(
        "diff",
        help="diff a design against a baseline and project the dirty fraction",
    )
    p.add_argument("design", choices=design_names())
    p.add_argument("--baseline", default=None, help=baseline_help)
    p.add_argument(
        "--dump",
        default=None,
        metavar="PATH",
        help="also write this design's netlist payload JSON (a portable "
        "--baseline input) to PATH",
    )

    p = sub.add_parser("table2", help="Table 2 for all designs")

    p = sub.add_parser("store", help="inspect or maintain the --store-dir store")
    p.add_argument(
        "store_op",
        choices=["stats", "gc", "verify"],
        help="stats: index and blob counts; gc: delete unreferenced blobs; "
        "verify: rehash every artifact and list defects",
    )

    p = sub.add_parser("query", help="filter cached campaigns without simulating")
    p.add_argument("--design", choices=design_names(), default=None)
    p.add_argument("--threshold", type=_fraction, default=None)
    p.add_argument("--verdict", choices=list(QUERY_VERDICTS), default=None)
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    p = sub.add_parser("serve", help="HTTP endpoint over cached campaign results")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=_number(
            int, lambda v: 0 <= v <= 65535, "port must be in [0, 65535] (0 = ephemeral)"
        ),
        default=8357,
    )
    p.add_argument(
        "--no-compute",
        action="store_true",
        help="serve cached results only; a miss returns 404 instead of "
        "running the pipeline",
    )
    p.add_argument(
        "--queue-depth",
        type=_number(int, lambda v: 1 <= v <= 4096, "queue depth must be in [1, 4096]"),
        default=DEFAULT_QUEUE_DEPTH,
        help="max compute jobs admitted (queued + running); excess "
        "requests get 503 + Retry-After instead of piling up (default: "
        "%(default)s)",
    )
    p.add_argument(
        "--request-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline: a compute that outlives it returns 504, "
        "is quarantined, and its worker slot is reclaimed (default: none)",
    )
    p.add_argument(
        "--serve-workers",
        type=_positive_int,
        default=DEFAULT_WORKERS,
        help="compute worker threads draining the job queue (default: "
        "%(default)s)",
    )
    p.add_argument(
        "--drain-grace",
        type=_positive_float,
        default=DEFAULT_DRAIN_GRACE,
        metavar="SECONDS",
        help="SIGTERM drain budget: finish in-flight jobs for up to this "
        "long while refusing new work (default: %(default)s)",
    )

    p = sub.add_parser("export", help="write the system netlist (.v or .bench)")
    p.add_argument("design", choices=design_names())
    p.add_argument("out")

    p = sub.add_parser("stats", help="netlist statistics")
    p.add_argument("design", choices=design_names())

    p = sub.add_parser("strategies", help="separate vs integrated vs power test")
    p.add_argument("design", choices=design_names())

    p = sub.add_parser("worstcase", help="Section-4 maximal non-disruptive corruption")
    p.add_argument("design", choices=design_names())

    p = sub.add_parser("datapath", help="integrated datapath fault test")
    p.add_argument("design", choices=design_names())

    p = sub.add_parser("compile", help="behavioural text file -> full pipeline")
    p.add_argument("source")

    p = sub.add_parser("dump-vcd", help="waveform of one normal-mode run")
    p.add_argument("design", choices=design_names())
    p.add_argument("out")
    p.add_argument("--seed", type=_nonnegative_int, default=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        validate_config(_config(args))
    except CampaignError as exc:
        parser.error(str(exc))
    return globals()["_cmd_" + args.command.replace("-", "_")](args)


if __name__ == "__main__":
    sys.exit(main())
