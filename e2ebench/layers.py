"""Per-layer attribution: spans around the public entry point of each layer.

The wrappers are installed from the benchmark's side by rebinding the
module attributes the program looks its collaborators up through, and
removed again afterwards; nothing inside ``src/`` knows about tracing.
Each span times one call into the named function; its self time is
its duration minus the time of the layer spans nested inside it.
"""

from __future__ import annotations

import functools

from harness import Span, Tracer, coverage, layer_totals

#: span names that attribute time to a layer (request roots and the
#: ``pipeline`` glue span are not layers; a read request's root is the
#: HTTP layer itself, its self time being latency minus service time)
LAYERS = frozenset(
    {
        "build",
        "faultsim",
        "classify.init",
        "classify",
        "grading",
        "activity",
        "population",
        "store.lookup",
        "store.publish",
        "incremental.plan",
        "incremental.publish",
        "report",
        "service.campaign",
        "service.query",
        "serve.http",
    }
)


def _on_faultsim(tracer: Tracer, args, kwargs, result) -> None:
    if result.cone is not None:
        tracer.count("faultsim.gate_evals", result.cone.gate_evals)
        tracer.count("faultsim.gate_evals_full", result.cone.gate_evals_full)
    if result.campaign is not None:  # store replays simulate nothing
        tracer.count("faultsim.faults", result.campaign.completed)
        tracer.count("audit.faults", result.campaign.audited)


def _on_classify(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("classify.faults")
    tracer.count("classify.sfr", result.category == "SFR")


def _on_grading(tracer: Tracer, args, kwargs, result) -> None:
    report = result.campaign
    if report is not None:
        tracer.count("grading.faults", report.completed)
        tracer.count("grading.seeded", report.resumed)
        tracer.count("audit.faults", report.audited)


def _on_activity(tracer: Tracer, args, kwargs, result) -> None:
    if not result.store_hit:
        tracer.count("activity.faults", len(result.by_key))
    if result.campaign is not None:
        tracer.count("audit.faults", result.campaign.audited)


def _on_population(tracer: Tracer, args, kwargs, result) -> None:
    config = kwargs.get("config", args[4] if len(args) > 4 else None)
    tracer.count("population.instance_faults", config.instances * len(result.fault_keys))
    tracer.count("population.matmul_s", result.matmul_s)


def _on_lookup(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("store.lookup.n")
    tracer.count("store.lookup.hits", result is not None)


def _on_publish(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("store.publish.rows")


def _on_publish_many(tracer: Tracer, args, kwargs, result) -> None:
    rows = kwargs.get("rows", args[1] if len(args) > 1 else ())
    tracer.count("store.publish.rows", len(rows))


def _on_plan(tracer: Tracer, args, kwargs, result) -> None:
    if result is not None:
        tracer.count("incremental.dirty", len(result.dirty))
        tracer.count("incremental.faults", result.n_faults)


def _on_build(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("build.calls")


def _on_service_campaign(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("service.served", result is not None)


def _mc_batches(key: str):
    def hook(tracer: Tracer, args, kwargs, result) -> None:
        results = result if isinstance(result, list) else [result]
        tracer.count(key, sum(r.batches for r in results))

    return hook


def _targets():
    """``(owner, attribute, span name or None, hook)`` for every entry point.

    A ``None`` span name only counts (the Monte-Carlo kernels run inside
    the grading/activity spans and report batches to them).
    """
    import repro.cli as cli
    import repro.core.grading as grading
    import repro.core.pipeline as pipeline
    import repro.core.report as report
    import repro.designs.catalog as catalog
    import repro.fleet as fleet
    import repro.fleet.activity as activity
    import repro.fleet.calibrate as calibrate
    import repro.hls.system as system
    import repro.incremental.replay as replay
    import repro.store.service as service
    from repro.core.classify import Classifier
    from repro.store.cache import CampaignStore

    return [
        (catalog, "build_rtl", "build", _on_build),
        (system, "build_system", "build", _on_build),
        (pipeline, "run_pipeline", "pipeline", None),
        (cli, "run_pipeline", "pipeline", None),
        (pipeline, "fault_simulate", "faultsim", _on_faultsim),
        (Classifier, "__init__", "classify.init", None),
        (Classifier, "classify", "classify", _on_classify),
        (grading, "grade_sfr_faults", "grading", _on_grading),
        (cli, "grade_sfr_faults", "grading", _on_grading),
        (calibrate, "grade_sfr_faults", "grading", _on_grading),
        (grading, "monte_carlo_power_block", None, _mc_batches("grading.mc_batches")),
        (grading, "monte_carlo_power", None, _mc_batches("grading.mc_batches")),
        (calibrate, "activity_campaign", "activity", _on_activity),
        (activity, "monte_carlo_power_block", None, _mc_batches("activity.mc_batches")),
        (activity, "monte_carlo_power", None, _mc_batches("activity.mc_batches")),
        (calibrate, "run_population", "population", _on_population),
        (CampaignStore, "lookup", "store.lookup", _on_lookup),
        (CampaignStore, "publish", "store.publish", _on_publish),
        (CampaignStore, "publish_many", "store.publish", _on_publish_many),
        (replay, "resolve_baseline", "incremental.plan", None),
        (replay, "plan_recompute", "incremental.plan", _on_plan),
        (replay, "grading_seed_results", "incremental.plan", None),
        (replay, "publish_incremental", "incremental.publish", None),
        (report, "build_result_report", "report", None),
        (report, "canonical_report_json", "report", None),
        (cli, "build_result_report", "report", None),
        (cli, "canonical_report_json", "report", None),
        (fleet, "calibrate_report_dict", "report", None),
        (service.CampaignService, "campaign", "service.campaign", _on_service_campaign),
        (service, "query_campaigns", "service.query", None),
    ]


def _wrap(tracer: Tracer, fn, name: str | None, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name is None:
            result = fn(*args, **kwargs)
        else:
            with tracer.span(name):
                result = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


class Instrumentation:
    """Install the layer wrappers for the life of a ``with`` block."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        for owner, attr, name, hook in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.tracer, original, name, hook))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(roots: list[Span], n_passes: int) -> dict[str, float]:
    """The per-layer metrics of ``roots`` (request spans), per pass.

    Times are self times in seconds; counts are totals; ratios are
    taken over the whole traced run.  Requests are the roots, so
    ``request.other_s`` is request time no layer span covers (argument
    parsing, terminal rendering, glue).
    """
    self_s, counts = layer_totals(roots)
    per = 1.0 / max(1, n_passes)

    def s(name: str) -> float:
        return self_s.get(name, 0.0) * per

    def c(name: str) -> float:
        return counts.get(name, 0) * per

    return {
        "build.s": s("build"),
        "build.calls": c("build.calls"),
        "pipeline.s": s("pipeline"),
        "faultsim.s": s("faultsim"),
        "faultsim.faults": c("faultsim.faults"),
        "faultsim.gate_eval_fraction": _ratio(
            counts.get("faultsim.gate_evals", 0), counts.get("faultsim.gate_evals_full", 0)
        ),
        "classify.s": s("classify"),
        "classify.init_s": s("classify.init"),
        "classify.faults": c("classify.faults"),
        "classify.sfr": c("classify.sfr"),
        "grading.s": s("grading"),
        "grading.faults": c("grading.faults"),
        "grading.mc_batches": c("grading.mc_batches"),
        "grading.seeded": c("grading.seeded"),
        "activity.s": s("activity"),
        "activity.faults": c("activity.faults"),
        "activity.mc_batches": c("activity.mc_batches"),
        "population.s": s("population"),
        "population.instance_faults": c("population.instance_faults"),
        "population.matmul_s": c("population.matmul_s"),
        "store.lookup.s": s("store.lookup"),
        "store.lookup.n": c("store.lookup.n"),
        "store.hit_ratio": _ratio(
            counts.get("store.lookup.hits", 0), counts.get("store.lookup.n", 0)
        ),
        "store.publish.s": s("store.publish"),
        "store.publish.rows": c("store.publish.rows"),
        "store.publish.bytes": c("store.publish.bytes"),
        "incremental.plan.s": s("incremental.plan"),
        "incremental.publish.s": s("incremental.publish"),
        "incremental.dirty_fraction": _ratio(
            counts.get("incremental.dirty", 0), counts.get("incremental.faults", 0)
        ),
        "report.s": s("report"),
        "service.campaign.s": s("service.campaign"),
        "service.query.s": s("service.query"),
        "serve.http_s": s("serve.http"),
        "service.served_cached": c("service.served"),
        "audit.faults": c("audit.faults"),
        "request.other_s": sum(
            r.self_time for r in roots if r.name not in LAYERS
        ) * per,
        "trace.coverage": coverage(roots, LAYERS),
    }
