"""Rendering of the reproduced tables and figures.

Produces plain-text renderings (and CSV-able row dicts) of:

* Table 1 -- representative SFR faults with control line effects and power;
* Table 2 -- controller fault breakdown per design;
* Table 3 -- power consistency across fixed test sets;
* Figure 7 -- per-fault Monte-Carlo power against the +/- threshold band,
  select-only faults first, then load-line faults (ASCII scatter);
* the per-campaign resilience summary (retries / crashes / timeouts /
  seeded-fault counts) of a fault-tolerant fan-out.
"""

from __future__ import annotations

import json

from ..logic.faults import fault_key
from ..store.cache import CampaignStore
from .grading import GradedFault, GradingResult, Table3Row, power_detected
from .parallel import RunReport
from .pipeline import PipelineResult

#: bumped whenever the deterministic result-report shape changes
RESULT_SCHEMA_VERSION = 1


def render_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """Simple fixed-width table renderer."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines.append(fmt.format(*headers))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(fmt.format(*row))
    return "\n".join(lines)


# ----------------------------------------------------------------- Table 1
def table1_rows(grading: GradingResult, picks: list[GradedFault]) -> list[dict]:
    """Row dicts for a Table-1-style listing."""
    rows = [
        {
            "fault": "fault-free",
            "effects": "-",
            "power_uw": grading.fault_free_uw,
            "pct": None,
        }
    ]
    for i, g in enumerate(picks, start=1):
        rows.append(
            {
                "fault": f"fault {i}",
                "effects": "; ".join(g.effect_summary()),
                "power_uw": g.power_uw,
                "pct": g.pct_change,
            }
        )
    return rows


def render_table1(grading: GradingResult, picks: list[GradedFault]) -> str:
    rows = []
    for r in table1_rows(grading, picks):
        pct = "-" if r["pct"] is None else f"{r['pct']:+.2f}%"
        rows.append([r["fault"], r["effects"][:70], f"{r['power_uw'] / 1000.0:.3f}", pct])
    return render_table(
        ["", "Control line effects", "Power mW", "% change"],
        rows,
        title=f"Table 1 -- representative SFR faults ({grading.design})",
    )


# ----------------------------------------------------------------- Table 2
def table2_rows(results: list[PipelineResult]) -> list[dict]:
    return [r.table2_row() for r in results]


def render_table2(results: list[PipelineResult]) -> str:
    rows = [
        [
            r["design"],
            str(r["total_faults"]),
            str(r["sfr_faults"]),
            f"{r['pct_sfr']:.1f}%",
        ]
        for r in table2_rows(results)
    ]
    return render_table(
        ["Design", "Total Faults", "SFR Faults", "%Faults SFR"],
        rows,
        title="Table 2 -- breakdown of controller faults",
    )


# ----------------------------------------------------------------- Table 3
def render_table3(rows: list[Table3Row], design: str) -> str:
    out_rows = []
    for r in rows:
        cells = [r.label[:40], f"{r.monte_carlo_uw:.2f}"]
        if r.monte_carlo_pct is not None:
            cells[1] += f" ({r.monte_carlo_pct:+.2f}%)"
        for i, p in enumerate(r.per_set_uw):
            cell = f"{p:.2f}"
            if r.per_set_pct is not None:
                cell += f" ({r.per_set_pct[i]:+.2f}%)"
            cells.append(cell)
        out_rows.append(cells)
    n_sets = len(rows[0].per_set_uw) if rows else 0
    headers = ["", "Monte Carlo uW"] + [f"Test set {i + 1} uW" for i in range(n_sets)]
    return render_table(
        headers, out_rows, title=f"Table 3 -- power under fixed test sets ({design})"
    )


# -------------------------------------------------------- campaign summary
def campaign_summary_row(report: RunReport) -> dict:
    """CSV-able dict of one campaign's resilience counters."""
    return {
        "faults": report.n_items,
        "computed": report.completed,
        "resumed": report.resumed,
        "replayed": report.replayed,
        "chunks": report.n_chunks,
        "retries": report.retries,
        "timeouts": report.timeouts,
        "worker_crashes": report.crashes,
        "pool_rebuilds": report.pool_rebuilds,
        "serial_fallbacks": report.serial_fallbacks,
        "audited": report.audited,
        "quarantined": report.quarantined,
        "integrity_violations": len(report.violations),
    }


def render_campaign_summary(report: RunReport, title: str = "campaign") -> str:
    """One-line resilience summary of a campaign fan-out.

    A clean uninterrupted run reads e.g. ``campaign: 214 faults computed``;
    seeded or bumpy campaigns append their seeded/retry/crash/timeout
    counts so partial runs are visible at a glance.
    """
    parts = [f"{report.completed} fault{'s' if report.completed != 1 else ''} computed"]
    if report.resumed:
        parts.append(f"{report.resumed} seeded from an earlier campaign")
    if report.replayed:
        parts.append(f"{report.replayed} replayed from per-fault store entries")
    if report.retries:
        parts.append(f"{report.retries} chunk retries")
    if report.timeouts:
        parts.append(f"{report.timeouts} timeouts")
    if report.crashes:
        parts.append(f"{report.crashes} worker crashes")
    if report.pool_rebuilds:
        parts.append(f"{report.pool_rebuilds} pool rebuilds")
    if report.serial_fallbacks:
        parts.append(f"{report.serial_fallbacks} serial fallbacks")
    if report.audited:
        parts.append(f"{report.audited} audited")
    if report.violations:
        parts.append(
            f"{len(report.violations)} integrity violation"
            f"{'s' if len(report.violations) != 1 else ''} "
            f"({report.quarantined} fault{'s' if report.quarantined != 1 else ''} "
            f"quarantined)"
        )
    return f"{title}: " + ", ".join(parts)


def render_integrity_violations(report: RunReport, title: str = "integrity") -> str:
    """Multi-line listing of a campaign's integrity violations.

    Empty string when the campaign was clean, so callers can
    unconditionally append the rendering.
    """
    if not report.violations:
        return ""
    lines = [f"{title}: {len(report.violations)} violation(s) quarantined"]
    lines.extend(f"  {v.describe()}" for v in report.violations)
    return "\n".join(lines)


def build_json_report(
    campaigns: dict[str, RunReport | None], store: CampaignStore | None = None
) -> dict:
    """JSON-ready machine report of every campaign stage's resilience
    and integrity counters (the ``--report-json`` artifact CI archives).

    With ``store`` set, a ``store`` section records per-stage cache
    provenance (hit/miss, wall seconds spent and saved), the overall hit
    ratio, and any corruption violations the store degraded to misses --
    CI's warm-cache job asserts on these.
    """
    out: dict = {"campaigns": {}, "violations": []}
    for stage, report in campaigns.items():
        if report is None:
            continue
        out["campaigns"][stage] = campaign_summary_row(report)
        out["violations"].extend(
            dict(v.to_json_dict(), stage=stage) for v in report.violations
        )
    out["total_violations"] = len(out["violations"])
    out["clean"] = not out["violations"]
    if store is not None:
        out["store"] = {
            "stages": [p.to_json_dict() for p in store.provenance],
            "hit_ratio": store.hit_ratio(),
            "saved_s": store.saved_s(),
            "violations": [v.to_json_dict() for v in store.violations],
        }
    return out


# ------------------------------------------------- deterministic result report
def build_result_report(
    result: PipelineResult,
    grading: GradingResult | None = None,
    system=None,
    params: dict | None = None,
    command: str = "classify",
) -> dict:
    """Deterministic result artifact of one ``classify``/``grade`` run.

    Unlike :func:`build_json_report` (which records *how the run went*:
    wall times, retries, seeded counts -- all legitimately varying
    between reruns), this captures only *what the run concluded*: fault
    categories, Table-2 counts and Monte-Carlo grades.  Two runs over
    the same inputs -- cold, rerun after a kill, or replayed from the store --
    serialize byte-identically via :func:`canonical_report_json`, which
    is what the warm-cache CI job and the bit-identity tests diff.
    """
    ctrl_netlist = system.controller.netlist if system is not None else None

    def describe(record) -> str | None:
        if ctrl_netlist is None:
            return None
        return record.site.describe(ctrl_netlist)

    out: dict = {
        "schema": RESULT_SCHEMA_VERSION,
        "command": command,
        "design": result.design,
        "params": params or {},
        "counts": result.counts(),
        "table2": result.table2_row(),
        "faults": [
            {
                "fault": fault_key(r.system_site),
                "site": describe(r),
                "category": r.category,
                "quarantined": r.quarantined,
            }
            for r in result.records
        ],
    }
    if grading is not None:
        out["grading"] = {
            "fault_free_uw": grading.fault_free_uw,
            "threshold": grading.threshold,
            "summary": grading.summary(),
            "figure7": figure7_series(grading),
            "graded": [
                {
                    "fault": fault_key(g.record.system_site),
                    "site": describe(g.record),
                    "group": g.group,
                    "power_uw": g.power_uw,
                    "pct": g.pct_change,
                    "detected": power_detected(g.pct_change, grading.threshold),
                }
                for g in grading.graded
            ],
        }
    return out


def canonical_report_json(report: dict) -> str:
    """Canonical (sorted-key, no-whitespace, NaN-free) JSON of a report.

    The same serialization keys the store's content addressing, so a
    replayed campaign producing an identical report dedups to the very
    blob the cold run published.
    """
    return json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False)


def render_store_summary(store: CampaignStore) -> str:
    """One-line cache summary of a store-backed run.

    Reads e.g. ``store: 3/3 stage hits, 41.2s saved`` on a fully warm
    run, with a trailing corruption count when blobs were quarantined.
    """
    hits = sum(1 for p in store.provenance if p.hit)
    parts = [f"{hits}/{len(store.provenance)} stage hits"]
    if store.saved_s() > 0:
        parts.append(f"{store.saved_s():.1f}s saved")
    published = sum(1 for p in store.provenance if p.published)
    if published:
        parts.append(f"{published} stage{'s' if published != 1 else ''} published")
    if store.violations:
        parts.append(f"{len(store.violations)} corrupt blob(s) recomputed")
    return "store: " + ", ".join(parts)


# ----------------------------------------------------------------- Figure 7
def figure7_series(grading: GradingResult) -> list[dict]:
    """Figure-7 data: one dict per SFR fault in plot order."""
    out = []
    for i, g in enumerate(grading.graded, start=1):
        out.append(
            {
                "index": i,
                "group": g.group,
                "power_uw": g.power_uw,
                "pct": g.pct_change,
                "detected": power_detected(g.pct_change, grading.threshold),
            }
        )
    return out


def render_figure7(grading: GradingResult, width: int = 68) -> str:
    """ASCII rendering of one Figure-7 panel."""
    series = figure7_series(grading)
    if not series:
        return f"Figure 7 ({grading.design}): no SFR faults"
    base = grading.fault_free_uw
    band = grading.threshold
    lo = min(min(s["power_uw"] for s in series), base * (1 - band))
    hi = max(max(s["power_uw"] for s in series), base * (1 + band))
    span = hi - lo or 1.0

    def col(uw: float) -> int:
        return int((uw - lo) / span * (width - 1))

    lines = [
        f"Figure 7 ({grading.design}) -- power per SFR fault; "
        f"band = {grading.fault_free_uw:.1f} uW +/- {100 * band:.0f}%",
        f"  '|' fault-free, '[' ']' band edges, '*' select-only fault, '#' load-line fault",
    ]
    markers = {col(base): "|", col(base * (1 - band)): "[", col(base * (1 + band)): "]"}
    for s in series:
        row = [" "] * width
        for pos, ch in markers.items():
            row[pos] = ch
        row[col(s["power_uw"])] = "*" if s["group"] == "select" else "#"
        flag = " DETECTED" if s["detected"] else ""
        lines.append(
            f"f{s['index']:>3} {''.join(row)} {s['power_uw']:8.1f} uW ({s['pct']:+6.2f}%){flag}"
        )
    return "\n".join(lines)
