"""Query layer over cached campaign reports.

``repro-faults query`` filters the ``report`` artifacts of a store by
design, detection threshold and per-fault verdict, without running any
simulation.  Results come back as row dicts (JSON mode) or a rendered
table; the heavy lifting is just index scans plus integrity-verified
blob reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .cache import CampaignStore

#: verdict filters: pipeline categories plus the power-test outcome
CATEGORY_VERDICTS = ("SFI-detected", "SFI-practical", "CFR", "SFR", "SFI-escaped")
POWER_VERDICTS = ("power-detected", "power-missed")
QUERY_VERDICTS = CATEGORY_VERDICTS + POWER_VERDICTS


@dataclass
class CampaignMatch:
    """One cached campaign matching a query, with its matching faults."""

    key: str
    design: str
    command: str
    created_at: float
    report: dict
    faults: list[dict] = field(default_factory=list)

    def summary_row(self) -> dict:
        table2 = self.report.get("table2", {})
        grading = self.report.get("grading") or {}
        return {
            "key": self.key[:12],
            "design": self.design,
            "command": self.command,
            "total_faults": table2.get("total_faults"),
            "sfr_faults": table2.get("sfr_faults"),
            "threshold": grading.get("threshold"),
            "fault_free_uw": grading.get("fault_free_uw"),
            "matched_faults": len(self.faults),
        }


def _fault_rows(report: dict, verdict: str | None) -> list[dict]:
    """The fault rows of one report that satisfy the verdict filter."""
    if verdict is None:
        return list(report.get("faults", []))
    if verdict in CATEGORY_VERDICTS:
        return [f for f in report.get("faults", []) if f.get("category") == verdict]
    detected = verdict == "power-detected"
    grading = report.get("grading") or {}
    return [f for f in grading.get("graded", []) if f.get("detected") is detected]


def query_campaigns(
    store: CampaignStore,
    design: str | None = None,
    threshold: float | None = None,
    verdict: str | None = None,
) -> list[CampaignMatch]:
    """Filter cached campaign reports; corruption degrades to a skip."""
    matches: list[CampaignMatch] = []
    if store.refresh:  # a refreshed store serves nothing cached, as lookup
        return matches
    for row in store.artifacts.rows(kind="report", design=design):
        data = store.read("report", row)
        if data is None:  # corrupted blob, quarantined and recorded
            continue
        report = json.loads(data)
        grading = report.get("grading")
        if threshold is not None:
            if grading is None or abs(grading.get("threshold", -1.0) - threshold) > 1e-12:
                continue
        faults = _fault_rows(report, verdict)
        if verdict is not None and not faults:
            continue
        matches.append(
            CampaignMatch(
                key=row.key,
                design=row.design,
                command=report.get("command", row.meta.get("command", "?")),
                created_at=row.created_at,
                report=report,
                faults=faults,
            )
        )
    return matches


def render_query(matches: list[CampaignMatch], verdict: str | None = None) -> str:
    """Fixed-width table rendering of a query result."""
    from ..core.report import render_table  # deferred: avoids an import cycle

    if not matches:
        return "no cached campaigns match"
    rows = []
    for m in matches:
        r = m.summary_row()
        rows.append(
            [
                r["key"],
                r["design"],
                r["command"],
                str(r["total_faults"]),
                str(r["sfr_faults"]),
                "-" if r["threshold"] is None else f"{100 * r['threshold']:.0f}%",
                str(r["matched_faults"]) if verdict else "-",
            ]
        )
    table = render_table(
        ["Key", "Design", "Command", "Faults", "SFR", "Threshold", "Matched"],
        rows,
        title="Cached campaigns",
    )
    if verdict:
        lines = [table, "", f"faults matching verdict {verdict!r}:"]
        for m in matches:
            for f in m.faults[:20]:
                site = f.get("site") or f.get("fault")
                extra = ""
                if "pct" in f:
                    extra = f"  {f['power_uw']:.1f} uW ({f['pct']:+.2f}%)"
                lines.append(f"  {m.design}: {site}{extra}")
            if len(m.faults) > 20:
                lines.append(f"  … {len(m.faults) - 20} more in {m.design}")
        return "\n".join(lines)
    return table


def query_json(matches: list[CampaignMatch]) -> list[dict]:
    """JSON-mode query payload: summaries plus matched fault rows."""
    return [
        dict(m.summary_row(), key=m.key, faults=m.faults, created_at=m.created_at)
        for m in matches
    ]
