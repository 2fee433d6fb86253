"""Golden oracle reports: the science of every catalog design, pinned.

Each ``tests/golden/<design>.json`` holds the *oracle view* of a
``grade`` followed by a ``calibrate`` on one store, at a small config:
every fault's category, every graded fault's group, power and verdict,
and the fleet's per-threshold yield-loss and escape counts plus the
chosen threshold.  Powers are rounded to a nano-watt; everything else
is a count, a key, a category or a verdict.

Engine-against-engine checks cannot see two engines drifting together;
these files can.  A refactor that changes any decision fails here and
names the first fault that moved.  After a deliberate change of the
science, regenerate the files with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py

and explain the scientific delta alongside the new files.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

#: global CLI flags per design; ewf runs narrower and shorter, because
#: its Monte-Carlo grading dominates the tier-1 budget at full width
CONFIGS = {
    "facet": ["--patterns", "128"],
    "poly": ["--patterns", "128"],
    "diffeq": ["--patterns", "128"],
    "biquad": ["--patterns", "128"],
    "ewf": ["--width", "4", "--patterns", "64"],
}
CALIBRATE_ARGS = ["--instances", "2000"]


def _run(tmp_path: Path, design: str) -> tuple[dict, dict]:
    """(grade, calibrate) result reports of one store-backed session."""
    store = ["--store-dir", str(tmp_path / "store")]
    reports = []
    for command, extra in (("grade", []), ("calibrate", CALIBRATE_ARGS)):
        out = tmp_path / f"{command}.json"
        argv = CONFIGS[design] + store + ["--result-json", str(out), command, design]
        assert main(argv + extra) == 0
        reports.append(json.loads(out.read_text()))
    return reports[0], reports[1]


def oracle_view(grade: dict, calibrate: dict) -> dict:
    """What the paper's method decided, keyed by fault where per fault."""
    grading = grade["grading"]
    fleet = calibrate["fleet"]
    return {
        "config": {"global": CONFIGS[grade["design"]], "calibrate": CALIBRATE_ARGS},
        "table2": [grade["table2"]["total_faults"], grade["table2"]["sfr_faults"]],
        "faults": {f["fault"]: f["category"] for f in grade["faults"]},
        "quarantined": [f["fault"] for f in grade["faults"] if f["quarantined"]],
        "threshold": grading["threshold"],
        "fault_free_uw": round(grading["fault_free_uw"], 3),
        "graded": {
            f["fault"]: {
                "group": f["group"],
                "power_uw": round(f["power_uw"], 3),
                "detected": f["detected"],
            }
            for f in grading["graded"]
        },
        "fleet_thresholds": fleet["thresholds"],
        "fleet_yield_fail": fleet["yield_fail"],
        "fleet_chosen": fleet["chosen"],
        "escapes": {
            key: [row[i] for row in fleet["escapes"]]
            for i, key in enumerate(fleet["fault_keys"])
        },
    }


#: sections of the view keyed by fault
PER_FAULT = ("faults", "graded", "escapes")


def _first_difference(expected: dict, actual: dict) -> str | None:
    """A message naming the first section -- and fault -- that differs."""
    for section in sorted(expected.keys() | actual.keys()):
        want, got = expected.get(section), actual.get(section)
        if want == got:
            continue
        if section in PER_FAULT and isinstance(want, dict) and isinstance(got, dict):
            for key in list(want) + [k for k in got if k not in want]:
                if want.get(key) != got.get(key):
                    return (
                        f"{section}: fault {key} was {want.get(key)!r}, "
                        f"now {got.get(key)!r}"
                    )
        return f"{section}: was {want!r}, now {got!r}"
    return None


def _dump(view: dict) -> str:
    """Readable JSON: one line per section, and one per fault inside the
    per-fault sections, so a regenerated file diffs fault by fault."""
    sections = []
    for name, value in sorted(view.items()):
        if name in PER_FAULT:
            rows = ",\n".join(
                f"  {json.dumps(key)}: {json.dumps(row, sort_keys=True)}"
                for key, row in value.items()
            )
            text = "{\n" + rows + "\n }"
        else:
            text = json.dumps(value, sort_keys=True)
        sections.append(f" {json.dumps(name)}: {text}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


@pytest.mark.parametrize("design", sorted(CONFIGS))
def test_oracle_report_matches_golden(tmp_path, design):
    actual = oracle_view(*_run(tmp_path, design))
    path = GOLDEN_DIR / f"{design}.json"
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(_dump(actual))
    expected = json.loads(path.read_text())
    difference = _first_difference(expected, actual)
    assert difference is None, f"{design} golden report moved -- {difference}"
