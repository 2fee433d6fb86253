"""The program's pinned outputs: what every checked result must equal.

The program's own seeds stay at their command-line defaults, so every
request's result is fixed whatever the workload seed; the seed only
picks among the inputs named here.  A pin is the SHA-256 of a result's
*oracle view* (:func:`oracle_view`): what the paper's method decides --
Table 2 counts, every fault's category, every graded fault's group,
power and power-test verdict, the fleet's per-threshold yield-loss and
escape counts and the chosen threshold -- without the layout a change
of report format may move.

After a deliberate change to the program's results, recompute them::

    python3 e2ebench/pins.py

It runs every pinned request cold, prints the pins and exits 1 if any
differs from the recorded ones.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

#: Table 2 of the paper: (total controller faults, SFR faults)
TABLE2_PINS = {"facet": (114, 29), "poly": (223, 62), "diffeq": (249, 50)}

#: controller gates the ``edit`` workload may restructure, per design;
#: within a design each edit leaves the same number of faults to
#: recompute (facet 2, poly 3, diffeq 3), so a pass does the same work
#: whichever gate the seed picks
EDIT_CANDIDATES = {
    "facet": ["g13", "g19", "g3", "g6"],
    "poly": ["g12", "g2", "g85", "g98"],
    "diffeq": ["g12", "g2", "g21", "g94"],
}

#: design -> command -> oracle digest of the unedited design's result
PINS: dict[str, dict[str, str]] = {
    "facet": {
        "grade": "3569cc95df9ba1f6161af3a916be8c725d7fac8110b83a1afa4712cb7fab24ea",
        "calibrate": "8792afeb40de8f576d53c0e25bc9783ab3ca02d16dd9c2b406d540976294ae58"
    },
    "poly": {
        "grade": "eeacfd626db5296ab2f92b6763134642fb0a6fba9366db47d7899d3f2046d556",
        "calibrate": "a595aab873185bd5f0969eff5e8032e21b60299f55f038cca6b2c246f9205621"
    },
    "diffeq": {
        "grade": "15c6f57ff658a01ab1bd6b1fb3c76145414bb4aaa918f0aaa6f2b54f0457c91b",
        "calibrate": "f537828ae2a0e4b53f7d9d01ef6387f1ed0b3494ca4f0b0def502fb1c498bfd8"
    }
}

#: design -> edited gate -> command -> oracle digest of the edited result
EDIT_PINS: dict[str, dict[str, dict[str, str]]] = {
    "facet": {
        "g13": {
            "grade": "fbfb1604baaa826e85c6dd07d07e887fddd6dbd79e0a41cd87a4243aad185874",
            "calibrate": "a622e43ba4e927a0b7ec70570f315259cf5ee9b0568463241b8f9c97ddfc0bff"
        },
        "g19": {
            "grade": "3569cc95df9ba1f6161af3a916be8c725d7fac8110b83a1afa4712cb7fab24ea",
            "calibrate": "ecdcd18537c734584425e4a02da381469190f3f2aaf049b77e2f97a4a1500082"
        },
        "g3": {
            "grade": "7aa52962eabebecdb8e931e4e2417af21d6558146df9009c7f806d4a233dc35c",
            "calibrate": "999ca1ec04ee83f663f4488279dee88304d92192da934bac6bf32237d377f2a8"
        },
        "g6": {
            "grade": "bbdd1e6933085a07355980173fa9497934f5b0ef6048b552c997ca73574bdd40",
            "calibrate": "ecdcd18537c734584425e4a02da381469190f3f2aaf049b77e2f97a4a1500082"
        }
    },
    "poly": {
        "g12": {
            "grade": "3c90aff08e97a20e7a55e731eec1eb900a0c969cf45f1d1e3b67a44a6c4e3b25",
            "calibrate": "5a0840676bba7d2012f5e3c5d0392cbd8a6d1544f57d4e8f400e8b5adc640f65"
        },
        "g2": {
            "grade": "1a5f984b4035db51a571f58cf88781b58b986f3ad07fc7080bb10b116127167f",
            "calibrate": "5a0840676bba7d2012f5e3c5d0392cbd8a6d1544f57d4e8f400e8b5adc640f65"
        },
        "g85": {
            "grade": "575a15e2066e78394a85853d26fc7de4c7a078d752c4b265e46c6ef2a2382b5c",
            "calibrate": "5a0840676bba7d2012f5e3c5d0392cbd8a6d1544f57d4e8f400e8b5adc640f65"
        },
        "g98": {
            "grade": "1dd03a907bb710c74516c4b0e25644393100dc02ecb278c8c567fa1fdf211148",
            "calibrate": "5a0840676bba7d2012f5e3c5d0392cbd8a6d1544f57d4e8f400e8b5adc640f65"
        }
    },
    "diffeq": {
        "g12": {
            "grade": "7556ddf8dd27519e66cd7d2c8a5201e04f876c000a5d3f4617f6a1b1db7d484e",
            "calibrate": "eba308b1ab2b7130baa8ab8583beb43a91c49f297bab0b912681df52a6280a12"
        },
        "g2": {
            "grade": "7aef547bf26457d5f9feffe5aa20d638c209d4d7c416d3263fa3f168fcd0afd5",
            "calibrate": "eba308b1ab2b7130baa8ab8583beb43a91c49f297bab0b912681df52a6280a12"
        },
        "g21": {
            "grade": "f1023627c21cd769f9511499a13049db2b78d725a68906f23849af2eb5799d00",
            "calibrate": "eba308b1ab2b7130baa8ab8583beb43a91c49f297bab0b912681df52a6280a12"
        },
        "g94": {
            "grade": "15c6f57ff658a01ab1bd6b1fb3c76145414bb4aaa918f0aaa6f2b54f0457c91b",
            "calibrate": "eba308b1ab2b7130baa8ab8583beb43a91c49f297bab0b912681df52a6280a12"
        }
    }
}


def oracle_view(command: str, report: dict) -> dict:
    """The decisions a ``grade`` or ``calibrate`` result records.

    Powers are rounded to a nano-watt; everything else is a count, a
    key, a category or a verdict.
    """
    if command == "grade":
        grading = report["grading"]
        return {
            "table2": [report["table2"]["total_faults"], report["table2"]["sfr_faults"]],
            "faults": [[f["fault"], f["category"], f["quarantined"]] for f in report["faults"]],
            "threshold": grading["threshold"],
            "fault_free_uw": round(grading["fault_free_uw"], 3),
            "graded": [
                [f["fault"], f["group"], f["detected"], round(f["power_uw"], 3)]
                for f in grading["graded"]
            ],
        }
    if command == "calibrate":
        fleet = report["fleet"]
        return {
            key: fleet[key]
            for key in ("fault_keys", "thresholds", "yield_fail", "escapes", "chosen")
        }
    raise ValueError(f"no oracle view of {command!r} results")


def oracle_digest(command: str, report: dict) -> str:
    view = json.dumps(oracle_view(command, report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(view.encode()).hexdigest()


def compute(root: Path) -> tuple[dict, dict]:
    """(PINS, EDIT_PINS) from cold runs into empty stores under ``root``."""
    import workloads

    pins: dict = {}
    edit_pins: dict = {}
    for design in workloads.DESIGNS:
        pins[design] = workloads.cold_digests(root / design, design)
        for gate in EDIT_CANDIDATES[design]:
            with workloads.edited_builds({design: gate}):
                digests = workloads.cold_digests(root / f"{design}-{gate}", design)
            edit_pins.setdefault(design, {})[gate] = digests
    return pins, edit_pins


def main() -> int:
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here), str(here.parent / "src")]
    root = here.parent / ".bench_work" / "pins"
    shutil.rmtree(root, ignore_errors=True)
    try:
        pins, edit_pins = compute(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"PINS = {json.dumps(pins, indent=4)}")
    print(f"EDIT_PINS = {json.dumps(edit_pins, indent=4)}")
    recorded = (PINS, EDIT_PINS) == (pins, edit_pins)
    print("matches the recorded pins" if recorded else "DIFFERS from the recorded pins")
    return 0 if recorded else 1


if __name__ == "__main__":
    sys.exit(main())
