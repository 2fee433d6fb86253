"""End-to-end benchmark: ``grade``, ``calibrate`` and served reads, cold to warm.

Run from the repository root::

    python3 e2ebench/run.py --workload cold --seed 1 --seconds 20 --trace 0

``--workload`` is ``cold``, ``warm`` or ``edit`` (see ``workloads.py``).
The run sets the workload up, then measures whole passes until
``--seconds`` would be exceeded (at least one).  ``--seed`` picks the
design order, the edited gates and the read sequence; the program's own
seeds stay at their defaults, so every output is checked against pinned
or reference values.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the ``metrics`` --
the end-to-end metrics with ``--trace 0``; with ``--trace 1`` the
per-layer metrics of a traced pass, measured after as many untraced
passes, whose difference is the tracing overhead.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts set-up time)
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    InputPlan,
    Interval,
    SpeedSampler,
    Tally,
    Tracer,
    median,
    percentile,
)

END_TO_END_UNITS = {
    "grade_s": "s",
    "calibrate_s": "s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("fraction", "ratio", "coverage")):
        return "ratio"
    return "count"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["cold", "warm", "edit"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def measure(workload, seconds: float, tracer: Tracer | None = None, n: int | None = None):
    """Whole passes: ``n`` of them, or as many as fit in ``seconds`` (>= 1)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(tracer))
        if n is not None:
            if len(passes) >= n:
                return passes
            continue
        elapsed = time.perf_counter() - start
        if elapsed + median([p.wall_s for p in passes]) > seconds:
            return passes


def end_to_end(passes, setup: Interval):
    """(metrics, their raw wall-clock counterparts, notes)."""
    reads = [ms for p in passes for ms, _ in p.reads]
    p50, p90 = percentile(reads, 50), percentile(reads, 90)
    wall_reads = [wall for p in passes for _, wall in p.reads]
    metrics = {
        "grade_s": median([p.grade_s for p in passes]),
        "calibrate_s": median([p.calibrate_s for p in passes]),
        "read_p50_ms": p50.value,
        "read_p90_ms": p90.value,
        "setup_s": setup.reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    walls = {
        "grade_s": median([sum(i.wall for i in p.grade) for p in passes]),
        "calibrate_s": median([sum(i.wall for i in p.calibrate) for p in passes]),
        "read_p50_ms": percentile(wall_reads, 50).value,
        "read_p90_ms": percentile(wall_reads, 90).value,
        "setup_s": setup.wall,
    }
    notes = [
        "times are at the reference host speed (SpeedSampler); wall: the raw clock",
        f"grade_s, calibrate_s: median of {len(passes)} pass(es)",
        f"read_p50_ms, read_p90_ms: {p90.n} reads, {p90.beyond} beyond p90",
    ]
    return metrics, walls, notes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sampler = SpeedSampler()
    sampler.start()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    tally = Tally()
    try:
        try:
            import workloads
        except ImportError as exc:
            print(f"error: cannot import the program: {exc}", file=sys.stderr)
            return 2
        shutil.rmtree(work, ignore_errors=True)
        wl = workloads.WORKLOADS[args.workload](
            work, InputPlan(args.seed, workloads.DESIGNS), tally, sampler
        )
        wl.setup()
        # set-up runs from interpreter start; every probe so far is inside it
        setup = sampler.close((0, 0.0, T_START))
        passes = measure(wl, args.seconds)
        metrics, walls, notes = end_to_end(passes, setup)
        if args.trace:
            from layers import Instrumentation, layer_metrics

            tracer = Tracer()
            with Instrumentation(tracer):
                traced = measure(wl, args.seconds, tracer, n=len(passes))
            metrics = layer_metrics(tracer.roots, len(traced))
            metrics["store.publish.bytes"] = sum(p.store_bytes for p in traced) / len(traced)
            metrics["trace.overhead_s"] = median([p.reference_s for p in traced]) - median(
                [p.reference_s for p in passes]
            )
            walls = {
                "trace.overhead_s": median([p.wall_s for p in traced])
                - median([p.wall_s for p in passes])
            }
            notes = [
                f"per layer: {len(traced)} traced pass(es); trace.overhead_s is their "
                f"request time minus that of {len(passes)} untraced pass(es), both at "
                f"the reference host speed"
            ]
    finally:
        sampler.stop()
        shutil.rmtree(work, ignore_errors=True)

    units = END_TO_END_UNITS if not args.trace else {k: per_layer_unit(k) for k in metrics}
    print(f"workload {args.workload}, seed {args.seed}")
    for name, value in metrics.items():
        wall = f"  (wall {walls[name]:.6g} {units[name]})" if name in walls else ""
        print(f"  {name:28} {value:14.6g} {units[name]:6}{wall}")
    for note in notes:
        print(f"  ({note})")
    print(f"  error_rate {tally.failed}/{tally.attempted} = {tally.error_rate:.4g}")
    for reason in tally.reasons:
        print(f"  FAILED {reason}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
