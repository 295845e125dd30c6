"""Benchmark of corolower: compile, run and diff of all four forms.

    python3 perfbench/run.py --workload fib-long --seed 1 --seconds 40 --trace 0

Run it from a checkout of the repository: corolower is imported from the
checkout's `src/`, never from an installed copy, and the run fails when
that directory is missing. One process and one thread drive the
workload in a closed loop: an iteration of six operations starts when
the previous one ends, and the run stops at the iteration boundary
nearest to `--seconds` (after at least one iteration, two when traced).

The report names every end-to-end metric with its unit, each timing as
a median and the highest percentile with ten samples beyond it, and
every failed operation with its kind and layer. Times are scaled to the
speed of the baseline machine (see `bench.Speed`); the report
shows the raw medians beside them. The last line of
standard output is one JSON object: with `--trace 0` it holds the
end-to-end metrics of BENCHMARK.json, from untraced iterations; with
`--trace 1` it holds the per-layer metrics, from a run that alternates
untraced and traced iterations, and the spans go to
`perfbench/out/spans-<workload>-<seed>.json`.
"""

from __future__ import annotations

import argparse
import collections
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
# Set-up as a user meets it: a fresh interpreter imports corolower (and
# this benchmark's modules), then generates the source and expected output.
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import bench, workloads; "
    "workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]))"
)


def setup_seconds(speed, workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times, scaled to the baseline machine's speed, and raw."""
    windows, raw = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload, str(seed)],
            cwd=ROOT, check=True, timeout=120,
        )
        windows.append((start, time.perf_counter()))
        raw.append(windows[-1][1] - start)
    speed.sample()
    return [seconds * speed.factor(*window) for seconds, window in zip(raw, windows)], raw


def measure(bench, seconds: float, trace: bool) -> None:
    """Iterate until the iteration boundary nearest to `seconds` from now."""
    deadline = time.perf_counter() + seconds
    took: list[float] = []
    while True:
        start = time.perf_counter()
        bench.iteration(traced=trace and len(took) % 2 == 1)
        took.append(time.perf_counter() - start)
        if trace and len(took) < 2:
            continue
        if time.perf_counter() + max(took[-2:]) / 2 > deadline:
            return


def _number(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_report(bench, values: dict, metrics, raw: dict, results) -> None:
    """Every metric with its unit; for a timing also its sample count, its
    tail percentile and its raw (unscaled) median."""
    from bench import tail

    runs = len(bench.iterations)
    traced = sum(1 for it in bench.iterations if it.traced)
    print(f"workload {bench.wl.name}: {runs} iterations ({traced} traced)")
    for name, unit in metrics:
        line = f"  {name:<40} {_number(values[name]):>12} {unit}"
        if name in raw:
            samples, raw_median = raw[name]
            percentile, value = tail(samples)
            line += f"  median of {len(samples)}"
            if percentile is not None:
                line += f", p{percentile:.0f} {value:.6g} s"
            line += f", raw median {_number(raw_median)} s"
        print(line)
    failures = collections.Counter(r.failure for r in results if r.failure)
    for failure, times in sorted(failures.items()):
        print(f"  failed {times}x: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "corolower" / "__init__.py").is_file():
        print(f"error: no corolower sources in {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    from bench import END_TO_END, PER_LAYER, TIMED, Bench, Speed, median

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    trace = bool(args.trace)
    speed = Speed()
    if not trace:
        setup, setup_raw = setup_seconds(speed, args.workload, args.seed)
    bench = Bench(workloads.WORKLOADS[args.workload](args.seed), speed)
    measure(bench, args.seconds, trace)
    speed.sample()

    if trace:
        values, metrics, raw = bench.per_layer(), PER_LAYER, {}
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps(bench.tracer.spans), encoding="utf-8")
        print(f"spans: {spans.relative_to(ROOT)}")
    else:
        values, metrics = bench.end_to_end(median(setup)), END_TO_END
        raw = {
            metric: (bench.op_seconds(op), median(bench.op_seconds(op, raw=True)))
            for metric, op in TIMED.items()
        }
        raw["setup_s"] = (setup, median(setup_raw))
    results = bench.results(None if trace else False)
    print_report(bench, values, metrics, raw, results)

    failed = sum(1 for r in results if r.failure)
    # fail_share is in the report but not in the result: `attempted` and
    # `failed` carry it, and on a passing workload it is 0.
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in metrics
            if name != "fail_share"
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
