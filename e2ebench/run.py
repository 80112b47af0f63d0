"""End-to-end reservation benchmark: reserve, claim and cancel across a
4-domain chain of bandwidth brokers.

Usage, from the repository root::

    python3 e2ebench/run.py --workload chain4_sim --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced episodes
and reports the per-layer metrics plus the tracing overhead.  Every line
but the last is a human-readable ``name value unit`` listing; the last
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every correctness check passed.  See
``e2ebench/BENCHMARK.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: Untraced episodes per run, at the least: setup_s is their median.
MIN_EPISODES = 3
#: Traced and untraced episodes each, at the least, in a traced run.
MIN_TRACED_EPISODES = 2
#: Spans of the last traced episode are written here.
TRACE_DIR = HERE / ".traces"


def percentile(values: list[float], q: int) -> float:
    """The *q*-th percentile (1..99) of *values*, inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(
    episodes: list, best: list, attempted: int, failed: int
) -> dict:
    """Percentiles over the run's cycles, each cycle timed by its fastest
    replay (*best*, from :func:`workloads.best_times`).  The shared 2-CPU
    virtual machine this benchmark was tuned on switched between speeds
    up to 1.7x apart every few seconds, so statistics pooled over every
    replay measured that mix more than the program."""
    reserve = [t.reserve for t in best]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "cycles_per_s": (len(best) / sum(t.cycle for t in best), "1/s"),
        "reserve_p50_ms": (statistics.median(reserve) * 1e3, "ms"),
        "reserve_p90_ms": (percentile(reserve, 90) * 1e3, "ms"),
        "claim_p50_ms": (statistics.median(t.claim for t in best) * 1e3, "ms"),
        "cancel_p50_ms": (statistics.median(t.cancel for t in best) * 1e3, "ms"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(e.setup_s for e in episodes), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS, best_times, request_plan, run_episode

    workload = WORKLOADS[workload_name]
    plan = request_plan(workload, seed)
    untraced: list = []
    traced: list = []
    attribution = None
    if trace:
        from attribution import Attribution

        attribution = Attribution(workload)
    least = MIN_TRACED_EPISODES if trace else MIN_EPISODES
    began = time.perf_counter()
    while (
        time.perf_counter() - began < seconds
        or len(untraced) < least
        or (trace and len(traced) < least)
    ):
        if trace and len(traced) < len(untraced):
            traced.append(attribution.run_episode(seed, plan))
        else:
            untraced.append(run_episode(workload, seed, plan))

    episodes = untraced + traced
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    problems = [p for e in episodes for p in e.problems]
    if trace:
        problems += attribution.problems()
        metrics = attribution.metrics(untraced)
        TRACE_DIR.mkdir(exist_ok=True)
        attribution.write_spans(TRACE_DIR / f"{workload.name}-seed{seed}.jsonl.gz")
    else:
        metrics = end_to_end_metrics(
            untraced, best_times(untraced), attempted, failed)
    correct = not problems

    print(f"# workload {workload.name}  seed {seed}  episodes {len(episodes)}"
          f"  cycles/episode {workload.cycles}  preload {workload.preload}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed if correct else max(failed, 1),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree at {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(HERE)]
    from workloads import WORKLOADS

    # One client, one thread: keep it on one CPU.  Migrating between CPUs
    # made single runs switch between two speeds almost 2x apart.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
