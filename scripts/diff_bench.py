#!/usr/bin/env python
"""Diff two engine-bench reports and fail loudly on stage regressions.

CI persists every ``benchmarks/run_benchmarks.py`` report as a workflow
artifact and caches the previous run's report; this script compares the
fresh report against that baseline **per (workload, stage)** on top of
the absolute floors:

* absolute floor — enumeration+classify must keep a ≥ ``--floor`` (default
  2.0x) fused-over-serial speedup on every workload;
* relative regression — any stage whose fused-vs-reference speedup drops
  below ``--ratio`` (default 0.5) of the baseline's speedup for the same
  (workload, stage) fails.  Speedups are compared rather than raw seconds
  because both sides of a speedup are measured on the same machine, which
  makes the metric portable across differently-sized CI runners.  Stages
  whose fast path measured under 10 ms on both sides are skipped — at
  that scale a single scheduler hiccup flips the ratio, so the compare
  would gate timer noise, not code;
* process gate — the process backend's enumeration+classify speedup over
  the fused build is only meaningful on real multi-core hardware, so it
  is gated **only when the report says ``cpus > 1``**: it must then reach
  ≥ ``--process-floor`` (default 1.05x).  On a single-CPU machine the row
  measures fan-out overhead only and is reported, never gated;
* fault gate — the report's ``faults`` section (the FFT-8 sharded build
  with 1-of-4 shards dead vs all healthy) must show retries or
  failovers, and on full reports its degraded/healthy ratio must stay ≤
  ``--fault-overhead-ceiling`` (default 3.0x).

The served path (cold compiles, warm answers, shard fleets) is measured by
``perfbench/run.py`` against the bounds in ``BENCHMARK.json``, not here.
Stages present on only one side (new workloads, removed workloads) are
reported but never fail the run.

Usage::

    python scripts/diff_bench.py NEW.json [--baseline OLD.json]
    python scripts/diff_bench.py .bench-smoke/BENCH_engine_smoke.json \
        --baseline .bench-baseline/BENCH_engine_smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _stages(report: dict) -> dict[tuple[str, str], dict]:
    return {(r["workload"], r["stage"]): r for r in report.get("stages", [])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("new", type=Path, help="fresh bench report")
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="previous report to diff against (skipped when absent)",
    )
    parser.add_argument(
        "--floor", type=float, default=2.0,
        help="absolute enumeration+classify speedup floor (default 2.0)",
    )
    parser.add_argument(
        "--ratio", type=float, default=0.5,
        help="fail when a stage speedup drops below this fraction of the "
        "baseline's (default 0.5)",
    )
    parser.add_argument(
        "--process-floor", type=float, default=1.05,
        help="minimum process-vs-fused enumeration speedup, gated only "
        "when the report's cpus > 1 (default 1.05)",
    )
    parser.add_argument(
        "--fault-overhead-ceiling", type=float, default=3.0,
        help="maximum degraded/healthy wall-time ratio for the sharded "
        "build with 1-of-4 shards dead (the report's 'faults' section), "
        "gated only on full (non --quick) reports — losing a shard must "
        "cost failover latency, not a rebuild (default 3.0)",
    )
    args = parser.parse_args(argv)

    new = json.loads(args.new.read_text())
    new_stages = _stages(new)
    failures: list[str] = []
    multicore = (new.get("cpus") or 1) > 1

    for (workload, stage), row in sorted(new_stages.items()):
        if stage == "enumeration+classify" and (row["speedup"] or 0) < args.floor:
            failures.append(
                f"{workload}/{stage}: fused speedup {row['speedup']}x "
                f"below the {args.floor}x floor"
            )
        proc_speedup = row.get("process_speedup_vs_fast")
        if stage == "enumeration+classify" and proc_speedup is not None:
            if not multicore:
                print(
                    f"  {workload:>8} process x{row.get('process_jobs')} "
                    f"{proc_speedup}x vs fused — single-CPU report "
                    f"(cpus={new.get('cpus')}), overhead only; not gated"
                )
            elif proc_speedup < args.process_floor:
                failures.append(
                    f"{workload}/{stage}: process speedup {proc_speedup}x "
                    f"vs fused below the {args.process_floor}x floor on a "
                    f"{new.get('cpus')}-cpu machine"
                )

    faults = new.get("faults")
    if faults is not None:
        overhead = faults.get("overhead") or 0
        line = (
            f"  {faults.get('workload', '?'):>8} {'fault overhead':<24} "
            f"healthy {faults.get('healthy_s', 0):8.4f}s   "
            f"1-dead {faults.get('degraded_s', 0):8.4f}s   "
            f"{overhead:6.2f}x ({faults.get('retries')} retries, "
            f"{faults.get('failovers')} failovers)"
        )
        if not faults.get("failovers") and not faults.get("retries"):
            failures.append(
                f"{faults.get('workload', '?')}/faults: degraded pass "
                f"reported no retries and no failovers — the dead shard "
                f"was never exercised"
            )
        if new.get("quick"):
            print(line + " — quick report; not gated")
        else:
            print(line)
            if overhead > args.fault_overhead_ceiling:
                failures.append(
                    f"{faults.get('workload', '?')}/faults: degraded build "
                    f"{overhead}x slower than healthy, above the "
                    f"{args.fault_overhead_ceiling}x ceiling"
                )
    else:
        print("  (no faults section; fault gate skipped)")

    if args.baseline is not None and args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
        old_stages = _stages(baseline)
        for key, row in sorted(new_stages.items()):
            old = old_stages.get(key)
            if old is None:
                print(f"  new stage (no baseline): {key[0]}/{key[1]}")
                continue
            old_speedup, new_speedup = old.get("speedup"), row.get("speedup")
            if not old_speedup or not new_speedup:
                continue
            if (
                (row.get("fast_s") or 0) < 0.01
                and (old.get("fast_s") or 0) < 0.01
            ):
                print(f"  skipped (sub-10ms stage, timer-noise bound): "
                      f"{key[0]}/{key[1]}")
                continue
            verdict = "ok"
            if new_speedup < args.ratio * old_speedup:
                failures.append(
                    f"{key[0]}/{key[1]}: speedup regressed "
                    f"{old_speedup}x -> {new_speedup}x "
                    f"(below {args.ratio:.0%} of baseline)"
                )
                verdict = "REGRESSED"
            print(
                f"  {key[0]:>8} {key[1]:<24} baseline {old_speedup:6.2f}x   "
                f"now {new_speedup:6.2f}x   {verdict}"
            )
        for key in sorted(set(old_stages) - set(new_stages)):
            print(f"  stage dropped from report: {key[0]}/{key[1]}")
    else:
        print("  (no baseline report; absolute floor check only)")

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("bench regression gate ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
