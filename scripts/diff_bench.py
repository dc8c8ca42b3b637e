#!/usr/bin/env python
"""Diff two BENCH_engine.json reports and fail loudly on stage regressions.

CI persists every bench run as a workflow artifact and caches the previous
run's report; this script compares the fresh report against that baseline
**per (workload, stage)** instead of only enforcing the global 2x smoke
floor:

* absolute floor — enumeration+classify must keep a ≥ ``--floor`` (default
  2.0x) speedup over the reference backend on every workload;
* relative regression — any stage whose fused-vs-reference speedup drops
  below ``--ratio`` (default 0.5) of the baseline's speedup for the same
  (workload, stage) fails.  Speedups are compared rather than raw seconds
  because both sides of a speedup are measured on the same machine, which
  makes the metric portable across differently-sized CI runners.  Stages
  whose fast path measured under 10 ms on both sides are skipped — at
  that scale a single scheduler hiccup flips the ratio, so the compare
  would gate timer noise, not code;
* service regression — the report's ``service`` section (cold vs warm
  submit of the same job through :class:`repro.service.SchedulerService`)
  must keep a warm speedup ≥ ``--service-floor`` (default 10x, the
  acceptance bar for the content-addressed result cache) and must have
  built the pdef-sweep catalog exactly once;
* multi-core gates — process-backend and cold sharded-enumeration rows
  are only meaningful on real multi-core hardware, so they are gated
  **only when the report says ``cpus > 1``**: the process backend must
  then beat the fused engine on enumeration+classify by ≥
  ``--process-floor`` (default 1.05x) and the ``shard catalog`` rows
  must reach ≥ ``--shard-floor`` (default 1.0x) over the fused build.
  On a single-CPU machine those rows measure fan-out overhead only and
  are reported, never gated (and they are excluded from the relative
  regression compare unless both reports are multi-core);
* warm-shard gate — ``shard catalog warm`` rows (warm-vs-cold rebuild
  through the content-addressed shard-partial cache, which runs **no**
  DFS and therefore does not need extra cores) must keep a speedup ≥
  ``--warm-shard-floor`` (default 5x).  Like the process rows the gate
  only applies when the report carries such rows — reports produced
  without ``--shards`` skip it;
* warm-edit gate — ``warm edit rebuild`` rows (a single-node edit
  submitted through ``SchedulerService.submit_edit`` vs a cold full
  rebuild of the edited graph) must keep a speedup ≥
  ``--warm-edit-floor`` (default 1.0x: warm must never be slower than
  cold).  The warm path elides the DFS of every partition whose
  subgraph digest the edit left unchanged, so like the warm-shard gate
  the floor holds on **any** core count — but only on full reports:
  ``--quick`` smoke workloads are too small to amortise the fixed
  selection/scheduling cost, so their edit rows are printed, never
  gated (and are excluded from the relative regression compare for the
  same reason).  The floor is deliberately modest because the bitset
  backend made the *cold* partitioned rebuild several times faster: on
  size-2 workloads both sides of the ratio are now dominated by the
  same fixed digest/selection/scheduling cost, so a large ratio floor
  would measure that fixed cost, not partition reuse.  The semantic
  reuse checks (cache level ``edit``, partition hits > 0,
  bit-identical results) are asserted inside ``run_benchmarks.py``;
* serve gate — the report's ``serve`` section (concurrent warm submits
  through one live ``repro serve`` subprocess on the asyncio core, warm
  p50/p99 latency + requests/sec) must keep ≥ ``--serve-floor`` (default
  20 req/s) on full reports with ``cpus > 1``.  Quick and single-core
  reports print the numbers but never gate — with one core the client
  threads and the server contend for the same CPU, so the throughput
  measures the machine, not the service;
* bitset gate — enumeration+classify rows carrying
  ``bitset_speedup_vs_fast`` (the vectorized bitset backend against the
  fused scalar baseline, same single core — machine-independent) must
  keep ≥ ``--bitset-floor`` (default 2.0x) on full reports.  ``--quick``
  smoke workloads are too small to amortise the vectorized path's fixed
  setup, so their bitset columns are printed, never gated.

Stages present on only one side (new workloads, removed workloads) are
reported but never fail the run; a report without a ``service`` section
(older baselines) skips that gate.

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


def _multicore(report: dict) -> bool:
    return (report.get("cpus") or 1) > 1


#: Stages whose speedups depend on core count: gated and diffed only on
#: multi-core reports.  "shard catalog warm" is deliberately absent —
#: a warm rebuild runs no DFS, so its speedup holds on any core count.
_PARALLEL_STAGES = {"shard catalog"}


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
        "--service-floor", type=float, default=10.0,
        help="minimum warm-vs-cold service submit speedup (default 10.0)",
    )
    parser.add_argument(
        "--serve-floor", type=float, default=20.0,
        help="minimum warm requests/sec through a live 'repro serve' "
        "(the report's 'serve' section), gated only on full (non "
        "--quick) reports with cpus > 1 — single-core runs measure "
        "client/server CPU contention, not the service (default 20.0)",
    )
    parser.add_argument(
        "--process-floor", type=float, default=1.05,
        help="minimum process-vs-fused enumeration speedup, gated only "
        "when the report's cpus > 1 (default 1.05)",
    )
    parser.add_argument(
        "--shard-floor", type=float, default=1.0,
        help="minimum shard-vs-fused catalog speedup, gated only when "
        "the report's cpus > 1 (default 1.0)",
    )
    parser.add_argument(
        "--warm-shard-floor", type=float, default=5.0,
        help="minimum warm-vs-cold sharded catalog rebuild speedup "
        "through the shard-partial cache, gated whenever the report "
        "carries 'shard catalog warm' rows (default 5.0)",
    )
    parser.add_argument(
        "--bitset-floor", type=float, default=2.0,
        help="minimum bitset-vs-fused enumeration+classify speedup, "
        "gated on any machine whenever a full (non --quick) report's "
        "rows carry 'bitset_speedup_vs_fast' (default 2.0)",
    )
    parser.add_argument(
        "--warm-edit-floor", type=float, default=1.0,
        help="minimum warm-edit-vs-cold-full-rebuild speedup through "
        "partition-granular shard partials, gated on any machine "
        "whenever a full (non --quick) report carries "
        "'warm edit rebuild' rows (default 1.0: warm must never be "
        "slower than cold — the vectorized cold rebuild leaves both "
        "sides fixed-cost bound on size-2 workloads)",
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
    multicore = _multicore(new)

    for (workload, stage), row in sorted(new_stages.items()):
        if stage == "enumeration+classify" and (row["speedup"] or 0) < args.floor:
            failures.append(
                f"{workload}/{stage}: fused speedup {row['speedup']}x "
                f"below the {args.floor}x floor"
            )
        bitset_speedup = row.get("bitset_speedup_vs_fast")
        if stage == "enumeration+classify" and bitset_speedup is not None:
            if new.get("quick"):
                print(
                    f"  {workload:>8} bitset {bitset_speedup}x vs fused — "
                    f"quick smoke workload (fixed-cost bound); not gated"
                )
            elif bitset_speedup < args.bitset_floor:
                failures.append(
                    f"{workload}/{stage}: bitset speedup {bitset_speedup}x "
                    f"vs fused below the {args.bitset_floor}x floor"
                )
            else:
                print(
                    f"  {workload:>8} {'bitset vs fused':<24} "
                    f"fused {row.get('fast_s', 0):8.4f}s   "
                    f"bitset {row.get('bitset_s', 0):8.4f}s   "
                    f"{bitset_speedup:6.2f}x"
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
        if stage in _PARALLEL_STAGES:
            if not multicore:
                print(
                    f"  {workload:>8} {stage} {row.get('speedup')}x — "
                    f"single-CPU report (cpus={new.get('cpus')}), "
                    f"overhead only; not gated"
                )
            elif (row.get("speedup") or 0) < args.shard_floor:
                failures.append(
                    f"{workload}/{stage}: shard speedup {row.get('speedup')}x "
                    f"vs fused below the {args.shard_floor}x floor on a "
                    f"{new.get('cpus')}-cpu machine "
                    f"({row.get('shards')} shards)"
                )
        if stage == "warm edit rebuild":
            edit_speedup = row.get("speedup") or 0
            if new.get("quick"):
                print(
                    f"  {workload:>8} {stage} {edit_speedup}x — quick "
                    f"smoke workload (fixed-cost bound); not gated"
                )
            elif edit_speedup < args.warm_edit_floor:
                failures.append(
                    f"{workload}/{stage}: warm edit rebuild speedup "
                    f"{edit_speedup}x below the {args.warm_edit_floor}x "
                    f"floor ({row.get('partition_hits')} partitions reused)"
                )
            if not new.get("quick"):
                print(
                    f"  {workload:>8} {stage:<24} "
                    f"cold {row.get('reference_s', 0):8.4f}s   "
                    f"warm {row.get('fast_s', 0):8.4f}s   "
                    f"{edit_speedup:6.2f}x"
                )
        if stage == "shard catalog warm":
            warm_speedup = row.get("speedup") or 0
            if warm_speedup < args.warm_shard_floor:
                failures.append(
                    f"{workload}/{stage}: warm shard rebuild speedup "
                    f"{warm_speedup}x below the {args.warm_shard_floor}x "
                    f"floor ({row.get('shards')} shards)"
                )
            print(
                f"  {workload:>8} {stage:<24} "
                f"cold {row.get('reference_s', 0):8.4f}s   "
                f"warm {row.get('fast_s', 0):8.4f}s   {warm_speedup:6.2f}x"
            )

    service = new.get("service")
    if service is not None:
        warm = service.get("warm_speedup") or 0
        if warm < args.service_floor:
            failures.append(
                f"{service.get('workload', '?')}/service: warm submit "
                f"speedup {warm}x below the {args.service_floor}x floor"
            )
        builds = service.get("sweep_catalog_builds")
        if builds != 1:
            failures.append(
                f"{service.get('workload', '?')}/service: pdef sweep built "
                f"the catalog {builds} times, expected exactly 1"
            )
        print(
            f"  {service.get('workload', '?'):>8} {'service submit':<24} "
            f"cold {service.get('cold_s', 0):8.4f}s   "
            f"warm {service.get('warm_s', 0):8.4f}s   {warm:6.0f}x"
        )
    else:
        print("  (no service section; service gate skipped)")

    serve = new.get("serve")
    if serve is not None:
        rps = serve.get("requests_per_s") or 0
        line = (
            f"  {serve.get('workload', '?'):>8} {'serve warm submit':<24} "
            f"p50 {serve.get('warm_p50_ms', 0):7.2f}ms   "
            f"p99 {serve.get('warm_p99_ms', 0):7.2f}ms   "
            f"{rps:8.1f} req/s ({serve.get('clients')} clients)"
        )
        if new.get("quick"):
            print(line + " — quick report; not gated")
        elif not multicore:
            print(
                line + f" — single-CPU report (cpus={new.get('cpus')}), "
                f"contention only; not gated"
            )
        else:
            print(line)
            if rps < args.serve_floor:
                failures.append(
                    f"{serve.get('workload', '?')}/serve: warm throughput "
                    f"{rps} req/s below the {args.serve_floor} req/s floor "
                    f"on a {new.get('cpus')}-cpu machine"
                )
    else:
        print("  (no serve section; serve gate skipped)")

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
            if key[1] in _PARALLEL_STAGES and not (
                multicore and _multicore(baseline)
            ):
                # Core-count-dependent rows compare apples to oranges
                # unless both reports ran on multi-core machines.
                print(f"  skipped (needs multi-core both sides): "
                      f"{key[0]}/{key[1]}")
                continue
            if key[1] == "warm edit rebuild" and (
                new.get("quick") or baseline.get("quick")
            ):
                # Quick edit rows are fixed-cost bound (tiny workloads),
                # so their ratio moves with unrelated changes to the
                # other path — same reason the floor skips them.
                print(f"  skipped (quick rows are fixed-cost "
                      f"bound): {key[0]}/{key[1]}")
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
