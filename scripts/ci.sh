#!/usr/bin/env bash
# Tier-1 gate + perfbench unit tests + service HTTP smoke + engine smoke +
# bench regression diff.
#
#   ./scripts/ci.sh          # tier-1 tests + HTTP smoke + quick bench + diff
#   ./scripts/ci.sh --fast   # tier-1 and perfbench unit tests only
#
# The engine smoke times only what perfbench (the benchmark of record for
# the served path) cannot see: the serial-vs-fused monolithic catalog
# build, the antichain census and the 1-of-4-dead shard fleet.  Its report
# is gated on the absolute --floor and diffed per (workload, stage)
# against the previous run's report when one is available under
# $BENCH_BASELINE_DIR (CI restores it from the actions cache; any stage
# whose speedup halves fails loudly), then stored back as the next run's
# baseline and uploaded as an artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== optional bitset extension build (best effort) =="
# The Extension is marked optional=True: a missing compiler degrades to
# the pure numpy expansion path with identical output, never a failure.
python setup.py build_ext --inplace >/dev/null 2>&1 \
    || echo "  (build failed; the bitset kernel will use the numpy expansion path)"
python - <<'EOF'
from repro.exec.bitset import bitset_availability
print(f"  bitset availability: {bitset_availability()}")
EOF

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== pre-flight: a doomed default-config fft64 submit runs no DFS =="
# The level-width floor alone proves fft64 exceeds the 5M antichain cap at
# every span, so the job must fail with the span-0 error before a single
# partition is classified (partition_misses stays 0).  No timing gate: the
# elapsed time is printed for the log only.
python - <<'EOF'
import time

from repro.exceptions import SelectionError
from repro.service import JobRequest, SchedulerService

with SchedulerService() as service:
    start = time.perf_counter()
    try:
        service.submit(JobRequest(capacity=5, pdef=4, workload="fft64"))
    except SelectionError as exc:
        cause = str(exc.__cause__)
    else:
        raise SystemExit("fft64 at the default config must raise SelectionError")
    elapsed_ms = (time.perf_counter() - start) * 1000
    misses = service.stats.partition_misses
if "span ≤ 0" not in cause:
    raise SystemExit(f"expected the span-0 limit as the cause, got {cause!r}")
if misses != 0:
    raise SystemExit(f"pre-flight let the DFS run: partition_misses={misses}")
print(f"  rejected in {elapsed_ms:.1f} ms with partition_misses=0")
EOF

echo "== one classify pass: a cold 25-node build batches its 16 partitions =="
# A cold build hands every missed seed partition to a single
# classify_partition_rows call, which batches them into a few vectorized
# BFS passes, yet still caches each partition's rows under its own key:
# all 16 partials are stored, and an edit right after reuses the clean
# ones (cache level "edit").  Counts only, no timing.
python - <<'EOF'
import repro.exec.process as process_mod
from repro.dfg.edit import DfgEdit
from repro.service import EditRequest, JobRequest, SchedulerService
from repro.service.service import EDIT_PARTITIONS
from repro.workloads.synthetic import layered_dag

calls = []
classify_partition_rows = process_mod.classify_partition_rows


def counted(*args, **kwargs):
    calls.append(len(args[2]))
    return classify_partition_rows(*args, **kwargs)


process_mod.classify_partition_rows = counted
dfg = layered_dag(7, layers=5, width=5, colors=("a", "b", "c"))
if dfg.n_nodes != 25:
    raise SystemExit(f"expected the fixed 25-node graph, got {dfg.n_nodes}")
job = JobRequest(capacity=5, pdef=4, dfg=dfg)
labels, colors = dfg.color_labels()
recolor = DfgEdit.recolor(dfg.nodes[-1], "a" if colors[labels[-1]] != "a" else "b")
with SchedulerService() as service:
    cold = service.submit_outcome(job)
    cold_calls = list(calls)
    misses = service.stats.partition_misses
    cached = len(service._shard_parts)
    edit = service.submit_edit_outcome(EditRequest(job=job, edits=(recolor,)))
if cold.cache != "none":
    raise SystemExit(f"expected a cold submit, got cache {cold.cache!r}")
if cold_calls != [EDIT_PARTITIONS]:
    raise SystemExit(f"expected one call over 16 partitions, got {cold_calls}")
if misses != EDIT_PARTITIONS or cached != EDIT_PARTITIONS:
    raise SystemExit(f"partition_misses={misses}, cached partials={cached}")
if edit.cache != "edit":
    raise SystemExit(f"the edit after it answered {edit.cache!r}, not 'edit'")
print(f"  1 classify call, partition_misses={misses}, {cached} partials cached,"
      f" edit answered {edit.cache!r}")
EOF

echo "== write once: a two-shard fleet on one cache dir writes each file once =="
# The shard services and the coordinator share one --cache-dir, and every
# key is content-addressed: the coordinator's write-back of a partial the
# shard already stored finds the file and skips the write.  A cold fleet
# submit writes its 16 partials once each, plus 1 catalog, 1 selection
# and 1 result file.  Counts only, no timing.
python - <<'EOF'
import os
import tempfile
from collections import Counter
from pathlib import Path

from repro.service import JobRequest, ShardCoordinator
from repro.service.service import EDIT_PARTITIONS
from repro.workloads.synthetic import layered_dag

writes = []
replace = os.replace


def counted(src, dst, *args, **kwargs):
    writes.append(Path(dst))
    return replace(src, dst, *args, **kwargs)


os.replace = counted
dfg = layered_dag(7, layers=5, width=5, colors=("a", "b", "c"))
with tempfile.TemporaryDirectory() as cache_dir:
    with ShardCoordinator.local(2, cache_dir=cache_dir) as coord:
        outcome = coord.submit_outcome(JobRequest(capacity=5, pdef=4, dfg=dfg))
per_file = Counter(writes)
per_namespace = Counter(path.parent.name for path in writes)
twice = sorted(str(path) for path, n in per_file.items() if n > 1)
if outcome.cache != "catalog":
    raise SystemExit(f"expected a fleet-built catalog, got cache {outcome.cache!r}")
if twice:
    raise SystemExit(f"{len(twice)} files written more than once, e.g. {twice[0]}")
expected = {"shard": EDIT_PARTITIONS, "catalog": 1, "selection": 1, "result": 1}
if dict(per_namespace) != expected:
    raise SystemExit(f"expected writes {expected}, got {dict(per_namespace)}")
print("  writes: " + ", ".join(f"{ns} {n}" for ns, n in sorted(per_namespace.items())))
EOF

echo "== perfbench unit tests =="
python perfbench/selftest.py

echo "== bitset and service-edit suites without the compiled extension =="
# Re-run the bitset suite with the native kernel forced away so both the
# compiled and the pure numpy expansion paths stay pinned bit-identical,
# and the service edit suite so the partitioned build (cold, edit and
# partial reuse) is pinned on the numpy path the benchmark runs too.
REPRO_NO_NATIVE=1 python -m pytest tests/test_exec_bitset.py \
    tests/test_service_edit.py -x -q

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff (matches the CI lint job) =="
    ruff check .
    ruff format --check .
else
    echo "== ruff not installed locally; lint runs in the CI lint job =="
fi

if [[ "${1:-}" != "--fast" ]]; then
    # Inside the checkout, so two runs on one host never share a report.
    SMOKE=.bench-smoke/BENCH_engine_smoke.json
    mkdir -p .bench-smoke
    BASELINE_DIR="${BENCH_BASELINE_DIR:-.bench-baseline}"

    echo "== service HTTP smoke =="
    python scripts/http_smoke.py

    echo "== engine bench smoke (quick) =="
    python benchmarks/run_benchmarks.py --quick -o "$SMOKE"

    echo "== stage-level bench regression diff =="
    python scripts/diff_bench.py "$SMOKE" \
        --baseline "$BASELINE_DIR/BENCH_engine_smoke.json"

    mkdir -p "$BASELINE_DIR"
    cp "$SMOKE" "$BASELINE_DIR/BENCH_engine_smoke.json"
fi
echo "CI OK"
