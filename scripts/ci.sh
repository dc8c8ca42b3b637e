#!/usr/bin/env bash
# Tier-1 gate + perfbench unit tests + service HTTP smoke + engine smoke +
# bench regression diff.
#
#   ./scripts/ci.sh          # tier-1 tests + HTTP smoke + quick bench + diff
#   ./scripts/ci.sh --fast   # tier-1 and perfbench unit tests only
#
# The smoke report is diffed per (workload, stage) against the previous
# run's report when one is available under $BENCH_BASELINE_DIR (CI restores
# it from the actions cache; any stage whose speedup halves fails loudly),
# then stored back as the next run's baseline and uploaded as an artifact.
# The committed full BENCH_engine.json is additionally gated on the
# warm-edit and bitset floors — both are machine-independent (incremental
# re-classification elides DFS rather than using more cores; the bitset
# speedup compares two code paths on the same single core), so their
# recorded speedups must hold on any machine.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== optional bitset extension build (best effort) =="
# The Extension is marked optional=True: a missing compiler degrades to
# the pure numpy expansion path with identical output, never a failure.
python setup.py build_ext --inplace >/dev/null 2>&1 \
    || echo "  (build failed; bitset backend will use the numpy expansion path)"
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

echo "== perfbench unit tests =="
python perfbench/selftest.py

echo "== bitset equivalence without the compiled extension =="
# Re-run the bitset suite with the native kernel forced away so both the
# compiled and the pure numpy expansion paths stay pinned bit-identical.
REPRO_NO_NATIVE=1 python -m pytest tests/test_exec_bitset.py -x -q

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff (matches the CI lint job) =="
    ruff check .
    ruff format --check .
else
    echo "== ruff not installed locally; lint runs in the CI lint job =="
fi

if [[ "${1:-}" != "--fast" ]]; then
    SMOKE=/tmp/BENCH_engine_smoke.json
    BASELINE_DIR="${BENCH_BASELINE_DIR:-.bench-baseline}"

    echo "== service HTTP smoke =="
    python scripts/http_smoke.py

    echo "== engine bench smoke (quick) =="
    python benchmarks/run_benchmarks.py --quick -o "$SMOKE"

    echo "== stage-level bench regression diff =="
    python scripts/diff_bench.py "$SMOKE" \
        --baseline "$BASELINE_DIR/BENCH_engine_smoke.json" \
        --warm-edit-floor 5.0

    # Warm-edit floor is 1.0 (never slower than cold), not the historical
    # 5.0: the bitset backend cut the cold partitioned rebuild ~6x, so on
    # size-2 workloads the edit row now mostly measures fixed cost
    # (digests + selection + scheduling) on both sides.  The semantic
    # checks — cache level "edit", partition reuse, bit-identity — are
    # asserted inside run_benchmarks.py itself.
    echo "== committed full-report gate (warm edit >= 1x, bitset >= 2x, fault overhead <= 3x) =="
    python scripts/diff_bench.py BENCH_engine.json \
        --warm-edit-floor 1.0 --bitset-floor 2.0 \
        --fault-overhead-ceiling 3.0

    mkdir -p "$BASELINE_DIR"
    cp "$SMOKE" "$BASELINE_DIR/BENCH_engine_smoke.json"
fi
echo "CI OK"
