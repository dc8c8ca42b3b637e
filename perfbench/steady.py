"""Steadiness check: two sets of runs of the same code against ``BENCHMARK.json``.

For every workload, each of the two sets makes ``runs`` untraced runs with
distinct seeds.  The sets are interleaved run by run, and which set goes
first alternates from pair to pair, the way parent and change runs are
paired, so host drift during the check lands on both sets alike.  Per
end-to-end metric it reports each set's spread (inter-quartile distance over
the median, ``statistics.quantiles(n=4)``) and how far the second set's
median moved from the first's, in either direction.  A metric passes when
both spreads and the move stay within its bound.  ``target`` marks spreads
under a third of the bound, the margin the benchmark is tuned to.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from metrics import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported incorrect answers")
    return {name: m["value"] for name, m in result["metrics"].items()}


def moved(first: float, second: float) -> float:
    """How far ``second`` is from ``first``, as a share of ``first``."""
    return abs(second - first) / first


def steadiness(workloads: "list[str]", runs: int, seconds: "float | None") -> int:
    bench = load_benchmark()
    metrics = bench["end_to_end"]
    seconds = seconds if seconds is not None else bench["run_seconds"]
    ok = True
    summary = {}
    for workload in workloads:
        rows: "tuple[list[dict], list[dict]]" = ([], [])
        for i in range(runs):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                rows[s].append(one_run(workload, s * runs + i + 1, seconds))
        values = [{m["name"]: [row[m["name"]] for row in part] for m in metrics} for part in rows]
        print(f"{workload}: 2 interleaved sets of {runs} runs, {seconds:g} s each")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            spreads = [spread(v[name]) for v in values]
            medians = [statistics.median(v[name]) for v in values]
            move = moved(*medians)
            passed = all(sp <= bound for sp in spreads) and move <= bound
            target = all(sp < bound / 3 for sp in spreads)
            ok &= passed
            summary.setdefault(workload, {})[name] = {
                "values": [v[name] for v in values],
                "spreads": spreads, "medians": medians, "moved": move, "bound": bound,
                "pass": passed, "target": target,
            }
            print(f"  {name:<24} spread {' '.join(f'{sp:7.2%}' for sp in spreads)}  "
                  f"median {' '.join(f'{md:12.6g}' for md in medians)}  moved {move:7.2%}  "
                  f"bound {bound:.0%}  {'PASS' if passed else 'FAIL'}"
                  f"{'' if target else '  (spread above bound/3)'}")
    print(json.dumps({"steady": ok, "workloads": summary}))
    return 0 if ok else 1
