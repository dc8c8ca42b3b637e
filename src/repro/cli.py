"""Command-line interface.

::

    repro tables                 # regenerate every paper table
    repro table 7 --trials 10    # one specific table
    repro select 3dft --pdef 4   # run pattern selection on a workload
    repro schedule 3dft --patterns aabcc,aaacc
    repro pipeline fft64 --timings
    repro pipeline fft64 --cache-dir ~/.cache/repro
    repro serve --port 8350
    repro serve --cache-dir /var/cache/repro --max-pending 64
    repro serve --cache-dir /var/cache/repro --cache-max-bytes 256M
    repro submit fft64 --url http://127.0.0.1:8350 --pdef 5
    repro edit fft64 --recolor n17=a --pdef 5   # incremental re-schedule
    repro cache-gc /var/cache/repro --max-bytes 64M
    repro compile examples.prog --pdef 3
    repro workloads              # list built-in workloads

``pipeline`` submits its job through an (ephemeral,
per-command) :class:`~repro.service.SchedulerService`; for warm caches
across requests run the *resident* service — ``serve`` — and submit to
it with ``submit`` or :class:`~repro.service.ServiceClient`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro._version import __version__
from repro.analysis.experiments import (
    antichain_census,
    pattern_set_sensitivity,
    random_vs_selected,
    selection_walkthrough,
)
from repro.analysis.tables import render_matrix, render_table
from repro.core.config import SelectionConfig
from repro.core.frequency import frequency_table
from repro.core.selection import PatternSelector
from repro.dfg.levels import LevelAnalysis
from repro.exceptions import ReproError
from repro.montium.compiler import MontiumCompiler
from repro.scheduling.scheduler import schedule_dfg
from repro.workloads import WORKLOADS, small_example, three_point_dft_paper

__all__ = ["main"]

#: The paper's Table 3 pattern sets.
TABLE3_SETS = (
    ("abcbc", "bbbab", "bbbcb", "babaa"),
    ("abcbc", "bcbca", "cbaba", "bbccb"),
    ("abccc", "aabac", "cccaa", "ababb"),
)


def _workload(name: str):
    try:
        return WORKLOADS[name]()
    except KeyError:
        raise ReproError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None


# --------------------------------------------------------------------------- #
# table commands
# --------------------------------------------------------------------------- #
def _table1(args: argparse.Namespace) -> None:
    dfg = three_point_dft_paper()
    lv = LevelAnalysis.of(dfg)
    rows = [(n, lv.asap[n], lv.alap[n], lv.height[n]) for n in dfg.nodes]
    print(render_table(["node", "asap", "alap", "height"], rows,
                       title="Table 1 — ASAP/ALAP/Height of the 3DFT graph"))


def _table2(args: argparse.Namespace) -> None:
    dfg = three_point_dft_paper()
    schedule = schedule_dfg(dfg, ["aabcc", "aaacc"], capacity=5)
    print("Table 2 — multi-pattern scheduling trace of the 3DFT graph")
    print(schedule.as_table())


def _table3(args: argparse.Namespace) -> None:
    dfg = three_point_dft_paper()
    rows = [
        (" ".join(pats), length)
        for pats, length in pattern_set_sensitivity(dfg, TABLE3_SETS, 5)
    ]
    print(render_table(["patterns", "clock cycles"], rows,
                       title="Table 3 — sensitivity to the chosen pattern set"))


def _table4(args: argparse.Namespace) -> None:
    catalog, _ = selection_walkthrough(small_example(), capacity=2, pdef=2)
    rows = [
        (p.as_string(), "  ".join("{" + ",".join(a) + "}" for a in
                                  catalog.antichains.get(p, [])))
        for p in catalog.patterns
    ]
    print(render_table(["pattern", "antichains"], rows,
                       title="Table 4 — patterns and antichains of the Fig. 4 graph"))


def _table5(args: argparse.Namespace) -> None:
    dfg = three_point_dft_paper()
    census = antichain_census(dfg, 5, [4, 3, 2, 1, 0])
    print(render_matrix(
        [f"Span(A)<={s}" for s in (4, 3, 2, 1, 0)],
        [str(k) for k in range(1, 6)],
        [census[s] for s in (4, 3, 2, 1, 0)],
        corner="|A| =",
        title="Table 5 — antichains of the 3DFT satisfying the span limit",
    ))


def _table6(args: argparse.Namespace) -> None:
    catalog, _ = selection_walkthrough(small_example(), capacity=2, pdef=2)
    print("Table 6 — node frequencies of the Fig. 4 graph")
    print(frequency_table(catalog))


def _table7(args: argparse.Namespace) -> None:
    cfg = SelectionConfig(span_limit=args.span_limit)
    headers = ["Pdef", "Random", "Selected", "selected library"]
    for name in ("3dft", "5dft"):
        dfg = _workload(name)
        rows = []
        for row in random_vs_selected(
            dfg, range(1, 6), 5, trials=args.trials, seed=args.seed, config=cfg
        ):
            rows.append(
                (row.pdef, f"{row.random.mean:.1f}", row.selected,
                 " ".join(row.library))
            )
        print(render_table(
            headers, rows,
            title=f"Table 7 ({name}) — random vs selected patterns",
        ))
        print()


def _tables(args: argparse.Namespace) -> None:
    for fn in (_table1, _table2, _table3, _table4, _table5, _table6, _table7):
        fn(args)
        print()


_TABLE_DISPATCH: dict[int, Callable[[argparse.Namespace], None]] = {
    1: _table1,
    2: _table2,
    3: _table3,
    4: _table4,
    5: _table5,
    6: _table6,
    7: _table7,
}


# --------------------------------------------------------------------------- #
# other commands
# --------------------------------------------------------------------------- #
def _cmd_table(args: argparse.Namespace) -> None:
    _TABLE_DISPATCH[args.number](args)


def _cmd_select(args: argparse.Namespace) -> None:
    from repro.core.variants import get_variant

    dfg = _workload(args.workload)
    cfg = SelectionConfig(span_limit=args.span_limit)
    selector = PatternSelector(
        args.capacity, config=cfg, priority_fn=get_variant(args.variant)
    )
    result = selector.select(dfg, args.pdef)
    print(
        f"selected patterns for {dfg.name!r} "
        f"(Pdef={args.pdef}, variant={args.variant}):"
    )
    for i, (p, rnd) in enumerate(zip(result.patterns, result.rounds), 1):
        tag = " (fallback)" if rnd.fallback else ""
        print(f"  {i}. {p.as_string(args.capacity)}{tag}")


def _cmd_schedule(args: argparse.Namespace) -> None:
    from repro.scheduling.scheduler import MultiPatternScheduler

    dfg = _workload(args.workload)
    patterns = args.patterns.split(",")
    scheduler = MultiPatternScheduler(patterns, capacity=args.capacity)
    schedule = scheduler.schedule(dfg)
    print(schedule.as_table())
    print(f"\ntotal clock cycles: {schedule.length}")


def _print_job_result(result, cache: str, *, timings: bool) -> None:
    print(f"  library: {' '.join(result.selection.library.as_strings())}")
    print(f"  cycles:  {result.schedule.length}  "
          f"(lower bound {result.metrics['lower_bound']}, "
          f"gap {result.metrics['optimality_gap']})")
    print(f"  utilization: {result.metrics['utilization']:.2f}")
    print(f"  cache:   {cache}  (job {result.job_key[:12]}, "
          f"dfg {result.dfg_digest[:12]})")
    if timings:
        rows = [(stage, f"{result.timings[stage] * 1000:.2f}")
                for stage in result.timings]
        rows.extend(
            (stage, "cached")
            for stage in ("catalog", "selection", "schedule", "metrics")
            if stage not in result.timings
        )
        print(render_table(["stage", "ms"], rows, title="stage timings"))


def _cmd_pipeline(args: argparse.Namespace) -> None:
    from repro.service import JobRequest, SchedulerService

    dfg = _workload(args.workload)
    cfg = SelectionConfig(
        span_limit=args.span_limit,
        max_pattern_size=args.max_pattern_size,
        widen_to_capacity=args.widen,
    )
    request = JobRequest(
        capacity=args.capacity, pdef=args.pdef, dfg=dfg, config=cfg
    )
    with SchedulerService(cache_dir=args.cache_dir) as service:
        outcome = service.submit_outcome(request)
    print(f"pipeline {dfg.name!r} (C={args.capacity}, Pdef={args.pdef}):")
    _print_job_result(outcome.result, outcome.cache, timings=args.timings)


def _parse_bytes(text: str) -> int:
    """Parse a byte budget like ``67108864``, ``64M``, ``1.5G`` (binary units)."""
    import re

    m = re.fullmatch(
        r"\s*(\d+(?:\.\d+)?)\s*([kKmMgG]?)(?:i?[bB])?\s*", text
    )
    if not m:
        raise ReproError(
            f"cannot parse byte size {text!r}; use e.g. 67108864, 64M or 2G"
        )
    scale = {"": 1, "k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    return int(float(m.group(1)) * scale[m.group(2).lower()])


def _cmd_serve(args: argparse.Namespace) -> None:
    from repro.service.aio import serve

    serve(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        cache_max_bytes=(
            _parse_bytes(args.cache_max_bytes)
            if args.cache_max_bytes is not None
            else None
        ),
        max_pending=args.max_pending,
        quota_rps=args.quota_rps,
        quota_burst=args.quota_burst,
    )


def _cmd_drain(args: argparse.Namespace) -> None:
    from repro.service import ServiceClient

    with ServiceClient(args.url, timeout=args.timeout) as client:
        client.drain()
    print(f"service at {args.url} is draining; new work now answers 503")


def _cmd_cache_gc(args: argparse.Namespace) -> None:
    from repro.service.store import gc_cache_dir

    stats = gc_cache_dir(
        args.cache_dir,
        max_bytes=_parse_bytes(args.max_bytes),
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"cache-gc {stats['directory']}: {stats['files']} files, "
        f"{stats['bytes']} bytes; {verb} {stats['removed']} files "
        f"({stats['removed_bytes']} bytes), keeping {stats['kept_bytes']} bytes"
    )


def _cmd_submit(args: argparse.Namespace) -> None:
    from repro.service import JobRequest, ServiceClient

    cfg = SelectionConfig(
        span_limit=args.span_limit,
        max_pattern_size=args.max_pattern_size,
        widen_to_capacity=args.widen,
    )
    request = JobRequest(
        capacity=args.capacity,
        pdef=args.pdef,
        workload=args.workload,
        config=cfg,
        priority=args.priority,
    )
    with ServiceClient(args.url, timeout=args.timeout) as client:
        result = client.submit(request)
        cache = client.last_cache
    print(
        f"job {args.workload!r} via {args.url} "
        f"(C={args.capacity}, Pdef={args.pdef}):"
    )
    _print_job_result(result, cache or "?", timings=args.timings)


def _parse_edits(args: argparse.Namespace) -> list:
    """Build the DfgEdit list from the repeatable ``repro edit`` flags."""
    from repro.dfg.edit import DfgEdit

    def split_pair(text: str, sep: str, what: str) -> tuple[str, str]:
        left, _, right = text.partition(sep)
        if not left or not right:
            raise ReproError(
                f"cannot parse {what} {text!r}; expected LEFT{sep}RIGHT"
            )
        return left, right

    edits: list[DfgEdit] = []
    for spec in args.recolor or ():
        node, color = split_pair(spec, "=", "--recolor")
        edits.append(DfgEdit.recolor(node, color))
    for spec in args.add_node or ():
        node, color = split_pair(spec, "=", "--add-node")
        edits.append(DfgEdit.add_node(node, color))
    for node in args.remove_node or ():
        edits.append(DfgEdit.remove_node(node))
    for spec in args.add_edge or ():
        u, v = split_pair(spec, ":", "--add-edge")
        edits.append(DfgEdit.add_edge(u, v))
    for spec in args.remove_edge or ():
        u, v = split_pair(spec, ":", "--remove-edge")
        edits.append(DfgEdit.remove_edge(u, v))
    if not edits:
        raise ReproError(
            "no edits given; use --recolor/--add-node/--remove-node/"
            "--add-edge/--remove-edge (repeatable)"
        )
    return edits


def _cmd_edit(args: argparse.Namespace) -> None:
    from repro.service import EditRequest, JobRequest, ServiceClient

    cfg = SelectionConfig(
        span_limit=args.span_limit,
        max_pattern_size=args.max_pattern_size,
        widen_to_capacity=args.widen,
    )
    job = JobRequest(
        capacity=args.capacity,
        pdef=args.pdef,
        workload=args.workload,
        config=cfg,
        priority=args.priority,
    )
    request = EditRequest(job=job, edits=tuple(_parse_edits(args)))
    with ServiceClient(args.url, timeout=args.timeout) as client:
        result = client.submit_edit(request)
        cache = client.last_cache
    print(
        f"edited job {args.workload!r} (+{len(request.edits)} edit(s)) "
        f"via {args.url} (C={args.capacity}, Pdef={args.pdef}):"
    )
    _print_job_result(result, cache or "?", timings=args.timings)


def _cmd_compile(args: argparse.Namespace) -> None:
    with open(args.source, "r", encoding="utf-8") as fh:
        source = fh.read()
    compiler = MontiumCompiler(fuse_mac=args.fuse_mac)
    result = compiler.compile(source, pdef=args.pdef)
    print(result.report())


def _cmd_workloads(args: argparse.Namespace) -> None:
    rows = []
    for name in sorted(WORKLOADS):
        dfg = WORKLOADS[name]()
        census = dfg.color_census()
        rows.append(
            (name, dfg.n_nodes, dfg.n_edges,
             " ".join(f"{c}:{k}" for c, k in sorted(census.items())))
        )
    print(render_table(["name", "nodes", "edges", "colors"], rows))


# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Pattern Selection Algorithm for "
        "Multi-Pattern Scheduling' (IPPS 2006).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="regenerate every paper table")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=2006)
    p.add_argument("--span-limit", type=int, default=1)
    p.set_defaults(fn=_tables)

    p = sub.add_parser("table", help="regenerate one paper table")
    p.add_argument("number", type=int, choices=sorted(_TABLE_DISPATCH))
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=2006)
    p.add_argument("--span-limit", type=int, default=1)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("select", help="run pattern selection on a workload")
    p.add_argument("workload")
    p.add_argument("--pdef", type=int, default=4)
    p.add_argument("--capacity", type=int, default=5)
    p.add_argument("--span-limit", type=int, default=1)
    p.add_argument("--variant", default="paper",
                   help="priority variant (see repro.core.variants)")
    p.set_defaults(fn=_cmd_select)

    p = sub.add_parser("schedule", help="schedule a workload with patterns")
    p.add_argument("workload")
    p.add_argument("--patterns", required=True,
                   help="comma-separated, e.g. aabcc,aaacc")
    p.add_argument("--capacity", type=int, default=5)
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser(
        "pipeline",
        help="run the full DFG → catalog → selection → schedule pipeline",
    )
    p.add_argument("workload")
    p.add_argument("--pdef", type=int, default=4)
    p.add_argument("--capacity", type=int, default=5)
    p.add_argument("--span-limit", type=int, default=1)
    p.add_argument("--max-pattern-size", type=int, default=None,
                   help="cap generated pattern cardinality (default: C)")
    p.add_argument("--widen", action="store_true",
                   help="pad selected patterns to full capacity")
    p.add_argument("--timings", action="store_true",
                   help="print per-stage wall-clock timings")
    p.add_argument("--cache-dir", default=None,
                   help="disk-backed cache directory: catalogs/selections/"
                        "results persist across invocations")
    p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser(
        "serve",
        help="run the scheduling service over HTTP (see repro.service)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8350)
    p.add_argument("--cache-dir", default=None,
                   help="disk-backed cache directory: catalogs/selections/"
                        "results/shard partials survive restarts and can be "
                        "shared between instances")
    p.add_argument("--cache-max-bytes", default=None,
                   help="per-namespace byte budget for --cache-dir (e.g. "
                        "256M): each write prunes least-recently-used "
                        "entries back under it")
    p.add_argument("--max-pending", type=int, default=None,
                   help="admission bound: reject (HTTP 429) when this many "
                        "submissions are already pending")
    p.add_argument("--quota-rps", type=float, default=None,
                   help="per-client token-bucket rate for work routes "
                        "(requests/second, keyed by X-Repro-Client or peer "
                        "address)")
    p.add_argument("--quota-burst", type=float, default=None,
                   help="per-client burst size (defaults to 2x --quota-rps)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "drain",
        help="gracefully drain a running 'repro serve': stop accepting "
             "new work, finish in-flight jobs",
    )
    p.add_argument("--url", default="http://127.0.0.1:8350",
                   help="base URL of the service")
    p.add_argument("--timeout", type=float, default=60.0)
    p.set_defaults(fn=_cmd_drain)

    p = sub.add_parser(
        "cache-gc",
        help="prune a service cache directory to a byte budget "
             "(least-recently-used first, across all namespaces)",
    )
    p.add_argument("cache_dir", help="the --cache-dir to prune")
    p.add_argument("--max-bytes", required=True,
                   help="byte budget to prune down to (e.g. 67108864, 64M, 2G)")
    p.add_argument("--dry-run", action="store_true",
                   help="report what would be removed without deleting")
    p.set_defaults(fn=_cmd_cache_gc)

    p = sub.add_parser(
        "submit", help="submit a workload job to a running 'repro serve'"
    )
    p.add_argument("workload")
    p.add_argument("--url", default="http://127.0.0.1:8350",
                   help="base URL of the service")
    p.add_argument("--pdef", type=int, default=4)
    p.add_argument("--capacity", type=int, default=5)
    p.add_argument("--span-limit", type=int, default=1)
    p.add_argument("--max-pattern-size", type=int, default=None)
    p.add_argument("--widen", action="store_true")
    p.add_argument("--priority", default="f2", choices=["f1", "f2"])
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--timings", action="store_true",
                   help="print per-stage wall-clock timings")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser(
        "edit",
        help="submit a graph edit of a workload job to a running "
             "'repro serve' — clean partitions are reused incrementally",
    )
    p.add_argument("workload")
    p.add_argument("--url", default="http://127.0.0.1:8350",
                   help="base URL of the service")
    p.add_argument("--recolor", action="append", metavar="NODE=COLOR",
                   help="recolor a node (repeatable)")
    p.add_argument("--add-node", action="append", metavar="NAME=COLOR",
                   help="append a node (repeatable)")
    p.add_argument("--remove-node", action="append", metavar="NAME",
                   help="remove a node and its incident edges (repeatable)")
    p.add_argument("--add-edge", action="append", metavar="U:V",
                   help="add a dependence edge (repeatable)")
    p.add_argument("--remove-edge", action="append", metavar="U:V",
                   help="remove a dependence edge (repeatable)")
    p.add_argument("--pdef", type=int, default=4)
    p.add_argument("--capacity", type=int, default=5)
    p.add_argument("--span-limit", type=int, default=1)
    p.add_argument("--max-pattern-size", type=int, default=None)
    p.add_argument("--widen", action="store_true")
    p.add_argument("--priority", default="f2", choices=["f1", "f2"])
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--timings", action="store_true",
                   help="print per-stage wall-clock timings")
    p.set_defaults(fn=_cmd_edit)

    p = sub.add_parser("compile", help="compile an expression program")
    p.add_argument("source", help="path to a program file")
    p.add_argument("--pdef", type=int, default=4)
    p.add_argument("--fuse-mac", action="store_true")
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("workloads", help="list built-in workloads")
    p.set_defaults(fn=_cmd_workloads)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
