"""Span tracer that times the repro layers from outside ``src/``.

The tracer wraps public entry points of each layer in the namespaces their
callers look them up in (``repro.service.service`` imports ``dfg_digest`` by
name, so the wrapper has to replace that binding too, not only
``repro.dfg.io.dfg_digest``).  Spans live in memory as plain tuples and are
turned into per-layer self times when the run ends; nothing in ``src/``
changes.

A span records ``(id, layer, start, end, parent, job, value)``.  ``parent``
is the innermost open span of the same thread; a span opened on a helper
thread with nothing open (the shard coordinator's dispatch workers) adopts
the innermost open span of the thread that runs jobs, so fan-out time is a
child of the catalog build that caused it.  ``value`` carries a byte count
where one is measured (encoded results, disk writes).

Clock: ``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable across processes on one host; server spans are matched to the
runner's timed window by start time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

#: ``(layer, module, attribute)`` for every traced entry point.  Attributes
#: with a dot are methods patched on their class; plain names are module
#: functions, rebound in every loaded ``repro`` module that imported them.
TRACED = (
    ("dfg.digest", "repro.dfg.io", "dfg_digest"),
    ("dfg.validate", "repro.dfg.validate", "validate_dfg"),
    ("dfg.subgraph_digest", "repro.dfg.io", "subgraph_digest"),
    ("dfg.edit", "repro.dfg.edit", "apply_edits"),
    ("dfg.edit", "repro.dfg.edit", "dirty_mask"),
    ("exec.plan", "repro.exec.process", "plan_seed_partitions"),
    ("exec.classify", "repro.exec.process", "classify_partition_rows"),
    ("exec.merge", "repro.exec.process", "merge_classified_parts"),
    ("core.catalog", "repro.core.selection", "PatternSelector.build_catalog"),
    ("core.catalog", "repro.core.selection", "PatternSelector.build_catalog_with"),
    ("core.selection", "repro.core.selection", "PatternSelector.select"),
    ("scheduling.schedule", "repro.scheduling.scheduler", "MultiPatternScheduler.schedule"),
    ("analysis.metrics", "repro.analysis.metrics", "schedule_stats"),
    ("policy.signature", "repro.policy.signature", "WorkloadSignature.of"),
    ("policy.record", "repro.policy.profiles", "ProfileStore.record"),
    ("service.submit", "repro.service.service", "SchedulerService.submit_outcome"),
    ("service.serialize.result_encode", "repro.service.jobs", "JobResult.to_json"),
    ("service.serialize.result_decode", "repro.service.jobs", "JobResult.from_json"),
    ("service.serialize.shard_rows_encode", "repro.service.http", "shard_rows_to_wire"),
    ("service.serialize.shard_rows_decode", "repro.service.http", "shard_rows_from_wire"),
    ("service.store.get", "repro.service.store", "MemoryCacheStore.get"),
    ("service.store.get", "repro.service.store", "DiskCacheStore.get"),
    ("service.store.put", "repro.service.store", "MemoryCacheStore.put"),
    ("service.store.put", "repro.service.store", "DiskCacheStore.put"),
    ("service.client.roundtrip", "repro.service.http", "ServiceClient.submit"),
    ("service.shard.build_catalog", "repro.service.shard", "ShardCoordinator.build_catalog"),
    ("service.shard.rpc", "repro.service.shard", "RemoteShard.classify_stream"),
    ("service.shard.rpc", "repro.service.shard", "RemoteShard.classify_many"),
)

#: Modules imported before patching, so every by-name binding exists.
_PRELOAD = (
    "repro.cli",
    "repro.service.aio",
    "repro.service.http",
    "repro.service.shard",
    "repro.service.service",
)

#: Zero-length pseudo-layers counting catalog work: ``build_catalog_with``
#: calls, the classify passes inside them (one per adaptive-span attempt)
#: and the calls that returned a catalog.
CATALOG_CALL = "core.catalog_call"
CATALOG_ATTEMPT = "core.catalog_attempt"
CATALOG_BUILT = "core.catalog_built"


def _value_of(layer: str, result: Any, args: tuple) -> "int | None":
    """The byte count a span carries, where one is measured."""
    if layer == "service.serialize.result_encode":
        return len(result)
    if layer == "service.store.put" and hasattr(args[0], "path_for"):
        try:
            return os.stat(args[0].path_for(args[1])).st_size
        except OSError:
            return None
    return None


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Job id stamped on spans; ``None`` outside a timed job.
        self.job: Any = None
        self.records: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner: "list[int] | None" = None
        self._undo: list[Callable[[], None]] = []

    # ---------------------------------------------------------------- spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list) -> "int | None":
        if stack:
            return stack[-1]
        owner = self._owner
        if owner is not None and owner is not stack:
            try:
                return owner[-1]
            except IndexError:
                return None
        return None

    def begin_job(self, job: Any) -> None:
        """Stamp later spans with ``job``; this thread becomes the owner."""
        self.job = job
        self._owner = self._stack()

    def end_job(self) -> None:
        self.job = None

    def mark(self, layer: str) -> None:
        """Record a zero-length event (a counter without a duration)."""
        stack = self._stack()
        now = self.clock()
        self.records.append(
            (next(self._ids), layer, now, now, self._parent(stack), self.job, None)
        )

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as a span of ``layer`` (generators span their life)."""
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args: Any, **kwargs: Any):
                stack = tracer._stack()
                sid, parent, job = next(tracer._ids), tracer._parent(stack), tracer.job
                stack.append(sid)
                t0 = tracer.clock()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    t1 = tracer.clock()
                    if stack and stack[-1] == sid:
                        stack.pop()
                    tracer.records.append((sid, layer, t0, t1, parent, job, None))

            return traced_gen

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any):
            stack = tracer._stack()
            sid, parent, job = next(tracer._ids), tracer._parent(stack), tracer.job
            stack.append(sid)
            value = t1 = None
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                t1 = tracer.clock()
                value = _value_of(layer, result, args)
                return result
            finally:
                if t1 is None:  # fn raised: the span still counts
                    t1 = tracer.clock()
                stack.pop()
                tracer.records.append((sid, layer, t0, t1, parent, job, value))

        return traced

    def _wrap_catalog_with(self, fn: Callable) -> Callable:
        """``build_catalog_with`` plus attempt/built counters."""
        tracer = self

        @functools.wraps(fn)
        def counted(selector: Any, dfg: Any, classify: Callable, *a: Any, **k: Any):
            def attempt(size: int, span: Any) -> Any:
                tracer.mark(CATALOG_ATTEMPT)
                return classify(size, span)

            tracer.mark(CATALOG_CALL)
            catalog = fn(selector, dfg, attempt, *a, **k)
            tracer.mark(CATALOG_BUILT)
            return catalog

        return self.wrap("core.catalog", counted)

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        """Wrap every :data:`TRACED` entry point (idempotent per tracer)."""
        if self._undo:
            return
        for name in _PRELOAD:
            importlib.import_module(name)
        for layer, module_name, attr in TRACED:
            module = importlib.import_module(module_name)
            if "." in attr:
                self._patch_method(layer, module, attr)
            else:
                self._patch_function(layer, module, attr)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch_method(self, layer: str, module: Any, attr: str) -> None:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            patched: Any = classmethod(self.wrap(layer, raw.__func__))
        elif attr == "PatternSelector.build_catalog_with":
            patched = self._wrap_catalog_with(raw)
        else:
            patched = self.wrap(layer, raw)
        setattr(cls, meth, patched)
        self._undo.append(lambda: setattr(cls, meth, raw))

    def _patch_function(self, layer: str, module: Any, attr: str) -> None:
        original = getattr(module, attr)
        wrapped = self.wrap(layer, original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._undo.append(
                    lambda mod=mod: setattr(mod, attr, original)
                )

    # --------------------------------------------------------------- output
    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (server side, at exit)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")
        os.replace(tmp, path)


def load_spans(path: str) -> list[tuple]:
    """Spans written by :meth:`Tracer.dump` (a missing file reads as none)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return [tuple(json.loads(line)) for line in fh if line.strip()]
    except FileNotFoundError:
        return []


# ----------------------------------------------------------------- analysis
def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(records: "list[tuple]") -> dict[int, float]:
    """Span id → duration minus the part of it its children cover.

    Children are clipped to their parent's interval, and overlapping
    children (parallel fan-out) are counted once.
    """
    children: dict[int, list] = defaultdict(list)
    spans = {rec[0]: rec for rec in records}
    for sid, _layer, t0, t1, parent, _job, _value in records:
        if parent is not None and parent in spans and t1 > t0:
            children[parent].append((t0, t1))
    out = {}
    for sid, _layer, t0, t1, _parent, _job, _value in records:
        kids = [
            (max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if b > t0 and a < t1
        ]
        out[sid] = (t1 - t0) - union_length(kids)
    return out


def layer_totals(records: "list[tuple]") -> dict[str, dict[str, float]]:
    """Layer → ``{"self_s", "calls", "value"}`` summed over ``records``."""
    selfs = self_times(records)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "value": 0}
    )
    for sid, layer, t0, t1, _parent, _job, value in records:
        row = out[layer]
        row["self_s"] += selfs[sid]
        row["calls"] += 1
        if value:
            row["value"] += value
    return dict(out)


def root_durations(records: "list[tuple]", layer: "str | None" = None) -> float:
    """Summed wall time of root spans (parent not recorded), of one layer
    or of every layer."""
    ids = {rec[0] for rec in records}
    return sum(
        rec[3] - rec[2]
        for rec in records
        if (layer is None or rec[1] == layer) and (rec[4] is None or rec[4] not in ids)
    )


def covered_seconds(
    records: "list[tuple]", windows: "dict[Any, tuple[float, float]]"
) -> float:
    """Summed per-job union of root spans, clipped to each job's window."""
    ids = {rec[0] for rec in records}
    roots: dict[Any, list] = defaultdict(list)
    for sid, _layer, t0, t1, parent, job, _value in records:
        if job in windows and (parent is None or parent not in ids):
            roots[job].append((t0, t1))
    total = 0.0
    for job, (start, end) in windows.items():
        clipped = [
            (max(a, start), min(b, end)) for a, b in roots.get(job, ()) if b > start and a < end
        ]
        total += union_length(clipped)
    return total
