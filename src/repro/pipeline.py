"""End-to-end pipeline: DFG → catalog → selection → schedule → metrics.

:class:`Pipeline` composes the paper's full flow as explicit stages behind
one object, running every compute stage through a chosen execution backend
(:mod:`repro.exec`) and timing each stage — the benchmark runner, the CLI
and the experiment harnesses all consume the same stage clock instead of
hand-rolling timers.

::

    from repro import Pipeline
    from repro.workloads.fft import radix2_fft

    pipe = Pipeline(capacity=5, pdef=5, backend="process", jobs=4)
    result = pipe.run(radix2_fft(64))
    result.schedule.length        # clock cycles
    result.timings["catalog"]     # seconds spent in pattern generation

Stages
------
``catalog``
    Pattern generation (enumerate antichains → classify into patterns)
    with the selector's adaptive-span bounds.
``selection``
    The Fig. 7 pattern selection loop.
``schedule``
    Fig. 3 multi-pattern list scheduling with the selected library.
``metrics``
    Summary statistics (:func:`repro.analysis.metrics.schedule_stats`).

Every stage runs through the same backend; all backends are bit-identical
in output, so switching backends changes wall-clock only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.analysis.metrics import schedule_stats
from repro.core.config import SelectionConfig
from repro.core.selection import PatternSelector, SelectionResult
from repro.exec import ExecutionBackend, get_backend
from repro.scheduling.pattern_priority import PatternPriority
from repro.scheduling.scheduler import MultiPatternScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.selection import PriorityFn
    from repro.dfg.graph import DFG
    from repro.patterns.enumeration import PatternCatalog
    from repro.scheduling.schedule import Schedule

__all__ = ["Pipeline", "PipelineResult", "STAGES"]

#: Stage names in execution order.
STAGES = ("catalog", "selection", "schedule", "metrics")


@dataclass(frozen=True)
class PipelineResult:
    """Everything one :meth:`Pipeline.run` produced.

    Attributes
    ----------
    dfg:
        The scheduled graph.
    catalog:
        The pattern catalog (prebuilt or generated by the run).
    selection:
        Full selection diagnostics (:class:`~repro.core.selection.SelectionResult`).
    schedule:
        The multi-pattern schedule.
    metrics:
        :func:`~repro.analysis.metrics.schedule_stats` output (``{}`` when
        metrics were disabled).
    timings:
        Per-stage wall-clock seconds, keyed by :data:`STAGES` name.  A
        stage skipped (prebuilt catalog, disabled metrics) is absent.
    backend:
        Name of the backend that executed the run.
    """

    dfg: "DFG"
    catalog: "PatternCatalog"
    selection: SelectionResult
    schedule: "Schedule"
    metrics: dict[str, Any] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    backend: str = "?"

    @property
    def length(self) -> int:
        """Schedule length in clock cycles."""
        return self.schedule.length

    def total_seconds(self) -> float:
        """Sum of all recorded stage timings."""
        return sum(self.timings.values())


class Pipeline:
    """The composed selection-and-scheduling pipeline.

    Parameters
    ----------
    capacity:
        The architecture's ALU count ``C``.
    pdef:
        Pattern budget for selection.
    config:
        Selection tunables (paper constants by default).
    backend:
        Execution backend: an :class:`~repro.exec.ExecutionBackend`
        instance or registered name (default ``"fused"``).
    jobs:
        Worker count forwarded to the backend factory (the process
        backend's pool size).  Combining ``jobs`` with an
        already-constructed backend *instance* raises
        :class:`~repro.exceptions.BackendError` — an instance's worker
        count is fixed at construction, and silently dropping the
        argument hid real configuration bugs.
    priority:
        Scheduler pattern priority (``"f2"`` default, or ``"f1"``).
    priority_fn:
        Optional custom selection priority (see
        :class:`~repro.core.selection.PatternSelector`).
    collect_metrics:
        Compute :func:`~repro.analysis.metrics.schedule_stats` as a final
        stage (on by default).
    timer:
        Clock used for stage timing (injectable for tests).
    """

    def __init__(
        self,
        capacity: int,
        pdef: int,
        *,
        config: SelectionConfig | None = None,
        backend: "ExecutionBackend | str" = "fused",
        jobs: int | None = None,
        priority: PatternPriority | str = PatternPriority.F2,
        priority_fn: "PriorityFn | None" = None,
        collect_metrics: bool = True,
        timer: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.backend: ExecutionBackend = get_backend(backend, jobs=jobs)
        self.capacity = capacity
        self.pdef = pdef
        self.selector = PatternSelector(
            capacity, config=config, priority_fn=priority_fn
        )
        self.priority = PatternPriority.coerce(priority)
        self.collect_metrics = collect_metrics
        self.timer = timer

    @property
    def config(self) -> SelectionConfig:
        """The selection configuration in effect."""
        return self.selector.config

    # ------------------------------------------------------------------ #
    def _timed(self, stage: str, timings: dict[str, float], fn: Callable[[], Any]):
        t0 = self.timer()
        out = fn()
        timings[stage] = self.timer() - t0
        return out

    def run(
        self, dfg: "DFG", *, catalog: "PatternCatalog | None" = None
    ) -> PipelineResult:
        """Execute all stages on ``dfg`` and return the full result.

        ``catalog`` short-circuits the pattern-generation stage (reused
        across ``pdef`` sweeps, exactly like
        :meth:`~repro.core.selection.PatternSelector.select`); the
        ``catalog`` timing entry is then absent.
        """
        timings: dict[str, float] = {}
        backend = self.backend
        if catalog is None:
            catalog = self._timed(
                "catalog",
                timings,
                lambda: self.selector.build_catalog(dfg, backend=backend),
            )
        selection = self._timed(
            "selection",
            timings,
            lambda: self.selector.select(
                dfg, self.pdef, catalog=catalog, backend=backend
            ),
        )
        scheduler = MultiPatternScheduler(selection.library, priority=self.priority)
        schedule = self._timed(
            "schedule",
            timings,
            lambda: scheduler.schedule(dfg, backend=backend),
        )
        metrics: dict[str, Any] = {}
        if self.collect_metrics:
            metrics = self._timed(
                "metrics", timings, lambda: schedule_stats(schedule)
            )
        return PipelineResult(
            dfg=dfg,
            catalog=catalog,
            selection=selection,
            schedule=schedule,
            metrics=metrics,
            timings=timings,
            backend=backend.name,
        )
