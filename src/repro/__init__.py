"""repro — reproduction of *A Pattern Selection Algorithm for Multi-Pattern
Scheduling* (Guo, Hoede, Smit; IPPS 2006).

The library implements, from scratch:

* the data-flow-graph substrate with ASAP/ALAP/Height analysis and bounded
  antichain enumeration (:mod:`repro.dfg`),
* the pattern abstraction (:mod:`repro.patterns`),
* the multi-pattern list scheduling algorithm of the paper's §4
  (:mod:`repro.scheduling`),
* the paper's contribution — the pattern selection algorithm of §5
  (:mod:`repro.core`),
* the fast pattern-generation kernels — the seed-partitioned build over
  the vectorized bitset classifier (:mod:`repro.exec`) — pinned bit for
  bit against sequential reference loops,
* a job-oriented scheduling service with content-addressed caching and a
  stdlib HTTP front-end (:mod:`repro.service`),
* a lightweight Montium tile model and 4-phase compiler pipeline
  (:mod:`repro.montium`),
* the evaluation workloads (3DFT/5DFT, FFTs, DSP kernels)
  (:mod:`repro.workloads`),
* experiment harnesses regenerating every table and figure
  (:mod:`repro.analysis`).

Quickstart
----------
>>> from repro import select_patterns, schedule_dfg, three_point_dft_paper
>>> dfg = three_point_dft_paper()
>>> library = select_patterns(dfg, pdef=4, capacity=5)
>>> schedule = schedule_dfg(dfg, library)
>>> schedule.length <= 8
True
"""

from repro._version import __version__
from repro.core import (
    PatternSelector,
    SelectionConfig,
    SelectionResult,
    select_patterns,
)
from repro.dfg import DFG, LevelAnalysis
from repro.patterns import Pattern, PatternLibrary, random_pattern_set
from repro.scheduling import (
    MultiPatternScheduler,
    Schedule,
    schedule_dfg,
    verify_schedule,
)
from repro.workloads import (
    five_point_dft,
    small_example,
    three_point_dft_paper,
)

__all__ = [
    "__version__",
    "DFG",
    "LevelAnalysis",
    "Pattern",
    "PatternLibrary",
    "random_pattern_set",
    "MultiPatternScheduler",
    "Schedule",
    "schedule_dfg",
    "verify_schedule",
    "PatternSelector",
    "SelectionConfig",
    "SelectionResult",
    "select_patterns",
    "three_point_dft_paper",
    "five_point_dft",
    "small_example",
]

#: Service-layer names re-exported lazily: the HTTP front-end drags in
#: ``http.server``/``urllib``, which plain library users (and every CLI
#: command that is not ``serve``/``submit``) should not pay to import.
_SERVICE_EXPORTS = (
    "JobRequest",
    "JobResult",
    "SchedulerService",
    "ServiceClient",
)
__all__ += list(_SERVICE_EXPORTS)


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        from repro import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
