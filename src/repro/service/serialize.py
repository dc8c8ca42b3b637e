"""Lossless JSON-dict (de)serialisation of result objects.

The service's wire format: every function here maps a domain object to a
plain JSON-safe dict and back, round-tripping *losslessly* — pattern bags,
Counter insertion order (Eq. 8 sums floats in that order), float priority
values (Python's ``json`` emits ``repr``-exact floats) and the full
per-cycle schedule trace all survive.  :class:`~repro.scheduling.schedule.Schedule`
and :class:`~repro.core.selection.SelectionResult` both reference the
scheduled :class:`~repro.dfg.graph.DFG`; their dict forms deliberately do
**not** embed it — the enclosing job payload serialises the graph once and
hands it back at reconstruction time.

Malformed payloads raise
:class:`~repro.exceptions.JobValidationError` (a typed
:class:`~repro.exceptions.ReproError`), never bare ``KeyError``/
``TypeError``.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.config import SelectionConfig
from repro.core.selection import SelectionResult, SelectionRound
from repro.exceptions import JobValidationError, ReproError
from repro.patterns.enumeration import PatternCatalog
from repro.patterns.library import PatternLibrary
from repro.patterns.pattern import Pattern
from repro.scheduling.schedule import CycleRecord, Schedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfg.graph import DFG

__all__ = [
    "config_to_dict",
    "config_from_dict",
    "pattern_to_list",
    "pattern_from_list",
    "library_to_dict",
    "library_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "selection_result_to_dict",
    "selection_result_from_dict",
    "catalog_to_dict",
    "catalog_from_dict",
]

#: The :class:`SelectionConfig` fields, in declaration order.
_CONFIG_FIELDS = (
    "epsilon",
    "alpha",
    "span_limit",
    "max_antichains",
    "store_antichains",
    "max_pattern_size",
    "adaptive_span",
    "widen_to_capacity",
)


def _expect(payload: Any, kind: str) -> dict:
    if not isinstance(payload, dict):
        raise JobValidationError(
            f"malformed {kind} payload: expected an object, "
            f"got {type(payload).__name__}"
        )
    return payload


def _get(payload: Mapping[str, Any], key: str, kind: str) -> Any:
    try:
        return payload[key]
    except KeyError:
        raise JobValidationError(
            f"malformed {kind} payload: missing {key!r}", field=key
        ) from None


# --------------------------------------------------------------------------- #
# SelectionConfig
# --------------------------------------------------------------------------- #
def config_to_dict(config: SelectionConfig) -> dict[str, Any]:
    """All :class:`SelectionConfig` fields as a JSON-safe dict."""
    return {f: getattr(config, f) for f in _CONFIG_FIELDS}


def config_from_dict(payload: Any) -> SelectionConfig:
    """Inverse of :func:`config_to_dict`; unknown keys are rejected."""
    payload = _expect(payload, "config")
    unknown = set(payload) - set(_CONFIG_FIELDS)
    if unknown:
        raise JobValidationError(
            f"unknown config field(s) {sorted(unknown)}; "
            f"expected a subset of {list(_CONFIG_FIELDS)}",
            field="config",
        )
    try:
        return SelectionConfig(**payload)
    except (ReproError, TypeError) as exc:
        raise JobValidationError(
            f"invalid config: {exc}", field="config"
        ) from exc


# --------------------------------------------------------------------------- #
# Pattern / PatternLibrary
# --------------------------------------------------------------------------- #
def pattern_to_list(pattern: Pattern) -> list[str]:
    """The canonical sorted color list — the bag identity, JSON-safe."""
    return list(pattern.key)


def pattern_from_list(payload: Any) -> Pattern:
    """Inverse of :func:`pattern_to_list`.

    Valid bags are interned: a result carries ~100 pattern bags but only
    ~20 distinct ones, so each distinct color list is validated once and
    its (immutable) :class:`Pattern` reused.  Failures are not cached, so
    every occurrence of a malformed bag raises.
    """
    if isinstance(payload, list):
        try:
            return _interned_pattern(tuple(payload))
        except TypeError:  # an unhashable color
            pass
    raise _malformed_pattern(payload)


@functools.lru_cache(maxsize=4096)
def _interned_pattern(colors: tuple[Any, ...]) -> Pattern:
    if not all(isinstance(c, str) for c in colors):
        raise _malformed_pattern(list(colors))
    try:
        return Pattern(colors)
    except ReproError as exc:
        raise JobValidationError(f"invalid pattern: {exc}") from exc


def _malformed_pattern(payload: Any) -> JobValidationError:
    return JobValidationError(
        f"malformed pattern payload: expected a list of colors, got {payload!r}"
    )


def library_to_dict(library: PatternLibrary) -> dict[str, Any]:
    """Library as ordered pattern bags plus capacity/budget."""
    return {
        "patterns": [pattern_to_list(p) for p in library],
        "capacity": library.capacity,
        "budget": library.budget,
    }


def library_from_dict(payload: Any) -> PatternLibrary:
    """Inverse of :func:`library_to_dict`.

    Duplicates are permitted on the way back in (Table-3 style libraries
    contain them legitimately), keeping the round-trip lossless.
    """
    payload = _expect(payload, "library")
    try:
        return PatternLibrary(
            [pattern_from_list(p) for p in _get(payload, "patterns", "library")],
            _get(payload, "capacity", "library"),
            budget=payload.get("budget", 32),
            allow_duplicates=True,
        )
    except ReproError as exc:
        raise JobValidationError(f"invalid library: {exc}") from exc


# --------------------------------------------------------------------------- #
# Schedule
# --------------------------------------------------------------------------- #
def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """Full per-cycle trace + assignment (graph serialised by the caller)."""
    return {
        "library": library_to_dict(schedule.library),
        "cycles": [
            {
                "cycle": rec.cycle,
                "candidates": list(rec.candidates),
                "selections": [list(sel) for sel in rec.selections],
                "priorities": list(rec.priorities),
                "chosen": rec.chosen,
                "scheduled": list(rec.scheduled),
            }
            for rec in schedule.cycles
        ],
        "assignment": dict(schedule.assignment),
    }


def schedule_from_dict(payload: Any, dfg: "DFG") -> Schedule:
    """Inverse of :func:`schedule_to_dict` against a reconstructed graph."""
    payload = _expect(payload, "schedule")
    try:
        cycles = tuple(
            [
                CycleRecord(
                    cycle=rec["cycle"],
                    candidates=tuple(rec["candidates"]),
                    selections=tuple(map(tuple, rec["selections"])),
                    priorities=tuple(rec["priorities"]),
                    chosen=rec["chosen"],
                    scheduled=tuple(rec["scheduled"]),
                )
                for rec in _get(payload, "cycles", "schedule")
            ]
        )
        return Schedule(
            dfg=dfg,
            library=library_from_dict(_get(payload, "library", "schedule")),
            cycles=cycles,
            assignment=dict(_get(payload, "assignment", "schedule")),
        )
    except (KeyError, TypeError) as exc:
        raise JobValidationError(
            f"malformed schedule payload: {exc!r}"
        ) from exc


# --------------------------------------------------------------------------- #
# PatternCatalog / SelectionResult
# --------------------------------------------------------------------------- #
def catalog_to_dict(catalog: PatternCatalog) -> dict[str, Any]:
    """Catalog with per-pattern node frequencies in Counter insertion order."""
    out: dict[str, Any] = {
        "capacity": catalog.capacity,
        "span_limit": catalog.span_limit,
        # One row per pattern, frequency dicts in insertion order (JSON
        # objects preserve it end to end in python).
        "frequencies": [
            [pattern_to_list(p), dict(counter)]
            for p, counter in catalog.frequencies.items()
        ],
        "antichain_counts": [
            [pattern_to_list(p), count]
            for p, count in catalog.antichain_counts.items()
        ],
    }
    if catalog.antichains:
        out["antichains"] = [
            [pattern_to_list(p), [list(a) for a in chains]]
            for p, chains in catalog.antichains.items()
        ]
    return out


def catalog_from_dict(payload: Any, dfg: "DFG") -> PatternCatalog:
    """Inverse of :func:`catalog_to_dict` against a reconstructed graph."""
    payload = _expect(payload, "catalog")
    try:
        frequencies = {
            pattern_from_list(p): Counter(
                {str(n): int(k) for n, k in counter.items()}
            )
            for p, counter in _get(payload, "frequencies", "catalog")
        }
        antichain_counts = {
            pattern_from_list(p): count
            for p, count in _get(payload, "antichain_counts", "catalog")
        }
        antichains = {
            pattern_from_list(p): [tuple(a) for a in chains]
            for p, chains in payload.get("antichains", [])
        }
        return PatternCatalog(
            dfg=dfg,
            capacity=_get(payload, "capacity", "catalog"),
            span_limit=_get(payload, "span_limit", "catalog"),
            frequencies=frequencies,
            antichain_counts=antichain_counts,
            antichains=antichains,
        )
    except (AttributeError, TypeError, ValueError) as exc:
        raise JobValidationError(
            f"malformed catalog payload: {exc!r}"
        ) from exc


def selection_result_to_dict(result: SelectionResult) -> dict[str, Any]:
    """Library + per-round diagnostics + catalog + config."""
    return {
        "library": library_to_dict(result.library),
        "rounds": [
            {
                "index": rnd.index,
                # Insertion-ordered pairs: Pattern keys are lists, which
                # JSON objects cannot key.
                "priorities": [
                    [pattern_to_list(p), v] for p, v in rnd.priorities.items()
                ],
                "chosen": pattern_to_list(rnd.chosen),
                "fallback": rnd.fallback,
                "deleted": [pattern_to_list(p) for p in rnd.deleted],
            }
            for rnd in result.rounds
        ],
        "catalog": catalog_to_dict(result.catalog),
        "config": config_to_dict(result.config),
    }


def selection_result_from_dict(payload: Any, dfg: "DFG") -> SelectionResult:
    """Inverse of :func:`selection_result_to_dict`."""
    payload = _expect(payload, "selection")
    try:
        rounds = tuple(
            SelectionRound(
                index=rnd["index"],
                priorities={
                    pattern_from_list(p): v for p, v in rnd["priorities"]
                },
                chosen=pattern_from_list(rnd["chosen"]),
                fallback=rnd["fallback"],
                deleted=tuple(
                    pattern_from_list(p) for p in rnd["deleted"]
                ),
            )
            for rnd in _get(payload, "rounds", "selection")
        )
    except (KeyError, TypeError) as exc:
        raise JobValidationError(
            f"malformed selection payload: {exc!r}"
        ) from exc
    return SelectionResult(
        library=library_from_dict(_get(payload, "library", "selection")),
        rounds=rounds,
        catalog=catalog_from_dict(_get(payload, "catalog", "selection"), dfg),
        config=config_from_dict(_get(payload, "config", "selection")),
    )
