"""Job-oriented request/result types — the service's public wire format.

A :class:`JobRequest` names a scheduling problem: a workload (by registry
name or as an inline DFG) plus ``capacity``/``pdef``/``config``/
``priority``/``backend``.  An :class:`EditRequest` is a base job plus a
sequence of :class:`~repro.dfg.edit.DfgEdit` mutations — the service
applies the edits and runs the derived job incrementally
(:meth:`~repro.service.SchedulerService.submit_edit`).  A
:class:`JobResult` carries everything one submit produced — the schedule
trace, full selection diagnostics, metrics and per-stage timings — and
all three round-trip losslessly through ``to_json``/``from_json`` (the
service's HTTP layer is a thin pipe around exactly these strings).

Validation is eager and typed: malformed payloads raise
:class:`~repro.exceptions.JobValidationError` naming the offending field,
so callers (and the HTTP 400 path) never see bare ``KeyError``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.config import SelectionConfig
from repro.core.selection import SelectionResult
from repro.dfg.edit import DfgEdit
from repro.dfg.graph import DFG
from repro.dfg.io import canonical_json, dfg_digest, from_payload, to_payload
from repro.exceptions import GraphError, JobValidationError
from repro.scheduling.pattern_priority import PatternPriority
from repro.scheduling.schedule import Schedule
from repro.service.serialize import (
    config_from_dict,
    config_to_dict,
    schedule_from_dict,
    schedule_to_dict,
    selection_result_from_dict,
    selection_result_to_dict,
)

__all__ = ["EditRequest", "JobRequest", "JobResult", "results_json"]

_REQUEST_FIELDS = {
    "workload",
    "dfg",
    "capacity",
    "pdef",
    "config",
    "priority",
    "backend",
}


@dataclass(frozen=True)
class JobRequest:
    """One scheduling problem submitted to the service.

    Exactly one of ``workload`` (a registry name, see
    :data:`repro.workloads.WORKLOADS`) and ``dfg`` (an inline graph) names
    the input.  ``backend`` optionally overrides the service's resident
    backend for this job — results are backend-independent by the
    bit-identity contract, so the cache key ignores it.

    Attributes
    ----------
    capacity:
        The architecture's ALU count ``C``.
    pdef:
        Pattern budget for selection.
    workload:
        Built-in workload name (mutually exclusive with ``dfg``).
    dfg:
        Inline graph (mutually exclusive with ``workload``).
    config:
        Selection tunables (paper constants by default).
    priority:
        Scheduler pattern priority, ``"f2"`` (default) or ``"f1"``.
    backend:
        Optional backend-name override for this job only.
    """

    capacity: int
    pdef: int
    workload: str | None = None
    dfg: DFG | None = None
    config: SelectionConfig = field(default_factory=SelectionConfig)
    priority: str = "f2"
    backend: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.capacity, int) or self.capacity < 1:
            raise JobValidationError(
                f"capacity must be an int ≥ 1, got {self.capacity!r}",
                field="capacity",
            )
        if not isinstance(self.pdef, int) or self.pdef < 1:
            raise JobValidationError(
                f"pdef must be an int ≥ 1, got {self.pdef!r}", field="pdef"
            )
        if (self.workload is None) == (self.dfg is None):
            raise JobValidationError(
                "exactly one of 'workload' and 'dfg' must be given",
                field="workload",
            )
        if self.workload is not None and not isinstance(self.workload, str):
            raise JobValidationError(
                f"workload must be a string name, got {self.workload!r}",
                field="workload",
            )
        if self.dfg is not None and not isinstance(self.dfg, DFG):
            raise JobValidationError(
                f"dfg must be a DFG, got {type(self.dfg).__name__}",
                field="dfg",
            )
        if not isinstance(self.config, SelectionConfig):
            raise JobValidationError(
                f"config must be a SelectionConfig, "
                f"got {type(self.config).__name__}",
                field="config",
            )
        try:
            object.__setattr__(
                self, "priority", PatternPriority.coerce(self.priority).value
            )
        except Exception:
            raise JobValidationError(
                f"priority must be 'f1' or 'f2', got {self.priority!r}",
                field="priority",
            ) from None
        if self.backend is not None and not isinstance(self.backend, str):
            raise JobValidationError(
                f"backend must be a registered backend name, "
                f"got {self.backend!r}",
                field="backend",
            )

    # ------------------------------------------------------------------ #
    def catalog_key(self, digest: str) -> tuple:
        """The service's catalog-cache key for this request's graph digest.

        Only the knobs that determine pattern *generation* participate:
        the graph content, the capacity and the enumeration-config fields.
        ``pdef``/``priority`` deliberately do not — a ``pdef`` sweep must
        share one catalog.  The shard coordinator primes a completion
        service's catalog cache under exactly this key, which is also
        what the disk-backed :class:`~repro.service.store.DiskCacheStore`
        derives its file names from.
        """
        config = self.config
        return (
            digest,
            self.capacity,
            config.span_limit,
            config.max_pattern_size,
            config.max_antichains,
            config.adaptive_span,
            config.store_antichains,
        )

    def selection_key(self, digest: str) -> tuple:
        """The service's selection-cache key (catalog key + pdef + config)."""
        return (self.catalog_key(digest), self.pdef, self.config)

    # ------------------------------------------------------------------ #
    def job_key(self, digest: str | None = None) -> str:
        """Content-addressed identity of this job's *answer*.

        SHA-256 over the graph digest and every answer-determining knob
        (``capacity``, ``pdef``, ``config``, ``priority``) — deliberately
        **not** the backend, which by contract cannot change the answer,
        and not the ``workload`` *name* either (the digest already is the
        graph's identity).  Consequence, shared with the backend
        exclusion: a result-cache hit returns the stored
        :class:`JobResult` verbatim, so its descriptive echo fields
        (``workload``, ``backend``, ``timings``) describe the submit that
        *computed* it — e.g. an inline-DFG submit can be answered by a
        result recorded under the equivalent workload name.  The
        answer-bearing fields are identical by construction.
        ``digest`` lets the service pass a precomputed graph digest (e.g.
        of a workload resolved by name); inline graphs hash themselves.
        """
        if digest is None:
            if self.dfg is not None:
                digest = dfg_digest(self.dfg)
            else:
                raise JobValidationError(
                    "a workload-by-name request needs its graph digest "
                    "resolved by the service",
                    field="workload",
                )
        key = json.dumps(
            {
                "dfg": digest,
                "capacity": self.capacity,
                "pdef": self.pdef,
                "config": config_to_dict(self.config),
                "priority": self.priority,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(key.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict form (inline graphs via :func:`~repro.dfg.io.to_payload`)."""
        out: dict[str, Any] = {
            "capacity": self.capacity,
            "pdef": self.pdef,
            "config": config_to_dict(self.config),
            "priority": self.priority,
        }
        if self.workload is not None:
            out["workload"] = self.workload
        if self.dfg is not None:
            out["dfg"] = to_payload(self.dfg)
        if self.backend is not None:
            out["backend"] = self.backend
        return out

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Any) -> "JobRequest":
        """Inverse of :meth:`to_dict`; unknown fields are rejected."""
        if not isinstance(payload, dict):
            raise JobValidationError(
                f"malformed job request: expected an object, "
                f"got {type(payload).__name__}"
            )
        unknown = set(payload) - _REQUEST_FIELDS
        if unknown:
            raise JobValidationError(
                f"unknown job request field(s) {sorted(unknown)}",
                field=sorted(unknown)[0],
            )
        for req in ("capacity", "pdef"):
            if req not in payload:
                raise JobValidationError(
                    f"job request is missing {req!r}", field=req
                )
        dfg = None
        if "dfg" in payload:
            if not isinstance(payload["dfg"], dict):
                raise JobValidationError(
                    "inline 'dfg' must be a DFG JSON object", field="dfg"
                )
            try:
                dfg = from_payload(payload["dfg"])
            except Exception as exc:
                raise JobValidationError(
                    f"invalid inline DFG: {exc}", field="dfg"
                ) from exc
        config = SelectionConfig()
        if "config" in payload:
            config = config_from_dict(payload["config"])
        return cls(
            capacity=payload["capacity"],
            pdef=payload["pdef"],
            workload=payload.get("workload"),
            dfg=dfg,
            config=config,
            priority=payload.get("priority", "f2"),
            backend=payload.get("backend"),
        )

    @classmethod
    def from_json(cls, text: str) -> "JobRequest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise JobValidationError(
                f"invalid job request JSON: {exc}"
            ) from exc
        return cls.from_dict(payload)


_EDIT_REQUEST_FIELDS = {"job", "edits"}


@dataclass(frozen=True)
class EditRequest:
    """A base job plus graph edits to apply before running it.

    The wire form of the service's incremental edit path
    (``POST /v1/jobs:edit``): ``job`` names the *base* graph (workload
    name or inline DFG) and its scheduling knobs; ``edits`` is the
    ordered :class:`~repro.dfg.edit.DfgEdit` sequence to apply.  The
    service derives an ordinary :class:`JobRequest` for the edited graph
    (:meth:`~repro.service.SchedulerService.resolve_edit`), so the answer
    is keyed by — and bit-identical to a cold submit of — the edited
    graph's content.
    """

    job: JobRequest
    edits: tuple[DfgEdit, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.job, JobRequest):
            raise JobValidationError(
                f"job must be a JobRequest, got {type(self.job).__name__}",
                field="job",
            )
        try:
            edits = tuple(self.edits)
        except TypeError:
            raise JobValidationError(
                f"edits must be a sequence of DfgEdit, "
                f"got {type(self.edits).__name__}",
                field="edits",
            ) from None
        object.__setattr__(self, "edits", edits)
        if not edits:
            raise JobValidationError(
                "an edit request needs at least one edit", field="edits"
            )
        for edit in edits:
            if not isinstance(edit, DfgEdit):
                raise JobValidationError(
                    f"edits must be DfgEdit instances, "
                    f"got {type(edit).__name__}",
                    field="edits",
                )

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "job": self.job.to_dict(),
            "edits": [edit.to_dict() for edit in self.edits],
        }

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Any) -> "EditRequest":
        """Inverse of :meth:`to_dict`; unknown fields are rejected."""
        if not isinstance(payload, dict):
            raise JobValidationError(
                f"malformed edit request: expected an object, "
                f"got {type(payload).__name__}"
            )
        unknown = set(payload) - _EDIT_REQUEST_FIELDS
        if unknown:
            raise JobValidationError(
                f"unknown edit request field(s) {sorted(unknown)}",
                field=sorted(unknown)[0],
            )
        for req in ("job", "edits"):
            if req not in payload:
                raise JobValidationError(
                    f"edit request is missing {req!r}", field=req
                )
        if not isinstance(payload["edits"], list):
            raise JobValidationError(
                "edit request 'edits' must be a list", field="edits"
            )
        try:
            edits = tuple(
                DfgEdit.from_dict(item) for item in payload["edits"]
            )
        except GraphError as exc:
            raise JobValidationError(
                f"invalid edit: {exc}", field="edits"
            ) from exc
        return cls(job=JobRequest.from_dict(payload["job"]), edits=edits)

    @classmethod
    def from_json(cls, text: str) -> "EditRequest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise JobValidationError(
                f"invalid edit request JSON: {exc}"
            ) from exc
        return cls.from_dict(payload)


@dataclass(frozen=True)
class JobResult:
    """Everything one service submit produced.

    Attributes
    ----------
    job_key:
        Content-addressed job identity (see :meth:`JobRequest.job_key`).
    dfg_digest:
        Canonical digest of the scheduled graph.
    workload:
        Workload name when the request used one (``None`` for inline DFGs).
    capacity / pdef / priority:
        Echo of the answer-determining request knobs.
    dfg:
        The scheduled graph (serialised once; schedule and selection
        reference it).
    schedule:
        The full multi-pattern schedule trace.
    selection:
        Full selection diagnostics including the catalog.
    metrics:
        :func:`~repro.analysis.metrics.schedule_stats` output.
    timings:
        Per-stage wall-clock seconds for the stages actually *computed* by
        the submit that built this result — stages served from a service
        cache are absent, so cache hits show up directly in the timings.
    backend:
        Name of the backend that executed the computed stages.
    """

    job_key: str
    dfg_digest: str
    workload: str | None
    capacity: int
    pdef: int
    priority: str
    dfg: DFG
    schedule: Schedule
    selection: SelectionResult
    metrics: dict[str, Any]
    timings: dict[str, float]
    backend: str

    @property
    def length(self) -> int:
        """Schedule length in clock cycles."""
        return self.schedule.length

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_key": self.job_key,
            "dfg_digest": self.dfg_digest,
            "workload": self.workload,
            "capacity": self.capacity,
            "pdef": self.pdef,
            "priority": self.priority,
            "dfg": to_payload(self.dfg),
            "schedule": schedule_to_dict(self.schedule),
            "selection": selection_result_to_dict(self.selection),
            "metrics": dict(self.metrics),
            "timings": dict(self.timings),
            "backend": self.backend,
        }

    def to_json(self, *, indent: int | None = None) -> str:
        """``json.dumps(self.to_dict(), indent=indent)``.

        The compact form (``indent=None``) is what the service writes for
        every submit, so it is encoded once per result and memoised on the
        instance, outside the dataclass fields: a result-cache hit then
        costs a socket write, not a re-serialisation.
        """
        if indent is not None:
            return json.dumps(self.to_dict(), indent=indent)
        text = self.__dict__.get("_json")
        if text is None:
            text = json.dumps(self.to_dict())
            object.__setattr__(self, "_json", text)
        return text

    @property
    def encoded(self) -> str | None:
        """The memoised compact :meth:`to_json`, ``None`` until first encoded."""
        return self.__dict__.get("_json")

    def answer_dict(self) -> dict[str, Any]:
        """:meth:`to_dict` minus the per-submit echo fields.

        ``timings`` and ``backend`` describe the submit that *computed* a
        result, not its answer — two bit-identical answers computed on
        different runs (or backends) differ in exactly these fields.  Cross-run bit-identity checks (the
        edit-path benchmark, smoke and property tests) therefore compare
        this form.
        """
        out = self.to_dict()
        del out["timings"]
        del out["backend"]
        return out

    @classmethod
    def from_dict(cls, payload: Any) -> "JobResult":
        if not isinstance(payload, dict):
            raise JobValidationError(
                f"malformed job result: expected an object, "
                f"got {type(payload).__name__}"
            )
        try:
            try:
                dfg = from_payload(payload["dfg"])
            except GraphError as exc:
                raise JobValidationError(
                    f"invalid result DFG: {exc}", field="dfg"
                ) from exc
            metrics = dict(payload["metrics"])
            # JSON objects key by string; pattern_usage keys are pattern
            # indices — restore them to ints for losslessness.
            if isinstance(metrics.get("pattern_usage"), dict):
                metrics["pattern_usage"] = {
                    int(k): v for k, v in metrics["pattern_usage"].items()
                }
            return cls(
                job_key=payload["job_key"],
                dfg_digest=payload["dfg_digest"],
                workload=payload.get("workload"),
                capacity=payload["capacity"],
                pdef=payload["pdef"],
                priority=payload["priority"],
                dfg=dfg,
                schedule=schedule_from_dict(payload["schedule"], dfg),
                selection=selection_result_from_dict(
                    payload["selection"], dfg
                ),
                metrics=metrics,
                timings={
                    str(k): float(v) for k, v in payload["timings"].items()
                },
                backend=payload["backend"],
            )
        except JobValidationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise JobValidationError(
                f"malformed job result payload: {exc!r}"
            ) from exc

    @classmethod
    def from_json(cls, text: str) -> "JobResult":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise JobValidationError(f"invalid job result JSON: {exc}") from exc
        return cls.from_dict(payload)

    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        # Nested Schedule/SelectionResult compare graphs by identity;
        # result equality means equal *content*, so compare the dict forms
        # (this is also exactly the bit-identity the service cache promises).
        if not isinstance(other, JobResult):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def canonical_graph_json(self) -> str:
        """Canonical form of the scheduled graph (content addressing)."""
        return canonical_json(self.dfg)


def results_json(results: "list[JobResult]") -> str:
    """The batch body ``{"results": [...]}`` built from memoised encodings.

    Byte-identical to ``json.dumps({"results": [r.to_dict() for r in
    results]})`` (default separators), without re-encoding any result.
    """
    return '{"results": [' + ", ".join(r.to_json() for r in results) + "]}"
