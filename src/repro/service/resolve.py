"""One parameter-resolution seam for "what runs this job, and where".

Three components used to inline the same precedence chain —
:meth:`SchedulerService._backend_for`, :meth:`Pipeline.run` and
:meth:`ShardCoordinator._decision_for` each re-derived how an explicit
``backend``, a per-request ``policy``, a host-wide default policy and
the resident backend interact.  :func:`resolve_execution` is that chain,
written once::

    request.backend  >  request.policy  >  host.policy  >  host.backend

* an explicit ``request.backend`` wins outright — no policy runs;
* otherwise the first policy in line (``request.policy``, then
  ``host.policy``) decides from the graph's
  :class:`~repro.policy.WorkloadSignature` and the host's profile store;
* a decision without a backend — and no policy at all — falls through to
  the host's resident backend.

The *host* is duck-typed: anything with ``backend`` (an
:class:`~repro.exec.ExecutionBackend` or ``None``), ``policy`` (default
policy name or ``None``), ``profiles`` (a
:class:`~repro.policy.ProfileStore` or ``None``) and
``execution_overrides`` (a ``name → backend`` cache the host owns and
closes) — :class:`~repro.service.SchedulerService`,
:class:`~repro.pipeline.Pipeline` and
:class:`~repro.service.shard.ShardCoordinator` all qualify.

The returned :class:`ExecutionResolution` carries the backend to run on,
the *concrete* policy label to file profile observations under (``auto``
resolves to its selected candidate; a bare backend maps to its
``fixed-*`` twin when one exists) and the raw
:class:`~repro.policy.PolicyDecision` when a policy was consulted — the
shard coordinator reads its fan-out knobs (partition multiplier, claim
batch, skew awareness) from exactly that decision.

Resolution is pure strategy: by the bit-identity contract nothing this
module picks can change output bits, which is also why none of it enters
any cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.policy.registry import get_policy, policy_for_backend
from repro.policy.signature import WorkloadSignature

if TYPE_CHECKING:  # pragma: no cover
    from repro.dfg.graph import DFG
    from repro.exec import ExecutionBackend
    from repro.policy.registry import PolicyDecision

__all__ = ["ExecutionResolution", "resolve_execution"]


@dataclass(frozen=True)
class ExecutionResolution:
    """What :func:`resolve_execution` decided for one job.

    Attributes
    ----------
    backend:
        The backend the job runs on (``None`` only with
        ``materialize=False``, for callers that consume the decision's
        knobs without executing locally — the shard coordinator).
    policy_label:
        Concrete policy name to file profile observations under, or
        ``None`` when neither a policy nor a ``fixed-*`` twin applies.
    decision:
        The :class:`~repro.policy.PolicyDecision` when a policy was
        consulted (request's or host's); ``None`` when an explicit
        request backend short-circuited it or no policy is in play.
    """

    backend: "ExecutionBackend | None"
    policy_label: str | None
    decision: "PolicyDecision | None"


def resolve_execution(
    request: Any,
    host: Any,
    dfg: "DFG",
    *,
    materialize: bool = True,
) -> ExecutionResolution:
    """Resolve the execution strategy for one job (see module docs).

    ``request`` is anything with optional ``backend``/``policy`` string
    attributes (a :class:`~repro.service.jobs.JobRequest`) or ``None``
    for host-level resolution.  With ``materialize=False`` no backend
    instance is created or cached — the resolution's ``backend`` is
    ``None`` and only the label/decision are meaningful.
    """
    name = getattr(request, "backend", None) if request is not None else None
    decision: "PolicyDecision | None" = None
    if name is None:
        policy_name = (
            getattr(request, "policy", None) if request is not None else None
        )
        if policy_name is None:
            policy_name = host.policy
        if policy_name is not None:
            decision = get_policy(policy_name).decide(
                WorkloadSignature.of(dfg), host.profiles
            )
            name = decision.backend
    if decision is not None:
        label = decision.policy
    else:
        resident = host.backend
        label = policy_for_backend(
            name
            if name is not None
            else (resident.name if resident is not None else "")
        )
    if not materialize:
        return ExecutionResolution(None, label, decision)
    resident = host.backend
    if name is None or (resident is not None and name == resident.name):
        return ExecutionResolution(resident, label, decision)
    overrides = host.execution_overrides
    backend = overrides.get(name)
    if backend is None:
        from repro.exec import get_backend

        backend = get_backend(name)
        overrides[name] = backend
    return ExecutionResolution(backend, label, decision)
