"""Execution backends: interchangeable strategies for the compute stages.

::

    from repro.exec import get_backend

    backend = get_backend("fused")   # or "serial"
    catalog = backend.classify(dfg, capacity=5, span_limit=1)

Two backends ship built in, bit-identical in output:

``serial``
    The straightforward reference loops — the equivalence oracle, and
    the only backend supporting stored antichains and custom selection
    priorities natively.
``fused``
    The fast paths; the default everywhere.  Pattern generation is the
    seed-partitioned build of :mod:`repro.exec.process` over the
    vectorized bitset kernel (:mod:`repro.exec.bitset`, with an optional
    compiled expansion extension; the scalar in-DFS classifier when
    numpy is unavailable); selection and scheduling run the incremental
    and integer hot loops.

Downstream projects may :func:`register_backend` their own.
"""

from repro.exec.backend import ExecutionBackend
from repro.exec.fused import FusedBackend
from repro.exec.registry import available_backends, get_backend, register_backend
from repro.exec.serial import SerialBackend

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "FusedBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]

register_backend("serial", SerialBackend)
register_backend("fused", FusedBackend)
