"""Execution backends: interchangeable strategies for the compute stages.

::

    from repro.exec import get_backend

    backend = get_backend("process", jobs=4)   # or "serial" / "fused"
    catalog = backend.classify(dfg, capacity=5, span_limit=1)

Four backends ship built in, all bit-identical in output:

``serial``
    The straightforward reference loops — the
    equivalence oracle, and the only backend supporting stored antichains
    and custom selection priorities natively.
``fused``
    Single-threaded allocation-free fast paths; the default everywhere.
``bitset``
    Vectorized single-threaded pattern generation: batched numpy
    kernels over packed ``uint64``
    incomparability rows, with an optional compiled expansion extension;
    selection and scheduling inherit the fused paths.  Falls back to the
    fused classifier when numpy is unavailable.
``process``
    Seed-partitioned multiprocess pattern generation over
    ``multiprocessing`` workers, merging per-pattern int frequency arrays elementwise; selection and
    scheduling inherit the fused paths.

Downstream projects may :func:`register_backend` their own.
"""

from repro.exec.backend import ExecutionBackend
from repro.exec.bitset import BitsetBackend
from repro.exec.fused import FusedBackend
from repro.exec.process import ProcessBackend
from repro.exec.registry import available_backends, get_backend, register_backend
from repro.exec.serial import SerialBackend

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "FusedBackend",
    "BitsetBackend",
    "ProcessBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]

register_backend("serial", SerialBackend)
register_backend("fused", FusedBackend)
register_backend("bitset", BitsetBackend)
register_backend("process", ProcessBackend)
