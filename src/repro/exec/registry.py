"""Named backend registry — ``get_backend("fused")``."""

from __future__ import annotations

from typing import Callable

from repro.exceptions import BackendError
from repro.exec.backend import ExecutionBackend

__all__ = [
    "available_backends",
    "get_backend",
    "register_backend",
]

_FACTORIES: dict[str, Callable[[], ExecutionBackend]] = {}


def register_backend(name: str, factory: Callable[[], ExecutionBackend]) -> None:
    """Register a zero-argument backend factory under ``name``.

    Re-registering a name replaces it — deliberate, so tests and
    downstream projects can swap implementations.
    """
    if not name or not isinstance(name, str):
        raise BackendError(f"backend name must be a non-empty string, got {name!r}")
    _FACTORIES[name] = factory


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_FACTORIES))


def get_backend(spec: "ExecutionBackend | str") -> ExecutionBackend:
    """Resolve ``spec`` to an :class:`ExecutionBackend` instance.

    ``spec`` may already be a backend instance (returned as-is) or a
    registered name (``"serial"``, ``"fused"``).

    Raises
    ------
    BackendError
        For an unknown name, listing what is available.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if not isinstance(spec, str):
        raise BackendError(
            f"backend must be an ExecutionBackend or a name, got {type(spec).__name__}"
        )
    factory = _FACTORIES.get(spec)
    if factory is None:
        known = ", ".join(sorted(_FACTORIES))
        raise BackendError(
            f"unknown execution backend {spec!r}; available: {known}"
        )
    return factory()
