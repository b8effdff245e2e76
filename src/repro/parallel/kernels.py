"""Kernel registry: one switch between ``python`` and ``numpy`` hot loops.

The APSP hot path has two interchangeable implementations with identical
results, registered under the ``"apsp"`` kind: a per-source array-heap
Dijkstra (``python``) and the batched frontier relaxation (``numpy``) in
:mod:`repro.graph.shortest_paths`.  (The TMFG gain table has a single
array-native implementation, :mod:`repro.core.gains`, and no kernel kind.)

Rather than threading booleans through every layer, implementations register
themselves here under ``(operation, kernel name)`` and consumers resolve
them by name; :func:`set_default_kernel` flips every consumer at once, which
is how the experiment harness, the CLI (``--kernel``), and the benchmark
suite select an implementation.  Kernels are addressed by *name* (a string)
rather than by function object so that the choice survives pickling into
process-pool workers, which re-resolve the kernel from their own registry.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

PYTHON = "python"
NUMPY = "numpy"
KERNEL_NAMES = (PYTHON, NUMPY)

_REGISTRY: Dict[Tuple[str, str], Callable] = {}
_DEFAULT_KERNEL: str = NUMPY


def register_kernel(operation: str, name: str, func: Callable) -> Callable:
    """Register ``func`` as the ``name`` implementation of ``operation``."""
    _REGISTRY[(operation, name)] = func
    return func


def available_kernels(operation: str) -> List[str]:
    """Names of the registered implementations of ``operation``."""
    return sorted(name for (op, name) in _REGISTRY if op == operation)


def get_kernel(operation: str, name: Optional[str] = None) -> Callable:
    """Resolve an implementation of ``operation``.

    ``name=None`` uses the process-wide default (see
    :func:`set_default_kernel`); an unknown combination raises ``KeyError``
    listing what is available.
    """
    resolved = name if name is not None else _DEFAULT_KERNEL
    try:
        return _REGISTRY[(operation, resolved)]
    except KeyError:
        raise KeyError(
            f"no {resolved!r} kernel registered for {operation!r}; "
            f"available: {available_kernels(operation)}"
        ) from None


def default_kernel() -> str:
    """The process-wide default kernel name."""
    return _DEFAULT_KERNEL


def _registered_names() -> set:
    return {name for (_, name) in _REGISTRY}


def set_default_kernel(name: str) -> None:
    """Select the default implementation (``"python"``, ``"numpy"``, or any
    registered custom kernel name)."""
    valid = set(KERNEL_NAMES) | _registered_names()
    if name not in valid:
        raise ValueError(f"unknown kernel {name!r}; expected one of {sorted(valid)}")
    global _DEFAULT_KERNEL
    _DEFAULT_KERNEL = name


def resolve_kernel_name(name: Optional[str], operation: Optional[str] = None) -> str:
    """``name`` itself, or the default when ``None`` (validates the name).

    With ``operation`` given, the name must be registered for that
    operation, so custom kernels added through :func:`register_kernel`
    resolve the same way the built-ins do.
    """
    if name is None:
        return _DEFAULT_KERNEL
    if operation is not None:
        if (operation, name) not in _REGISTRY:
            raise ValueError(
                f"unknown kernel {name!r} for {operation!r}; "
                f"available: {available_kernels(operation)}"
            )
        return name
    if name not in _registered_names():
        raise ValueError(
            f"unknown kernel {name!r}; registered: {sorted(_registered_names())}"
        )
    return name


@contextmanager
def kernel_scope(name: str) -> Iterator[None]:
    """Temporarily switch the default kernel (used by tests and benchmarks)."""
    previous = _DEFAULT_KERNEL
    set_default_kernel(name)
    try:
        yield
    finally:
        set_default_kernel(previous)
