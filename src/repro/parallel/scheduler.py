"""Job-level execution backends for :func:`repro.api.batch.cluster_many`.

A fit runs serially; the paper's per-source parallelism inside a fit is
modelled by the work-span cost model (:mod:`repro.parallel.cost_model`).
What does run in parallel is a batch of independent fits, which
``cluster_many`` fans out over a ``ParallelBackend``:

* serially, in the calling thread (the default);
* over a thread pool, which overlaps fits whose numpy work releases the
  GIL; or
* over a process pool, which sidesteps the GIL entirely (input matrices
  travel through shared memory, :mod:`repro.parallel.shm`).

Backends are constructed by name with :func:`make_backend`; whoever
constructs one closes it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class ParallelBackend:
    """Interface for executing independent tasks.

    Subclasses implement :meth:`map`.  ``num_workers`` reports the pool
    size (1 for the serial backend).
    """

    num_workers: int = 1

    def map(self, func: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``func`` to every item and return the results in order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources held by the backend."""


class SerialBackend(ParallelBackend):
    """Run everything in the calling thread (deterministic order)."""

    num_workers = 1

    def map(self, func: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return [func(item) for item in items]


class _ExecutorBackend(ParallelBackend):
    """Shared pool management for the executor-based backends."""

    _executor_cls: type

    def __init__(self, num_workers: Optional[int] = None) -> None:
        if num_workers is None:
            num_workers = os.cpu_count() or 1
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.num_workers = num_workers
        self._pool = self._executor_cls(max_workers=num_workers)

    def map(self, func: Callable[[T], R], items: Iterable[T]) -> List[R]:
        # Generators and other unsized iterables are materialized first:
        # the short-path below needs len(), and a half-consumed generator
        # must not be handed to the pool.
        if not hasattr(items, "__len__"):
            items = list(items)
        if len(items) <= 1:
            return [func(item) for item in items]
        return list(self._pool.map(func, items))

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class ThreadBackend(_ExecutorBackend):
    """Run tasks on a shared :class:`~concurrent.futures.ThreadPoolExecutor`.

    Tasks must be thread-safe; ``cluster_many`` only submits independent
    fits.
    """

    _executor_cls = ThreadPoolExecutor


class ProcessBackend(_ExecutorBackend):
    """Run tasks on a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Unlike the thread backend this sidesteps the GIL entirely, but both the
    function and its arguments must be picklable: a module-level function
    (or a :func:`functools.partial` of one) over configs and matrices.
    """

    _executor_cls = ProcessPoolExecutor


BACKEND_NAMES = ("serial", "thread", "process")

_BACKEND_FACTORIES = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def make_backend(name: str, num_workers: Optional[int] = None) -> ParallelBackend:
    """Construct a backend from its name (``serial``/``thread``/``process``)."""
    try:
        factory = _BACKEND_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
        ) from None
    if name == "serial":
        return factory()
    return factory(num_workers=num_workers)
