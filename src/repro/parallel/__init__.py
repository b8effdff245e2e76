"""Parallel runtime substrate.

The paper implements its algorithms in C++ with ParlayLib on a 48-core
shared-memory machine.  Pure Python cannot exploit fine-grained shared-memory
parallelism because of the GIL, so a fit runs serially and this package
provides:

* a work–span cost model (:mod:`repro.parallel.cost_model`) that records the
  work and span of each algorithm phase and predicts the running time on
  ``P`` processors as ``W / P + c * S``, which is how the scalability
  experiments (Fig. 4) are reproduced;
* the priority concurrent writes ``WriteMin``/``WriteMax``/``WriteAdd`` of
  Table I (:mod:`repro.parallel.atomics`);
* job-level backends (:mod:`repro.parallel.scheduler`) and shared-memory
  matrix shipment (:mod:`repro.parallel.shm`) for ``cluster_many``, which
  fans independent fits out over a thread or process pool.
"""

from repro.parallel.atomics import WriteAdd, WriteMax, WriteMin
from repro.parallel.cost_model import PhaseCost, WorkSpanTracker, predicted_speedup
from repro.parallel.scheduler import (
    ParallelBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)

__all__ = [
    "WriteAdd",
    "WriteMax",
    "WriteMin",
    "PhaseCost",
    "WorkSpanTracker",
    "predicted_speedup",
    "ParallelBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "make_backend",
]
