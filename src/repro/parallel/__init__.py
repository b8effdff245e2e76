"""Models of the paper's shared-memory parallelism.

The paper implements its algorithms in C++ with ParlayLib on a 48-core
shared-memory machine.  Pure Python cannot exploit fine-grained shared-memory
parallelism because of the GIL, so a fit runs serially and this package
models the parallel algorithms instead, with a work–span cost model
(:mod:`repro.parallel.cost_model`): :func:`fit_cost` computes the work and
span of each algorithm phase from a fit's result, and the model predicts
the running time on ``P`` processors as ``W / P + c * S``, which is how the
scalability experiments (Fig. 4) are reproduced.  The priority concurrent writes of Table I
(``WRITE_MIN``/``WRITE_MAX``) are array operations in
:mod:`repro.core.assignment`; their cell form is a test oracle.

Parallelism across requests comes from the server's ``--fit-workers``
threads and the fleet's replica processes, not from this package.
"""

from repro.parallel.cost_model import PhaseCost, WorkSpanTracker, fit_cost, predicted_speedup

__all__ = [
    "PhaseCost",
    "WorkSpanTracker",
    "fit_cost",
    "predicted_speedup",
]
