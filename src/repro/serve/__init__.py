"""repro.serve — the async clustering service.

The serving layer turns the library into a long-running network daemon::

    repro serve --port 8752 --fit-workers 2

Each ``POST /cluster`` request computes its result-cache key on a thread
pool, off the event loop; a hit is answered at once, and concurrent
identical misses share one in-flight fit (a single-flight map keyed like
the cache), so they dedupe and cache-hit exactly like offline batches.
Admission is bounded (HTTP 429 + ``Retry-After`` once ``--max-queue``
requests are in flight), shutdown drains gracefully on SIGTERM, and
``GET /metrics`` / ``GET /healthz`` expose live counters, latency
histograms, and the result cache's hit-rate.  Matrices travel either as
JSON or as the raw binary ``application/x-repro-matrix`` frames of
:mod:`repro.serve.wire`, which the server decodes zero-copy into the
fingerprint.

``repro serve --workers N`` (N >= 2) scales the same contract
horizontally: :mod:`repro.serve.fleet` supervises N single-process
replicas on ephemeral ports behind one consistent-hash router, so clients
still see one endpoint with byte-identical responses.

Programmatic use::

    from repro.serve import ClusteringServer, ServeClient

    with ClusteringServer(port=0).start_in_background() as handle:
        with ServeClient(handle.host, handle.port) as client:
            envelope = client.cluster(matrix, config={"num_clusters": 4})
"""

from repro.serve.client import ServeClient, ServerBusy, ServerError
from repro.serve.fleet import FleetRouter, ReplicaSupervisor, build_fleet
from repro.serve.metrics import LatencyHistogram, ServerMetrics
from repro.serve.httpio import ServerHandle
from repro.serve.server import ClusteringServer
from repro.serve.wire import WIRE_CONTENT_TYPE, WireFormatError

__all__ = [
    "ClusteringServer",
    "FleetRouter",
    "ReplicaSupervisor",
    "build_fleet",
    "ServerHandle",
    "ServeClient",
    "ServerBusy",
    "ServerError",
    "LatencyHistogram",
    "ServerMetrics",
    "WIRE_CONTENT_TYPE",
    "WireFormatError",
]
