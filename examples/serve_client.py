"""Talk to the clustering service from Python.

Starts an in-process server on an ephemeral port (so the example is
self-contained — against a real deployment you would only keep the client
half), then walks the service's API: health check, a clustering request,
a config override, a repeated request that hits the result cache, and the
live metrics.

Run with::

    PYTHONPATH=src python examples/serve_client.py

Against an already-running daemon (``python -m repro serve --port 8752``)
drop the server block and point ``ServeClient`` at its host/port.
"""

import numpy as np

from repro.api import ClusteringConfig
from repro.datasets.synthetic import make_time_series_dataset
from repro.serve import ClusteringServer, ServeClient


def main() -> None:
    dataset = make_time_series_dataset(
        num_objects=60, length=48, num_classes=3, noise=1.0, seed=11
    )

    server = ClusteringServer(
        port=0,  # ephemeral; a deployment would pin one
        default_config=ClusteringConfig(cache=True, prefix=10),
        max_queue_depth=256,
        fit_workers=2,
    )
    with server.start_in_background() as handle:
        with ServeClient(handle.host, handle.port) as client:
            print("healthz:", client.healthz())

            # One clustering request: the matrix plus a (partial) config
            # payload overlaid onto the server's defaults.
            envelope = client.cluster(dataset.data, config={"num_clusters": 3})
            result = envelope["result"]
            labels = np.asarray(result["labels"])
            print(
                f"served {result['method']} fit: {result['num_clusters']} clusters, "
                f"sizes {np.bincount(labels).tolist()}, "
                f"batch_size={envelope['serving']['batch_size']}, "
                f"fit_seconds={envelope['serving']['fit_seconds']:.3f}"
            )

            # Any registered method works; the request config names it.
            hac = client.cluster(
                dataset.data, config={"method": "hac-average", "num_clusters": 3}
            )
            print("hac-average clusters:", hac["result"]["num_clusters"])

            # An identical repeat request is served from the result cache.
            repeat = client.cluster(dataset.data, config={"num_clusters": 3})
            assert repeat["result"]["labels"] == result["labels"]

            # The same request over the binary wire transport: the matrix
            # travels as a raw application/x-repro-matrix frame (no JSON
            # float lists), lands on the same cache entry, and the decoded
            # envelope is identical to the JSON route's.
            binary = client.cluster(dataset.data, config={"num_clusters": 3}, binary=True)
            assert binary["result"] == result
            print("binary transport returned the identical result payload")
            metrics = client.metrics()
            print(
                "after a repeat request — cache hit rate:",
                f"{metrics['cache']['hit_rate']:.0%},",
                "requests:", metrics["requests_total"],
            )
            print(
                "latency p50/p95 (ms):",
                metrics["latency"]["request"]["p50_ms"],
                "/",
                metrics["latency"]["request"]["p95_ms"],
            )
    print("server drained cleanly")


if __name__ == "__main__":
    main()
