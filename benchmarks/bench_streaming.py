"""Streaming per-tick timings on a regime-switching stream.

Every tick takes its window from a ring buffer, computes the window's
correlation matrix from scratch and runs the same ``TMFGClusterer`` fit a
batch call makes.  This script records that one path's per-tick wall-clock
and per-phase means at 200 assets (window 250, hop 5, 12 ticks).  It gates
nothing; before timing it checks that every tick's labels equal a batch fit
of that tick's window.

Run standalone to write ``benchmarks/results/streaming.json``::

    PYTHONPATH=src python benchmarks/bench_streaming.py

or under pytest-benchmark like the other ``bench_*`` scripts::

    pytest benchmarks/bench_streaming.py --benchmark-only
"""

import numpy as np
import pytest

from repro.api.config import ClusteringConfig
from repro.api.estimators import TMFGClusterer
from repro.datasets.similarity import correlation_matrix
from repro.datasets.stocks import generate_regime_switching_stream
from repro.streaming.runner import StreamingPipeline

NUM_ASSETS = 200
WINDOW = 250
HOP = 5
NUM_TICKS = 12
NUM_DAYS = WINDOW + HOP * (NUM_TICKS + 1)
NUM_CLUSTERS = 8


def _stream_returns(seed: int = 31) -> np.ndarray:
    stream = generate_regime_switching_stream(
        num_stocks=NUM_ASSETS,
        num_days=NUM_DAYS,
        num_regimes=2,
        regime_length=NUM_DAYS // 2,
        seed=seed,
    )
    return stream.returns


def _run(returns: np.ndarray):
    pipeline = StreamingPipeline(
        returns,
        window=WINDOW,
        hop=HOP,
        num_clusters=NUM_CLUSTERS,
        max_ticks=NUM_TICKS,
    )
    return pipeline.run()


def streaming_report(seed: int = 31) -> dict:
    """Per-tick timings and phase means, after the batch-equivalence check."""
    returns = _stream_returns(seed)
    result = _run(returns)
    assert result.num_ticks == NUM_TICKS
    batch = TMFGClusterer(ClusteringConfig(num_clusters=NUM_CLUSTERS, precomputed=True))
    for tick in result.ticks:
        window = returns[:, tick.start : tick.stop]
        expected = batch.fit(correlation_matrix(window)).labels_
        assert np.array_equal(tick.labels, expected), (
            f"tick {tick.tick} diverges from a batch fit of its window"
        )
    # The first tick fills the whole window; the steady state starts at 1.
    tick_seconds = [tick.seconds for tick in result.ticks[1:]]
    return {
        "assets": NUM_ASSETS,
        "window": WINDOW,
        "hop": HOP,
        "ticks": NUM_TICKS,
        "clusters": NUM_CLUSTERS,
        "ticks_equal_batch_fits": True,
        "tick_seconds": tick_seconds,
        "mean_tick_seconds": float(np.mean(tick_seconds)),
        "mean_step_seconds": result.mean_step_seconds(),
    }


@pytest.fixture(scope="module")
def returns():
    return _stream_returns()


@pytest.mark.benchmark(group="streaming")
def test_streaming(benchmark, returns):
    benchmark.pedantic(lambda: _run(returns), rounds=1, iterations=1)


if __name__ == "__main__":
    import benchlib

    benchlib.write_report("streaming.json", streaming_report())
