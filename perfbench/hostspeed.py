"""Host speed, probed between measurements, and times rescaled to it.

On a shared host the CPU throughput a run gets can swing by 2x for tens
of seconds at a time, which moves every CPU-bound time by as much.  The
benchmark therefore times a fixed pure-Python loop (the *probe*, which
shares no code with the program) right before and after each stretch it
measures, and reports busy time at the reference speed::

    time_at_reference = busy_time * REFERENCE_PROBE_MS / probe_ms

where ``probe_ms`` is the mean of the two probes around the stretch.
Time spent waiting on a timer (a server's batching deadline) does not
depend on host speed and is never rescaled.  The raw times and every
probe go to the run's report file.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

#: What the probe takes on an unloaded reference host; times reported
#: "at reference speed" are in this host's ms.
REFERENCE_PROBE_MS = 10.0

_LOOP = 100_000


def probe_ms(repeats: int = 3) -> float:
    """Median time of a fixed interpreter-bound loop."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(_LOOP):
            total += value * value % 7
        samples.append(time.perf_counter() - started)
    return 1000.0 * statistics.median(samples)


class Probes:
    """Probes taken between consecutive measured stretches: stretch ``i``
    lies between probe ``i`` and probe ``i + 1``."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def take(self) -> None:
        self.samples.append(probe_ms())

    def scale(self, stretch: int) -> float:
        """Reference speed over this host's speed during ``stretch``."""
        around = self.samples[stretch:stretch + 2]
        return REFERENCE_PROBE_MS / statistics.mean(around)

    def rescale(self, seconds: Sequence[float]) -> List[float]:
        """``seconds[i]``, measured in stretch ``i``, at reference speed."""
        return [value * self.scale(i) for i, value in enumerate(seconds)]
