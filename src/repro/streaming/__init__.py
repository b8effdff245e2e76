"""Streaming rolling-window clustering.

A fourth layer over ``datasets``/``core``/``parallel``: keep a ring buffer
of the last ``window`` observations of a return stream
(:mod:`repro.streaming.rolling`), compute each tick's correlation matrix
from scratch and run the same ``TMFGClusterer`` fit a batch call would,
then track cluster drift between consecutive ticks
(:mod:`repro.streaming.runner`).  Nothing is carried from one tick's fit to
the next, so every tick is byte-identical to a batch fit of its window.
"""

from repro.streaming.rolling import RollingCorrelation
from repro.streaming.runner import StreamingPipeline, StreamingResult, TickResult

__all__ = [
    "RollingCorrelation",
    "StreamingPipeline",
    "StreamingResult",
    "TickResult",
]
