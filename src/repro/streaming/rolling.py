"""Rolling-window buffer for the streaming workload.

The streaming workload slides a correlation window across a return stream
and rebuilds the filtered graph per tick.  :class:`RollingCorrelation` is a
plain ring buffer over the last ``window`` observations; each tick's
similarity matrix is :func:`repro.datasets.similarity.correlation_matrix`
of the buffered window, computed from scratch (one ``(n, w) @ (w, n)``
matmul per tick), so every tick is byte-identical to a batch fit of its
window.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.similarity import correlation_matrix


class RollingCorrelation:
    """Windowed Pearson correlation over a ring buffer of observations.

    Observations (one value per asset) are pushed in time order with
    :meth:`push`; once ``window`` observations have been seen, every push
    evicts the oldest column.  :meth:`correlation` emits the Pearson matrix
    of the current window at any point where the window holds at least two
    observations.
    """

    def __init__(self, num_assets: int, window: int) -> None:
        if num_assets < 1:
            raise ValueError("num_assets must be at least 1")
        if window < 2:
            raise ValueError("window must hold at least 2 observations")
        self._window = window
        self._num_assets = num_assets
        self._buffer = np.zeros((num_assets, window), dtype=float)
        self._position = 0
        self._filled = 0
        self._total_pushed = 0

    # -- properties --------------------------------------------------------

    @property
    def num_assets(self) -> int:
        return self._num_assets

    @property
    def window(self) -> int:
        return self._window

    @property
    def num_observations(self) -> int:
        """Observations currently in the window (at most ``window``)."""
        return self._filled

    @property
    def total_pushed(self) -> int:
        """Observations pushed over the buffer's lifetime."""
        return self._total_pushed

    @property
    def ready(self) -> bool:
        """Whether the window is full."""
        return self._filled == self._window

    # -- updates -----------------------------------------------------------

    def push(self, observations: np.ndarray) -> None:
        """Append one or more observations (``(num_assets,)`` or ``(num_assets, k)``).

        Each column is one time step; columns are applied oldest-first.  Once
        the window is full, every appended column evicts the current oldest.
        """
        block = np.asarray(observations, dtype=float)
        if block.ndim == 1:
            block = block[:, None]
        if block.ndim != 2 or block.shape[0] != self._num_assets:
            raise ValueError(
                f"expected observations shaped ({self._num_assets},) or "
                f"({self._num_assets}, k), got {np.asarray(observations).shape}"
            )
        if not np.all(np.isfinite(block)):
            raise ValueError("observations must be finite")
        for column in block.T:
            self._buffer[:, self._position] = column
            self._position = (self._position + 1) % self._window
            self._filled = min(self._filled + 1, self._window)
            self._total_pushed += 1

    # -- queries -----------------------------------------------------------

    def window_data(self) -> np.ndarray:
        """The current window's observations, oldest column first."""
        if self._filled < self._window:
            return self._buffer[:, : self._filled].copy()
        return np.roll(self._buffer, -self._position, axis=1)

    def correlation(self) -> np.ndarray:
        """Pearson correlation matrix of the current window.

        Exactly ``correlation_matrix(self.window_data())``: rows with zero
        windowed variance are reported as uncorrelated with everything
        (correlation 0) instead of producing NaNs.  Requires at least two
        buffered observations.
        """
        if self._filled < 2:
            raise ValueError(
                f"correlation needs at least 2 observations in the window, have {self._filled}"
            )
        return correlation_matrix(self.window_data())
