"""Seeded benchmark inputs: the paper's Fig-10 stock-market use case.

Every matrix is ``detrended_log_returns`` of a synthetic market from
``generate_stock_market`` (one row per stock, one column per trading day
of one year), with the planted ICB sectors kept beside it so clustering
quality can be scored.  The program under test only ever receives the
matrices; the workload seed picks the markets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.datasets.similarity import detrended_log_returns
from repro.datasets.stocks import generate_stock_market

#: One trading year of prices gives 252 daily returns.
TRADING_DAYS = 253

#: The ICB industry count; every served and fitted cut uses it.
SECTORS = 11


@dataclass(frozen=True)
class Market:
    """One input matrix and the sectors planted in it."""

    returns: np.ndarray
    sectors: np.ndarray


def market(num_stocks: int, seed: int) -> Market:
    generated = generate_stock_market(num_stocks, TRADING_DAYS, seed=seed)
    returns = np.ascontiguousarray(detrended_log_returns(generated.prices))
    return Market(returns=returns, sectors=generated.sectors)


class InputStream:
    """Distinct markets drawn from one workload seed.

    Separate purposes (the fitted set, the hot set, the fresh misses) take
    consecutive draws from one generator, so the same seed always yields
    the same inputs in the same roles.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)

    def markets(self, count: int, num_stocks: int) -> List[Market]:
        seeds = self._rng.integers(0, 2**31 - 1, size=count)
        return [market(num_stocks, int(seed)) for seed in seeds]
