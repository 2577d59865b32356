"""Suppression delay distributions for the request-response protocol.

"A member that receives a request delays its response by a value
chosen randomly from the uniform interval [D1:D2], and cancels its
response if it sees another receiver respond within this delay period"
(§3).  §3.1 replaces the uniform interval with an exponential one —
the key result behind figs. 18 and 19.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.analysis.response_bounds import exponential_delay_sample


class ResponseDelayTimer(abc.ABC):
    """Samples the random delay before sending a suppressed response."""

    def __init__(self, d1: float, d2: float,
                 rng: np.random.Generator) -> None:
        if d1 < 0 or d2 < d1:
            raise ValueError(f"need 0 <= D1 <= D2, got {d1}, {d2}")
        self.d1 = d1
        self.d2 = d2
        self.rng = rng

    @abc.abstractmethod
    def sample(self) -> float:
        """One random delay in [D1, D2]."""


class UniformDelayTimer(ResponseDelayTimer):
    """Uniform random delay over [D1, D2]."""

    def sample(self) -> float:
        return float(self.rng.uniform(self.d1, self.d2))


class ExponentialDelayTimer(ResponseDelayTimer):
    """Exponential random delay (paper §3.1).

    ``D = D1 + r * log2(x * (2^d - 1) + 1)`` with ``d = (D2 - D1)/r``;
    ``r`` approximates the maximum RTT.  "In practice, a dependence on
    an accurate estimate of RTT is unnecessary" — any ballpark works.
    """

    def __init__(self, d1: float, d2: float, rtt: float = 0.2,
                 *, rng: np.random.Generator) -> None:
        super().__init__(d1, d2, rng)
        if rtt <= 0:
            raise ValueError(f"rtt must be positive: {rtt}")
        self.rtt = rtt

    def sample(self) -> float:
        x = float(self.rng.random())
        return exponential_delay_sample(x, self.d1, self.d2, self.rtt)
