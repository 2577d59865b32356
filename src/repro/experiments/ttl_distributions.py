"""The paper's TTL distributions (fig. 5 caption).

Sessions in the allocation simulations draw their TTL from one of::

    ds1 {1,15,31,47,63,127,191}
    ds2 {1,1,15,15,31,47,63,127,191}
    ds3 {1,1,1,1,15,15,15,15,31,47,63,127,191}
    ds4 {1,1,1,1,1,1,1,1,15,15,15,15,15,15,31,31,47,47,63,63,127,191}

"Although these TTL distributions are not based on realistic data,
they help illustrate the way that local scoping of sessions helps
scaling" — ds1 is scope-uniform, ds4 strongly favours local sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class TtlDistribution:
    """A named empirical TTL distribution."""

    name: str
    values: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("distribution must be non-empty")
        if any(not 1 <= v <= 255 for v in self.values):
            raise ValueError(f"TTLs outside [1, 255] in {self.values}")

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one TTL uniformly from the values.

        One ``integers(0, len(values))`` draw: the index, and the
        generator state after it, that ``rng.choice`` makes on the
        values as a 1-D array (``tests/test_allocation_kernels.py``
        pins the two together).
        """
        return self.values[int(rng.integers(0, len(self.values)))]


DS1 = TtlDistribution("ds1", (1, 15, 31, 47, 63, 127, 191))
DS2 = TtlDistribution("ds2", (1, 1, 15, 15, 31, 47, 63, 127, 191))
DS3 = TtlDistribution(
    "ds3", (1, 1, 1, 1, 15, 15, 15, 15, 31, 47, 63, 127, 191)
)
DS4 = TtlDistribution(
    "ds4",
    (1, 1, 1, 1, 1, 1, 1, 1, 15, 15, 15, 15, 15, 15,
     31, 31, 47, 47, 63, 63, 127, 191),
)

ALL_DISTRIBUTIONS = (DS1, DS2, DS3, DS4)


def distribution_by_name(name: str) -> TtlDistribution:
    """The registered distribution called ``name`` (``ds1``..``ds4``).

    Sharded sweeps carry distributions as JSON-safe names; this is the
    lookup worker processes use to rebuild them.

    Raises:
        ValueError: for an unknown distribution name.
    """
    for distribution in ALL_DISTRIBUTIONS:
        if distribution.name == name:
            return distribution
    known = ", ".join(d.name for d in ALL_DISTRIBUTIONS)
    raise ValueError(f"unknown TTL distribution {name!r}; "
                     f"choose from {known}")
