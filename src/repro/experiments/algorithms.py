"""The allocator registry: algorithm name -> factory.

One place binds the paper's algorithm names (fig. 5's R / IPR curves,
figs. 12/13's AIPR variants) to constructors.  The CLI uses it for
``--algorithms`` choices and the ``--jobs`` cells use it to rebuild an
allocator inside a worker process from its name, so parallel sweeps
and the serial CLI can never disagree about what "ipr7" means.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.core.adaptive import AdaptiveIprmaAllocator
from repro.core.allocator import Allocator
from repro.core.hybrid import HybridIprmaAllocator
from repro.core.informed import InformedRandomAllocator
from repro.core.iprma import StaticIprmaAllocator
from repro.core.random_alloc import RandomAllocator

AllocatorFactory = Callable[[int, np.random.Generator], Allocator]

ALGORITHM_FACTORIES: Dict[str, AllocatorFactory] = {
    "random": lambda n, rng: RandomAllocator(n, rng),
    "informed": lambda n, rng: InformedRandomAllocator(n, rng),
    "ipr3": lambda n, rng: StaticIprmaAllocator.three_band(n, rng),
    "ipr7": lambda n, rng: StaticIprmaAllocator.seven_band(n, rng),
    "aipr1": lambda n, rng: AdaptiveIprmaAllocator.aipr1(n, rng=rng),
    "aipr2": lambda n, rng: AdaptiveIprmaAllocator.aipr2(n, rng=rng),
    "aipr3": lambda n, rng: AdaptiveIprmaAllocator.aipr3(n, rng=rng),
    "aipr4": lambda n, rng: AdaptiveIprmaAllocator.aipr4(n, rng=rng),
    "aiprh": lambda n, rng: HybridIprmaAllocator(n, rng=rng),
}


def algorithm_factory(name: str) -> AllocatorFactory:
    """The factory registered under ``name``.

    Raises:
        ValueError: for an unknown algorithm name.
    """
    try:
        return ALGORITHM_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from "
            f"{', '.join(sorted(ALGORITHM_FACTORIES))}"
        ) from None
