"""Deterministic named random-number streams.

Every stochastic component in the simulator draws from its own named
substream derived from one master seed.  This keeps experiments
reproducible and lets components be added or removed without perturbing
the random sequences seen by unrelated components.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RandomStreams:
    """A factory of independent, deterministically-seeded RNG streams.

    Example:
        >>> streams = RandomStreams(seed=42)
        >>> a = streams.get("loss")
        >>> b = streams.get("delay")
        >>> a is streams.get("loss")
        True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            # Hash the name into the seed sequence so streams are stable
            # regardless of creation order; crc32 is stable across runs,
            # unlike the built-in hash() of strings.
            child = np.random.SeedSequence(
                entropy=self.seed,
                spawn_key=(zlib.crc32(name.encode("utf-8")),),
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def fork(self, salt: int) -> "RandomStreams":
        """Derive an independent family of streams (e.g. per trial)."""
        return RandomStreams(seed=self.seed * 1_000_003 + int(salt))

    def __repr__(self) -> str:
        return f"RandomStreams(seed={self.seed}, open={len(self._streams)})"

