"""Deterministic named random-number streams.

Every stochastic model component draws from its own named stream so
that adding a new source of randomness does not perturb existing ones —
the standard trick for reproducible parallel/discrete-event simulation.
Streams are derived from a master seed via ``numpy.random.SeedSequence``
spawning keyed by the stream name, so ``RngRegistry(7).stream("net")``
is identical across runs and across machines.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RngRegistry:
    """Factory and cache of named ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            # Mix the stream name into the seed material deterministically.
            name_key = zlib.crc32(name.encode("utf-8"))
            sequence = np.random.SeedSequence(entropy=self.seed, spawn_key=(name_key,))
            generator = np.random.default_rng(sequence)
            self._streams[name] = generator
        return generator

    def exponential(self, name: str, mean: float) -> float:
        """One exponential draw with the given mean from stream ``name``."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return float(self.stream(name).exponential(mean))

    def uniform(self, name: str, low: float, high: float) -> float:
        """One uniform draw on ``[low, high)`` from stream ``name``."""
        return float(self.stream(name).uniform(low, high))

    def integers(self, name: str, low: int, high: int) -> int:
        """One integer draw on ``[low, high)`` from stream ``name``."""
        return int(self.stream(name).integers(low, high))

    def choice(self, name: str, items):
        """Choose one element of ``items`` uniformly."""
        seq = list(items)
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.integers(name, 0, len(seq))]
