"""Seeded draws for the sampled checks.

The draws come from the standard library's Mersenne Twister, `random.Random`.
numpy already imports `random`, so a seeded stream costs no import, while
numpy's own generators would load the whole `numpy.random` package for the
few hundred draws a run makes.
"""

from __future__ import annotations

import random

import numpy as np


class SeededRng:
    """The two draws of `numpy.random.Generator` that the suites make."""

    def __init__(self, seed: int) -> None:
        self._random = random.Random(seed)

    def integers(self, low: int, high: int) -> int:
        """A uniform integer in the half-open range [low, high)."""
        return self._random.randrange(low, high)

    def normal(self, size: int | tuple[int, ...] | None = None):
        """A standard normal float, or a float64 array of them shaped `size`."""
        gauss = self._random.gauss
        if size is None:
            return gauss(0.0, 1.0)
        count = int(np.prod(size))
        draws = (gauss(0.0, 1.0) for _ in range(count))
        return np.fromiter(draws, np.float64, count).reshape(size)
