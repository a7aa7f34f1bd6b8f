"""Key distributions used by the YCSB workloads.

Implements the standard YCSB generators: uniform, zipfian (Gray et al.'s
rejection-free method with theta = 0.99), scrambled zipfian (hash-spread hot
keys) and "latest" (zipfian over recency, for workload D).  ``permute64``
is the bijective mixer used to turn ordered insert counters into the
collision-free unordered keys of a *hash load* (§6.2).

Every generator also splits ``sample()`` into ``draw``, the one serial
``random.Random`` call a sample consumes, and a numpy ``transform`` of a
chunk of draws into items (the zipfian power transform, the scramble).
``transform([draw() for _ in range(k)])`` equals ``k`` scalar ``sample()``
calls; the YCSB op blocks interleave the draws with their own.
``permute64_many`` is the chunked mixer for key generation.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Sequence, Union

import numpy as np

from repro.common.errors import ConfigError
from repro.common.hashing import splitmix64, splitmix64_array, splitmix64_many

#: Bijective 64-bit mixer: unique, unordered keys for hash loads (§6.2).
permute64 = splitmix64

#: Chunked mixer: ``permute64_many(range(i, j)) == [permute64(x) for x in ...]``.
permute64_many = splitmix64_many


class UniformChooser:
    """Uniform item chooser over [0, n)."""

    def __init__(self, n: int, rng: random.Random) -> None:
        if n <= 0:
            raise ConfigError("n must be > 0")
        self.n = n
        self.rng = rng
        self.draw = partial(rng.randrange, n)

    def sample(self) -> int:
        return self.rng.randrange(self.n)

    def transform(self, draws: Sequence[float]) -> np.ndarray:
        return np.asarray(draws, dtype=np.int64)


class ZipfianGenerator:
    """YCSB's ZipfianGenerator: ranks 0 (hottest) .. n-1, theta = 0.99."""

    def __init__(self, n: int, rng: random.Random, theta: float = 0.99) -> None:
        if n <= 0:
            raise ConfigError("n must be > 0")
        if not (0.0 < theta < 1.0):
            raise ConfigError("theta must be in (0, 1)")
        self.n = n
        self.rng = rng
        self.draw = rng.random
        self.theta = theta
        self.zeta_n = self._zeta(n, theta)
        self.zeta2 = self._zeta(2, theta)
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = ((1.0 - (2.0 / n) ** (1.0 - theta))
                    / (1.0 - self.zeta2 / self.zeta_n))

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return float(np.sum(np.arange(1, n + 1, dtype=np.float64) ** -theta))

    def sample(self) -> int:
        u = self.rng.random()
        uz = u * self.zeta_n
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * ((self.eta * u - self.eta + 1.0) ** self.alpha))

    def transform(self, draws: Sequence[float]) -> np.ndarray:
        """Ranks of ``draws``, bit for bit the scalar path's (tests assert it)."""
        us = np.asarray(draws, dtype=np.float64)
        uz = us * self.zeta_n
        ranks = (self.n * ((self.eta * us - self.eta + 1.0) ** self.alpha)
                 ).astype(np.int64)
        ranks[uz < 1.0 + 0.5 ** self.theta] = 1
        ranks[uz < 1.0] = 0
        return ranks


class ScrambledZipfian:
    """Zipfian popularity spread over the item space by hashing (YCSB)."""

    def __init__(self, n: int, rng: random.Random, theta: float = 0.99) -> None:
        self.n = n
        self._zipf = ZipfianGenerator(n, rng, theta)
        self.draw = self._zipf.draw

    def sample(self) -> int:
        return permute64(self._zipf.sample()) % self.n

    def transform(self, draws: Sequence[float]) -> np.ndarray:
        ranks = self._zipf.transform(draws).astype(np.uint64)
        return splitmix64_array(ranks) % np.uint64(self.n)


class LatestChooser:
    """YCSB "latest" distribution: recent inserts are hottest (workload D).

    ``max_item`` must be advanced as the workload inserts new records.
    """

    def __init__(self, n: int, rng: random.Random, theta: float = 0.99) -> None:
        self.max_item = n
        self.rng = rng
        self.theta = theta
        self._zipf = ZipfianGenerator(n, rng, theta)
        self.draw = self._zipf.draw

    def advance(self) -> None:
        self.max_item += 1

    def sample(self) -> int:
        rank = self._zipf.sample() % self.max_item
        return self.max_item - 1 - rank

    def transform(self, draws: Sequence[float],
                  max_item: Union[int, np.ndarray]) -> np.ndarray:
        """Items of ``draws``, each at its own ``max_item`` (or one for all)."""
        return max_item - 1 - self._zipf.transform(draws) % max_item
