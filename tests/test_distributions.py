"""Workload key distributions."""

import random

import pytest

from repro.common.errors import ConfigError
from repro.workloads.distributions import (
    LatestChooser,
    ScrambledZipfian,
    UniformChooser,
    ZipfianGenerator,
    permute64,
)


def zipfian_pmf_head(n: int, theta: float, k: int) -> float:
    """Probability mass of the k hottest ranks."""
    zeta_n = ZipfianGenerator._zeta(n, theta)
    return sum(1.0 / (i ** theta) for i in range(1, k + 1)) / zeta_n


def test_permute64_no_collisions_in_large_range():
    seen = {permute64(i) for i in range(100_000)}
    assert len(seen) == 100_000


def test_permute64_spreads_ordered_inputs():
    outs = [permute64(i) for i in range(1000)]
    assert outs != sorted(outs)  # hash load is unordered (§6.2)


def test_uniform_chooser_covers_space():
    rng = random.Random(1)
    c = UniformChooser(10, rng)
    samples = {c.sample() for _ in range(2000)}
    assert samples == set(range(10))
    with pytest.raises(ConfigError):
        UniformChooser(0, rng)


def test_zipfian_validation():
    rng = random.Random(2)
    with pytest.raises(ConfigError):
        ZipfianGenerator(0, rng)
    with pytest.raises(ConfigError):
        ZipfianGenerator(10, rng, theta=1.5)


def test_zipfian_rank_zero_is_hottest():
    rng = random.Random(3)
    z = ZipfianGenerator(1000, rng)
    counts = [0] * 1000
    for _ in range(20000):
        counts[min(z.sample(), 999)] += 1
    assert counts[0] == max(counts)
    # Head mass close to theory (YCSB theta=0.99).
    head = sum(counts[:10]) / 20000
    theory = zipfian_pmf_head(1000, 0.99, 10)
    assert head == pytest.approx(theory, rel=0.25)


def test_zipfian_samples_in_range():
    rng = random.Random(4)
    z = ZipfianGenerator(50, rng)
    assert all(0 <= z.sample() < 51 for _ in range(5000))


def test_scrambled_zipfian_spreads_hot_keys():
    rng = random.Random(5)
    s = ScrambledZipfian(1000, rng)
    samples = [s.sample() for _ in range(20000)]
    assert all(0 <= x < 1000 for x in samples)
    from collections import Counter
    top = Counter(samples).most_common(3)
    # hottest item no longer rank 0: scrambling moved it
    assert top[0][1] > 20000 / 1000  # still skewed
    assert len(set(samples)) > 300   # but spread across the space


def test_latest_chooser_prefers_recent():
    rng = random.Random(6)
    c = LatestChooser(1000, rng)
    samples = [c.sample() for _ in range(5000)]
    assert all(0 <= s < 1000 for s in samples)
    recent = sum(1 for s in samples if s >= 900)
    assert recent > 0.5 * len(samples)  # strongly recency-biased


def test_latest_chooser_advance_extends_range():
    rng = random.Random(7)
    c = LatestChooser(10, rng)
    for _ in range(5):
        c.advance()
    assert c.max_item == 15
    samples = {c.sample() for _ in range(3000)}
    assert max(samples) >= 10  # new items reachable


# ---------------------------------------------- chunked == scalar, same RNG
def _chunk(chooser, k, *extra):
    """``k`` serial draws, one transform: what a YCSB op block does."""
    draw = chooser.draw
    return chooser.transform([draw() for _ in range(k)], *extra).tolist()


def test_uniform_sample_many_matches_scalar():
    a = UniformChooser(1000, random.Random(11))
    b = UniformChooser(1000, random.Random(11))
    assert _chunk(a, 5000) == [b.sample() for _ in range(5000)]


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("n", [3, 100, 100_000])
def test_zipfian_sample_many_matches_scalar(seed, n):
    # The vectorized power transform must match the scalar IEEE-double path
    # bit for bit, including the rank-0 / rank-1 special cases.
    a = ZipfianGenerator(n, random.Random(seed))
    b = ZipfianGenerator(n, random.Random(seed))
    assert _chunk(a, 4000) == [b.sample() for _ in range(4000)]


def test_scrambled_sample_many_matches_scalar():
    a = ScrambledZipfian(1000, random.Random(9))
    b = ScrambledZipfian(1000, random.Random(9))
    assert _chunk(a, 4000) == [b.sample() for _ in range(4000)]


def test_latest_sample_many_matches_scalar():
    # One max_item for the whole chunk: no advances between the draws.
    a = LatestChooser(1000, random.Random(4))
    b = LatestChooser(1000, random.Random(4))
    for _ in range(17):
        a.advance()
        b.advance()
    assert _chunk(a, 4000, a.max_item) == [b.sample() for _ in range(4000)]


def test_permute64_many_matches_scalar():
    from repro.workloads.distributions import permute64_many
    items = [random.Random(2).randrange(2**63) for _ in range(100)]
    assert permute64_many(items) == [permute64(x) for x in items]
    assert permute64_many(range(10_000)) == [permute64(x) for x in range(10_000)]
