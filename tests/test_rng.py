import numpy as np

from seqplace.rng import ALGORITHM_ID, RandomStream

_MASK = (1 << 64) - 1


def _splitmix_oracle(seed: int, count: int) -> list[int]:
    """Pure-integer reimplementation of the documented raw-output contract."""
    out = []
    for k in range(1, count + 1):
        z = (seed + k * 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


def test_algorithm_identifier():
    assert ALGORITHM_ID == "splitmix64-boxmuller-cos"


def test_raw_matches_integer_oracle():
    for seed in (0, 1, 42, 2**63, _MASK):
        got = RandomStream(seed).raw(64)
        assert [int(v) for v in got] == _splitmix_oracle(seed, 64)


def test_raw_stream_is_count_based():
    a = RandomStream(9)
    b = RandomStream(9)
    left = np.concatenate([a.raw(5), a.raw(3)])
    assert np.array_equal(left, b.raw(8))


def test_distinct_seeds_differ():
    assert not np.array_equal(RandomStream(1).raw(16), RandomStream(2).raw(16))


def test_random_unit_interval():
    values = RandomStream(7).random(20000)
    assert values.min() >= 0.0 and values.max() < 1.0
    assert abs(values.mean() - 0.5) < 0.01
    assert float(RandomStream(7).random(1)[0]) == RandomStream(7).random()


def test_uniform_range():
    values = RandomStream(3).uniform(-2.0, 5.0, 5000)
    assert values.min() >= -2.0 and values.max() < 5.0
    assert abs(values.mean() - 1.5) < 0.2


def test_normal_moments_and_consumption():
    values = RandomStream(11).normal(20000)
    assert abs(values.mean()) < 0.03
    assert abs(values.std() - 1.0) < 0.03
    # variate k consumes raw outputs 2k and 2k+1, nothing else
    a = RandomStream(5)
    a.normal(10)
    b = RandomStream(5)
    b.raw(20)
    assert np.array_equal(a.raw(4), b.raw(4))


def test_normal_matches_documented_formula():
    raws = _splitmix_oracle(123, 8)
    expected = []
    for a, b in zip(raws[0::2], raws[1::2]):
        u1 = ((a >> 11) + 1) * 2.0**-53
        u2 = (b >> 11) * 2.0**-53
        expected.append(np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))
    got = RandomStream(123).normal(4)
    assert np.allclose(got, expected, rtol=0, atol=0)


def test_integer_bounds():
    stream = RandomStream(2)
    draws = [stream.integer(7) for _ in range(500)]
    assert min(draws) >= 0 and max(draws) < 7
    assert len(set(draws)) == 7


def test_shuffle_is_seeded_permutation():
    base = np.arange(50)
    first = base.copy()
    RandomStream(8).shuffle(first)
    second = base.copy()
    RandomStream(8).shuffle(second)
    assert np.array_equal(first, second)
    assert sorted(first.tolist()) == base.tolist()
    assert not np.array_equal(first, base)
    other = base.copy()
    RandomStream(9).shuffle(other)
    assert not np.array_equal(first, other)


def test_shuffle_follows_documented_swaps():
    # an independent scalar reading of the contract: for i = m - 1 down to
    # 1, swap elements i and raw[m - 1 - i] mod (i + 1)
    for m in (1, 2, 3, 50, 591):
        raws = _splitmix_oracle(17, m - 1)
        want = list(range(m))
        for i in range(m - 1, 0, -1):
            j = raws[m - 1 - i] % (i + 1)
            want[i], want[j] = want[j], want[i]
        got = np.arange(m)
        stream = RandomStream(17)
        stream.shuffle(got)
        assert got.tolist() == want, m
        # the shuffle consumes exactly m - 1 raw outputs
        assert int(stream.raw(1)[0]) == _splitmix_oracle(17, m)[-1], m
