"""The named random streams draw exactly what numpy would.

``Pcg64Stream`` ports numpy's ``SeedSequence`` -> ``PCG64`` and the
``Generator`` draws the simulator makes, so every golden pinned under
numpy still holds and a run never imports numpy.  numpy is only the
reference here: each case drives a port stream and a numpy generator
from the same entropy and compares every draw with ``==``.

A digest over a fixed script of draws also freezes what each stream
yields, so a change to how a stream is built or drawn from shows here
first.
"""

import hashlib
import math
import pickle

import numpy as np
import pytest

from repro.sim import randomness
from repro.sim.randomness import Pcg64Stream, RandomStreams, _stable_hash
from repro.sim.ziggurat import EXP_R
from repro.topology import rocketfuel_like

ENTROPIES = [
    (0, _stable_hash("pktgen")),
    (7, _stable_hash("churn")),
    (16631, _stable_hash("vm-h0-3")),
    (1 << 40, _stable_hash("fault/0")),      # a two-word seed
    ((1 << 200) + 3, 5),                     # more words than the pool
    (0,),
    (),
]


def pair(entropy):
    """A port stream and its numpy reference, from the same entropy."""
    return (Pcg64Stream(entropy),
            np.random.default_rng(np.random.SeedSequence(list(entropy))))


def draw_script(rng) -> list:
    """One pass over every draw the simulator makes, normalised to
    plain Python values."""
    out: list = []
    for _ in range(40):
        out.append(int(rng.integers(-2800, 2801)))
        out.append(float(rng.random()))
    out.append(int(rng.integers(0, 1 << 32)))
    out.append(int(rng.integers(5, 6)))
    out.append(int(rng.integers(-(1 << 40), 1 << 40)))
    out.extend(float(rng.exponential(1000.0)) for _ in range(50))
    out.extend(int(rng.zipf(1.2)) for _ in range(30))
    out.append([int(x) for x in rng.permutation(22)])
    out.append([int(x) for x in rng.choice(167, size=43, replace=False)])
    out.append(float(rng.random()))
    return out


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def test_stream_draw_sequences_are_pinned():
    values = [draw_script(RandomStreams(seed).stream(name))
              for seed in (0, 7, 16631)
              for name in ("pktgen", "churn", "vm-h0-3")]
    assert digest(values) == "256307ebc074552c"


def test_rocketfuel_topologies_are_pinned():
    links = [sorted((link.a, link.b)
                    for link in rocketfuel_like(seed=seed).links)
             for seed in (0, 1, 16631)]
    assert digest(links) == "264d36132a1f3a53"


@pytest.mark.parametrize("entropy", ENTROPIES)
def test_seeding_matches_numpy(entropy):
    port, ref = pair(entropy)
    assert [port.random() for _ in range(8)] == [ref.random()
                                                 for _ in range(8)]


def test_named_stream_is_seeded_from_seed_and_name():
    port = RandomStreams(9).stream("imix")
    ref = np.random.default_rng(
        np.random.SeedSequence([9, _stable_hash("imix")]))
    assert [port.random() for _ in range(8)] == [ref.random()
                                                 for _ in range(8)]


BOUNDS = [
    (5, 6),                          # a range of one value: no draw
    (0, 1 << 32),                    # span exactly 2**32 - 1
    (-2800, 2801),                   # below 2**32, negative low
    (0, 3 << 30),                    # below 2**32, frequent rejection
    (0, (1 << 32) + 1),              # span 2**32: the 64-bit path
    (-(1 << 40), 1 << 40),           # above 2**32, negative low
    (-(1 << 62), (1 << 62) + 1),     # above 2**32, frequent rejection
    (-(1 << 63), 1 << 63),           # the whole int64 range
]


@pytest.mark.parametrize("entropy", ENTROPIES[:4])
def test_integers_match_numpy_on_every_path(entropy):
    port, ref = pair(entropy)
    for _ in range(300):
        for low, high in BOUNDS:
            assert port.integers(low, high) == ref.integers(low, high)


@pytest.mark.parametrize("entropy", ENTROPIES[:4])
def test_interleaved_integers_and_random_share_the_32_bit_buffer(entropy):
    """A 32-bit draw keeps the other half of its 64-bit output for the
    next one; a ``random()`` in between draws past the kept half."""
    port, ref = pair(entropy)
    for step in range(3000):
        if step % 3 == 2:
            assert port.random() == ref.random()
        else:
            assert port.integers(-7, 1000) == ref.integers(-7, 1000)


def test_exponential_matches_numpy_through_tail_and_wedge(monkeypatch):
    wedge_tests = 0

    class CountingMath:
        """``math`` with each wedge test (an ``exp`` call) counted."""

        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def exp(x):
            nonlocal wedge_tests
            wedge_tests += 1
            return math.exp(x)

    monkeypatch.setattr(randomness, "math", CountingMath())
    tail = 0
    for entropy in ENTROPIES[:4]:
        port, ref = pair(entropy)
        for scale in (1.0, 2.5, 1000.0):
            for _ in range(10_000):
                draw = port.exponential(scale)
                assert draw == ref.exponential(scale)
                tail += draw > EXP_R * scale
    assert tail > 0 and wedge_tests > 0, (tail, wedge_tests)


@pytest.mark.parametrize("a", [1.1, 1.5, 2.0])
def test_zipf_matches_numpy(a):
    for entropy in ENTROPIES[:3]:
        port, ref = pair(entropy)
        for _ in range(2000):
            assert port.zipf(a) == ref.zipf(a)


def test_zipf_with_a_huge_exponent_draws_nothing():
    port, ref = pair(ENTROPIES[0])
    assert port.zipf(2000.0) == ref.zipf(2000.0) == 1
    assert port.random() == ref.random()


@pytest.mark.parametrize("n", [0, 1, 2, 22, 300])
def test_permutation_matches_numpy(n):
    for entropy in ENTROPIES[:4]:
        port, ref = pair(entropy)
        assert port.permutation(n) == ref.permutation(n).tolist()
        assert port.random() == ref.random()


@pytest.mark.parametrize("population, size", [
    (167, 43), (22, 22), (10, 0), (1, 1),
    (20_000, 300),    # a small sample of a large population: Floyd
    (20_000, 500),    # a large one: numpy's partial shuffle of the range
])
def test_choice_without_replacement_matches_numpy(population, size):
    for entropy in ENTROPIES[:3]:
        port, ref = pair(entropy)
        assert (port.choice(population, size=size, replace=False)
                == ref.choice(population, size=size, replace=False).tolist())
        assert port.random() == ref.random()


def test_rocketfuel_seeds_from_the_bare_seed():
    for seed in range(30):
        port = Pcg64Stream((seed,))
        ref = np.random.default_rng(seed)
        assert port.permutation(22) == ref.permutation(22).tolist()
        assert (port.choice(167, size=43, replace=False)
                == ref.choice(167, size=43, replace=False).tolist())


def test_pickle_round_trip_resumes_mid_stream():
    port, ref = pair(ENTROPIES[1])
    # A 32-bit draw leaves half a 64-bit output buffered in the copy.
    assert port.integers(0, 100) == ref.integers(0, 100)
    copy = pickle.loads(pickle.dumps(port))
    for _ in range(50):
        expected = (int(ref.integers(0, 100)), ref.random(),
                    ref.exponential(3.0))
        assert (copy.integers(0, 100), copy.random(),
                copy.exponential(3.0)) == expected
        assert (port.integers(0, 100), port.random(),
                port.exponential(3.0)) == expected


def test_unsupported_arguments_raise():
    stream = Pcg64Stream((1,))
    with pytest.raises(TypeError):
        stream.integers(0, 10, size=3)
    with pytest.raises(TypeError):
        stream.integers(0.5, 10)
    with pytest.raises(ValueError):
        stream.integers(10, 10)
    with pytest.raises(ValueError):
        stream.integers(0, (1 << 63) + 1)
    with pytest.raises(ValueError):
        stream.choice(10, size=3)              # replace=True
    with pytest.raises(ValueError):
        stream.choice(10, size=11, replace=False)
    with pytest.raises(TypeError):
        stream.exponential(1.0, size=3)
    with pytest.raises(ValueError):
        stream.exponential(-1.0)
    with pytest.raises(ValueError):
        stream.zipf(1.0)
    with pytest.raises(TypeError):
        stream.permutation([1, 2, 3])
    with pytest.raises(ValueError):
        Pcg64Stream((-1,))
    with pytest.raises(AttributeError):
        stream.normal()
