"""Seeded random-stream helpers for reproducible experiments.

Every stochastic component takes an explicit stream so that experiments are
deterministic given a seed, and independent components do not perturb each
other's draws when one of them is reconfigured.

Each named stream is a :class:`Pcg64Stream` seeded from ``(seed, stable
hash of the name)``: a pure-Python port of numpy's ``SeedSequence`` and
``PCG64`` bit generator (XSL-RR 128/64 output, with the buffered 32-bit
half) and of exactly the ``Generator`` draws the simulator makes —
``integers``, ``random``, ``exponential``, ``zipf``, ``permutation`` and
``choice(n, size, replace=False)``.  Each draw equals what
``numpy.random.default_rng(SeedSequence(entropy))`` returns for the same
call, one for one, so the goldens first pinned under numpy still hold
and a run never imports numpy.  Any other argument or method raises;
there is no fallback.
"""

from __future__ import annotations

import functools
import math
import operator
import typing

from repro.sim.ziggurat import EXP_R, FE, KE, WE

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_INT64_MAX_AS_DOUBLE = float(_INT64_MAX)
#: PCG's default 128-bit LCG multiplier.
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
#: 2**-53: scales a 53-bit integer into [0, 1).
_DOUBLE_UNIT = 1.0 / 9007199254740992.0

# numpy's SeedSequence hashing constants (bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _entropy_words(entropy: typing.Iterable[int]) -> list[int]:
    """Split each non-negative integer into little-endian 32-bit words
    (zero still takes one word), as ``SeedSequence`` does."""
    words: list[int] = []
    for value in entropy:
        value = operator.index(value)
        if value < 0:
            raise ValueError("entropy must be non-negative integers")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def _hashmix_constants(init: int, multiplier: int,
                       count: int) -> list[tuple[int, int]]:
    """The (xor, multiply) constant pair of each of numpy's first
    ``count`` hashmix calls: the running hash constant depends only on
    how many words were hashed before, never on their values."""
    pairs = []
    for _ in range(count):
        following = init * multiplier & _MASK32
        pairs.append((init, following))
        init = following
    return pairs


@functools.cache
def _mix_schedule(words: int) -> tuple[tuple[int, int, int, int], ...]:
    """``(src, dst, xor, multiply)`` for every mix of a ``SeedSequence``
    pool built from ``words`` entropy words: each pool word into every
    other, then each word beyond the pool (cell ``src`` >= the pool
    size) into every pool word."""
    sources = range(max(words, _POOL_SIZE))
    pairs = [(src, dst) for src in sources for dst in range(_POOL_SIZE)
             if src != dst]
    constants = _hashmix_constants(_INIT_A, _MULT_A,
                                   _POOL_SIZE + len(pairs))[_POOL_SIZE:]
    return tuple((src, dst, xor, multiply) for (src, dst), (xor, multiply)
                 in zip(pairs, constants, strict=True))


_FILL_CONSTANTS = _hashmix_constants(_INIT_A, _MULT_A, _POOL_SIZE)
#: generate_state(4, uint64) hashes eight pool words on its own chain.
_STATE_CONSTANTS = _hashmix_constants(_INIT_B, _MULT_B, 8)


def _pcg_seed(entropy: typing.Iterable[int]) -> tuple[int, int]:
    """numpy's ``SeedSequence(entropy)`` pool, hashed out into the four
    64-bit words ``PCG64`` seeds from: ``(initstate, initseq)``."""
    words = _entropy_words(entropy)
    # Cells 0-3 are the pool; any further cells are the entropy words
    # beyond it, which are mixed in but never changed.
    cells = words + [0] * (_POOL_SIZE - len(words))
    for index, (xor, multiply) in enumerate(_FILL_CONSTANTS):
        value = (cells[index] ^ xor) * multiply & _MASK32
        cells[index] = value ^ value >> 16
    for src, dst, xor, multiply in _mix_schedule(len(words)):
        value = (cells[src] ^ xor) * multiply & _MASK32
        mixed = (_MIX_MULT_L * cells[dst]
                 - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
        cells[dst] = mixed ^ mixed >> 16
    state = []
    for index, (xor, multiply) in enumerate(_STATE_CONSTANTS):
        value = (cells[index % _POOL_SIZE] ^ xor) * multiply & _MASK32
        state.append(value ^ value >> 16)
    # Paired low word first into 64-bit words, then high word first
    # into the 128-bit state and increment seeds.
    return ((state[1] << 96 | state[0] << 64 | state[3] << 32 | state[2]),
            (state[5] << 96 | state[4] << 64 | state[7] << 32 | state[6]))


class Pcg64Stream:
    """numpy's ``PCG64`` generator and the draws the simulator uses.

    Built from a sequence of non-negative integers, the entropy numpy's
    ``SeedSequence`` takes.  Every method returns what the same call on
    ``numpy.random.default_rng(SeedSequence(entropy))`` returns (Python
    ``int``/``float``/``list`` where numpy returns its scalars and
    arrays); a stream pickles and resumes mid-sequence.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, entropy: typing.Iterable[int]) -> None:
        initstate, initseq = _pcg_seed(entropy)
        inc = (initseq << 1 | 1) & _MASK128
        self._inc = inc
        self._state = ((inc + initstate) * _PCG_MULTIPLIER + inc) & _MASK128
        self._has_uint32 = False
        self._uinteger = 0

    # -- the bit generator ------------------------------------------------

    def _next64(self) -> int:
        """Step the LCG, then XSL-RR the new state down to 64 bits."""
        state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        self._state = state
        value = ((state >> 64) ^ state) & _MASK64
        rotation = state >> 122
        return (value >> rotation | value << (64 - rotation)) & _MASK64

    def _next32(self) -> int:
        """The low half of a fresh 64-bit output; the high half is kept
        for the next call."""
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        value = self._next64()
        self._has_uint32 = True
        self._uinteger = value >> 32
        return value & _MASK32

    def _bounded(self, span: int) -> int:
        """Uniform on ``[0, span]`` by Lemire's multiply-and-reject, on
        32-bit draws when the span fits (numpy's
        ``random_bounded_uint64``)."""
        if span < _MASK32:
            if not span:
                return 0
            bound = span + 1
            product = self._next32() * bound
            if product & _MASK32 < bound:
                threshold = (_MASK32 - span) % bound
                while product & _MASK32 < threshold:
                    product = self._next32() * bound
            return product >> 32
        if span == _MASK32:
            return self._next32()
        if span == _MASK64:
            return self._next64()
        bound = span + 1
        product = self._next64() * bound
        if product & _MASK64 < bound:
            threshold = (_MASK64 - span) % bound
            while product & _MASK64 < threshold:
                product = self._next64() * bound
        return product >> 64

    def _interval(self, top: int) -> int:
        """Uniform on ``[0, top]`` by masking and rejecting (numpy's
        ``random_interval``, which ``permutation`` shuffles with)."""
        mask = (1 << top.bit_length()) - 1
        draw = self._next32 if top <= _MASK32 else self._next64
        value = draw() & mask
        while value > top:
            value = draw() & mask
        return value

    # -- Generator methods --------------------------------------------------

    def integers(self, low: int, high: int) -> int:
        """A uniform integer in ``[low, high)``."""
        span = high - low - 1
        if type(span) is not int:
            raise TypeError("integers() takes int bounds")
        if span < 0:
            raise ValueError("high <= low")
        if low < _INT64_MIN or high - 1 > _INT64_MAX:
            raise ValueError("bounds outside int64")
        return low + self._bounded(span)

    def random(self) -> float:
        """A uniform float in ``[0, 1)`` with 53 random bits."""
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def exponential(self, scale: float = 1.0) -> float:
        """An exponential draw with mean ``scale``, by numpy's 256-level
        ziggurat."""
        if scale < 0:
            raise ValueError("scale < 0")
        while True:
            bits = self._next64() >> 3
            level = bits & 0xFF
            bits >>= 8
            x = bits * WE[level]
            if bits < KE[level]:
                return scale * x
            if not level:
                return scale * (EXP_R - math.log1p(-self.random()))
            if ((FE[level - 1] - FE[level]) * self.random() + FE[level]
                    < math.exp(-x)):
                return scale * x

    def zipf(self, a: float) -> int:
        """A Zipf draw with exponent ``a`` > 1, by rejection (numpy's
        ``random_zipf``, truncated to int64)."""
        if not a > 1.0:
            raise ValueError("a <= 1.0 or nan")
        if a >= 1025:
            return 1
        am1 = a - 1.0
        b = math.pow(2.0, am1)
        u_min = math.pow(_INT64_MAX_AS_DOUBLE, -am1)
        while True:
            u01 = self.random()
            u = u01 * u_min + (1 - u01)
            v = self.random()
            x = math.pow(u, -1.0 / am1)
            # floor(x) leaves [1, INT64_MAX] exactly when x does.
            if x > _INT64_MAX_AS_DOUBLE or x < 1.0:
                continue
            x = float(math.floor(x))
            t = math.pow(1.0 + 1.0 / x, am1)
            if v * x * (t - 1.0) / (b - 1.0) <= t / b:
                return int(x)

    def permutation(self, n: int) -> list[int]:
        """``range(n)`` shuffled by Fisher-Yates on masked draws."""
        values = list(range(operator.index(n)))
        for i in range(len(values) - 1, 0, -1):
            j = self._interval(i)
            values[i], values[j] = values[j], values[i]
        return values

    def choice(self, a: int, size: int, replace: bool = True) -> list[int]:
        """``size`` distinct integers from ``range(a)``: Floyd's sample,
        then a Lemire shuffle (a partial shuffle of the whole range when
        both are large, as numpy does).  Only ``replace=False`` is
        ported."""
        if replace:
            raise ValueError("only choice(..., replace=False) is supported")
        population, size = operator.index(a), operator.index(size)
        if size < 0:
            raise ValueError("negative dimensions are not allowed")
        if size > population:
            raise ValueError("Cannot take a larger sample than population "
                             "when replace is False")
        if population > 10000 and size > population // 50:
            # numpy shuffles the tail of range(population) instead.
            values = list(range(population))
            for i in range(population - 1, max(population - size, 1) - 1,
                           -1):
                j = self._bounded(i)
                values[i], values[j] = values[j], values[i]
            return values[population - size:]
        chosen: set[int] = set()
        picks = []
        for top in range(population - size, population):
            value = self._bounded(top)
            if value in chosen:
                value = top
            chosen.add(value)
            picks.append(value)
        for i in range(size - 1, 0, -1):
            j = self._bounded(i)
            picks[i], picks[j] = picks[j], picks[i]
        return picks


class RandomStreams:
    """A family of independent, named random streams from one seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, Pcg64Stream] = {}

    def stream(self, name: str) -> Pcg64Stream:
        """Return (creating on first use) the stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = Pcg64Stream(
                (self.seed, _stable_hash(name)))
        return self._streams[name]


def _stable_hash(name: str) -> int:
    """A deterministic (non-salted) 63-bit hash of a string."""
    value = 1469598103934665603  # FNV-1a offset basis
    for byte in name.encode():
        value ^= byte
        value = (value * 1099511628211) % (1 << 63)
    return value
