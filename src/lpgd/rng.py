"""Counter-based randomness with exact-rational Bernoulli draws.

Every rounding op in a run is addressed by (seed, iteration, op tag).  The
words of an address are those of a Philox4x64-10 stream keyed by
(seed, salt) whose 256-bit counter starts at (0, 0, iteration, tag), so
distinct addresses are 2**128 draws apart and can never collide however many
uniforms one op consumes.  Replaying a run with the same seed reproduces
every draw; runs with different seeds are independent streams.

`RandomStream.generator(k, tag)` returns an `OpWords`: the word source of
one address.  All word sources share one module-level Philox, so no bit
generator is built per op.  One function, `_draw`, re-addresses it (key,
counter, words already used) for every lane of a draw call in one locked
loop; any other word source in the lane list (a scripted or counting
stand-in) draws itself through its `integers` inside that loop.  The words
are exactly those a fresh `Generator(Philox(key, counter))` gives for
`integers(0, 2**64, size, dtype=uint64)`.

Bernoulli draws take their probability as an exact integer ratio num/den and
are exact: a uniform r on [0, den) is compared against num.  Power-of-two
denominators mask the low bits of a 64-bit word; anything else goes through
rejection sampling.  `uniform_below` takes a short draw, one lane of at most
`_SHORT_DRAW` words (as every one-lane fixed-point rounding op of a small
objective draws), on the Python ints `_draw` returns, which skips numpy's
per-call cost at that size; longer and multi-lane draws work on uint64
arrays.  Both paths draw the same words and the same redraws.

Every draw function takes one word source or, for R lanes advanced
together, a list of R per-lane word sources: lane r then supplies its share
of the elements from its own source, in index order, exactly as a call with
that source alone would, so batching lanes never moves a draw.
"""

from __future__ import annotations

import operator
import threading
from typing import List

import numpy as np

# Fixed second key lane.  Early versions passed the golden-ratio word
# 0x9E3779B97F4A7C15 through a float64 key list, which rounded it to this
# value; keeping the rounded word keeps every recorded trajectory replaying.
_KEY_SALT = 0x9E3779B97F4A8000
_FULL = 1 << 64
_U64 = np.dtype(np.uint64)
# The most words a one-lane `uniform_below` draws on Python ints; longer
# draws are cheaper as arrays.  Timed per call (Python 3.11, numpy 2.4,
# 2-core Xeon): on a non-dyadic den the ints save 2.5 us at 1 word and 0.9
# at 8, falling to 0.2 at 12; on a dyadic den, whose array path is one mask,
# they save about 0.7 at 1 word and lose 0.1-0.6 at 2-8 and 1.0 at 10.  At
# 8 the two kinds about balance.
_SHORT_DRAW = 8


# The one bit generator behind every OpWords and the state `_draw` gives it
# for each lane: only the counter and key change.  `_LOCK` keeps a
# re-address and its draw together when threads share the module; it is
# re-entrant because a foreign source may wrap an OpWords and draw from it
# while `_draw` holds the lock.
_BG = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
_LOCK = threading.RLock()
_ADDR = {"counter": (0, 0, 0, 0), "key": (0, 0)}
_STATE = {
    "bit_generator": "Philox",
    "state": _ADDR,
    "buffer": (0, 0, 0, 0),
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}


class OpWords:
    """The uniform 64-bit words of one op address, drawn in order.

    `integers(0, 2**64, size, dtype=np.uint64)`, with an integer size, is
    the only form accepted; it returns a uint64 array.
    """

    __slots__ = ("_key", "_k", "_tag", "_used")

    def __init__(self, key, k: int, tag: int):
        self._key = key
        self._k = k
        self._tag = tag
        self._used = 0

    def integers(self, low, high, size, dtype):
        if low != 0 or high != _FULL or (dtype is not np.uint64 and np.dtype(dtype) != _U64):
            raise ValueError("OpWords draws only integers(0, 2**64, size, dtype=np.uint64)")
        n = operator.index(size)
        out = _draw((self,), n)[0]
        return np.array([out], dtype=_U64) if n == 1 else out


def _draw(gens, per: int) -> list:
    """The next `per` words of every lane source in `gens`, in lane order: a
    Python int per lane when per == 1, else a uint64 array per lane.

    The only re-address of `_BG`: under one hold of `_LOCK`, each OpWords
    lane points it at its key and counter, skips the words it already used
    and draws its own.  A source listed twice draws twice, in turn.
    """
    out = []
    with _LOCK:
        for g in gens:
            if type(g) is not OpWords:
                w = g.integers(0, _FULL, size=per, dtype=np.uint64)
                out.append(int(w[0]) if per == 1 else w)
                continue
            used = g._used
            # the counter steps once per 4-word block, before the block
            _ADDR["counter"] = (used >> 2, 0, g._k, g._tag)
            _ADDR["key"] = g._key
            _BG.state = _STATE
            if used & 3:
                _BG.random_raw(used & 3)
            out.append(_BG.random_raw() if per == 1 else _BG.random_raw(per))
            g._used = used + per
    return out


class RandomStream:
    """Philox-backed uniform source addressed by (iteration, op tag)."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if not 0 <= seed < _FULL:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self.seed = seed
        # an explicit uint64 key: every one of the 2**64 seeds is its own stream
        self._key = (seed, _KEY_SALT)

    def generator(self, k: int, tag: int) -> OpWords:
        """The word source of op `tag` of iteration `k`, at its first word."""
        k, tag = operator.index(k), operator.index(tag)
        if not (0 <= k < _FULL and 0 <= tag < _FULL):
            raise ValueError(f"op address must be in [0, 2**64), got k={k}, tag={tag}")
        return OpWords(self._key, k, tag)


def _lanes(gen, n: int) -> List[OpWords]:
    """The per-lane word sources of a draw call; n must split evenly over them."""
    if not isinstance(gen, (list, tuple)):
        return [gen]
    gens = list(gen)
    if not gens or n % len(gens):
        raise ValueError(f"{n} draws do not split evenly over {len(gens)} lanes")
    return gens


def uniform_below(gen, den: int, n: int) -> np.ndarray:
    """n exact uniforms on [0, den) as uint64, for 0 < den <= 2**64.

    With a list of R lane word sources, lane r supplies elements
    [r*n/R, (r+1)*n/R) and its own rejection redraws.  One lane drawing at
    most `_SHORT_DRAW` words works on the Python ints of its words and
    builds the array once; it draws the same words as the array path.
    """
    den = operator.index(den)
    if not 0 < den <= _FULL:
        raise ValueError(f"denominator must be in (0, 2**64], got {den}")
    gens = _lanes(gen, n)
    if len(gens) == 1 and n <= _SHORT_DRAW:
        return np.array(_uniform_ints(gens[0], den, n), dtype=_U64)
    per = n // len(gens)
    words = _draw(gens, per)
    if per == 1:
        u = np.array(words, dtype=_U64)
    else:
        u = words[0] if len(words) == 1 else np.concatenate(words)
    if den & (den - 1) == 0:
        # power of two: low bits are already uniform on [0, den)
        return u & np.uint64(den - 1)
    # only powers of two divide 2**64, so lim < 2**64 here
    lim = np.uint64((_FULL // den) * den)  # rejection keeps the draw exactly uniform
    bad = u >= lim
    while bad.any():
        # one word per rejected element, each from its own lane in index order
        idx = np.flatnonzero(bad)
        u[idx] = _draw([gens[i // per] for i in idx.tolist()], 1)
        bad = u >= lim
    return u % np.uint64(den)


def _uniform_ints(g, den: int, n: int) -> list:
    """n uniforms on [0, den) from the one lane source g, as Python ints: the
    words, and the rejection redraws in index order, of the array path."""
    ws = _draw((g,), n)[0]
    ws = [ws] if n == 1 else ws.tolist()
    if den & (den - 1) == 0:
        mask = den - 1
        return [w & mask for w in ws]
    lim = (_FULL // den) * den
    bad = [i for i, w in enumerate(ws) if w >= lim]
    while bad:
        for i, w in zip(bad, _draw([g] * len(bad), 1)):
            ws[i] = w
        bad = [i for i in bad if ws[i] >= lim]
    return [w % den for w in ws]


def bernoulli_lt(gen, nums, den: int, n: int) -> np.ndarray:
    """Boolean vector, element i True with probability nums[i]/den, exactly.

    nums may be a scalar or an array of integers in [0, den]; probabilities
    0 and 1 come out deterministic.  An int64 array is compared through a
    uint64 view, with no copy, which that precondition makes exact: no
    element is negative.  gen is one word source or a list of lane word
    sources, as in `uniform_below`.
    """
    if isinstance(nums, np.ndarray) and nums.dtype == np.int64:
        nums = nums.view(_U64)
    return uniform_below(gen, den, n) < np.asarray(nums, dtype=np.uint64)


def bernoulli_ratio(gen: OpWords, nums, dens, n: int) -> np.ndarray:
    """Exact Bernoulli(nums[i]/dens[i]) vector for per-element denominators.

    Compares a uniform bitstream against the target probability 64 bits at a
    time: the first word decides unless it lands exactly on the probability's
    64-bit prefix (chance 2**-64 per element), in which case more words
    resolve the remainder.  One word per element in practice, any rational
    probability, no rejection loop.  nums and dens are Python ints or
    arrays (any integer dtype, object for wide values) of 1 or n elements.
    """
    if n == 1 and type(nums) is int and type(dens) is int:
        # one Python-int probability, as every lowfloat rounding draws: the
        # loop below on one element, without its lists
        while True:
            w = _draw((gen,), 1)[0]
            hi, rem = divmod(nums << 64, dens)
            if w != hi or not rem:
                return np.array([w < hi])
            nums = rem
    nums, dens = _int_list(nums, n), _int_list(dens, n)
    out = np.zeros(n, dtype=bool)
    idx = range(n)
    while idx:
        u = gen.integers(0, _FULL, size=len(idx), dtype=np.uint64).tolist()
        next_idx = []
        for i, w in zip(idx, u):
            hi, rem = divmod(nums[i] << 64, dens[i])
            if w < hi:
                out[i] = True
            elif w == hi and rem:
                nums[i] = rem  # undecided: recurse on the remainder bits
                next_idx.append(i)
        idx = next_idx
    return out


def _int_list(v, n: int) -> list:
    """v as a fresh list of n Python ints (a single value repeats)."""
    if isinstance(v, int):
        return [v] * n
    v = (v if isinstance(v, np.ndarray) else np.asarray(v, dtype=object)).reshape(-1).tolist()
    return v * n if len(v) == 1 else v
