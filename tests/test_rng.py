"""Tests for the counter-based random stream and exact Bernoulli draws."""

import ast
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpgd import rng
from lpgd.rng import (
    _KEY_SALT,
    RandomStream,
    _draw,
    bernoulli_lt,
    bernoulli_ratio,
    uniform_below,
)

U64 = st.integers(0, 2**64 - 1)


def fresh(seed, k, tag):
    """A Generator built for one address alone, with explicit uint64 words."""
    return np.random.Generator(
        np.random.Philox(
            key=np.array([seed, _KEY_SALT], dtype=np.uint64),
            counter=np.array([0, 0, k, tag], dtype=np.uint64),
        )
    )


def draw(gen, size):
    return gen.integers(0, 2**64, size=size, dtype=np.uint64)


class _Words:
    """A scripted word source: hands out `words` in order and counts them."""

    def __init__(self, words):
        self.words, self.used = words, 0

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2**64, np.uint64)
        out = self.words[self.used:self.used + size]
        assert len(out) == size, "script exhausted"
        self.used += size
        return np.array(out, dtype=np.uint64)


class TestRandomStream:
    def test_frozen_words(self):
        # pins the key layout and counter addressing; if these move, every
        # recorded run in the repo silently stops replaying
        assert draw(RandomStream(0).generator(0, 0), 4).tolist() == [
            11721511951678247024,
            3236630202515739198,
            12923347060025754066,
            11457049084958527610,
        ]

    def test_frozen_words_at_largest_exact_float_seed(self):
        # seeds below 2**53 keep the draws they had when the key went
        # through float64
        assert draw(RandomStream(2**53 - 1).generator(7, 3), 2).tolist() == [
            5464155899517687569,
            8731085657604688881,
        ]

    def test_large_seeds_are_distinct_streams(self):
        # a float64 key would round 2**60 + 1 onto 2**60
        a = draw(RandomStream(2**60).generator(0, 0), 2)
        assert a.tolist() != draw(RandomStream(2**60 + 1).generator(0, 0), 2).tolist()

    @pytest.mark.parametrize("seed", [-1, -(2**63), 2**64, 2**64 + 5])
    def test_seeds_outside_uint64_are_rejected(self, seed):
        # masking to 64 bits used to replay -1 as 2**64 - 1 and 2**64 as 0
        with pytest.raises(ValueError):
            RandomStream(seed)

    def test_seed_range_ends_are_accepted(self):
        assert RandomStream(0).seed == 0
        assert RandomStream(np.uint64(2**64 - 1)).seed == 2**64 - 1

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStream(1.5)

    def test_runs_reject_out_of_range_seeds(self):
        from lpgd.gdengine import GDConfig, run, run_ensemble
        from lpgd.objectives import make_objective

        cfg = GDConfig(
            objective=make_objective("quadratic", a_diag=[1]),
            t="1/4",
            x0=["1"],
            iterations=3,
            working_fmt="Q8.8",
            sigma1_scheme="sr",
            sigma2_scheme="sr",
        )
        with pytest.raises(ValueError, match="seed"):
            run(GDConfig(**{**vars(cfg), "seed": -1}))
        with pytest.raises(ValueError, match="seed"):
            run_ensemble(cfg, [0, 2**64])

    def test_replay_is_exact(self):
        a = draw(RandomStream(42).generator(3, 17), 8)
        b = draw(RandomStream(42).generator(3, 17), 8)
        assert a.tolist() == b.tolist()

    def test_addresses_are_distinct_streams(self):
        base = draw(RandomStream(0).generator(0, 0), 2).tolist()
        assert draw(RandomStream(0).generator(0, 1), 2).tolist() != base
        assert draw(RandomStream(0).generator(1, 0), 2).tolist() != base
        assert draw(RandomStream(7).generator(0, 0), 2).tolist() != base

    def test_generator_starts_fresh_per_call(self):
        s = RandomStream(9)
        g1 = s.generator(5, 2)
        g1.integers(0, 1 << 64, size=100, dtype=np.uint64)  # burn some state
        g2 = s.generator(5, 2)
        a = g2.integers(0, 1 << 64, size=4, dtype=np.uint64)
        b = RandomStream(9).generator(5, 2).integers(0, 1 << 64, size=4, dtype=np.uint64)
        assert a.tolist() == b.tolist()


    def test_top_iteration_is_not_iteration_zero(self):
        # a float64 counter list turned k = 2**64 - 1 into 0
        s = RandomStream(0)
        assert draw(s.generator(2**64 - 1, 5), 2).tolist() != draw(s.generator(0, 5), 2).tolist()

    @pytest.mark.parametrize("k, tag", [(2**63 + 1, 4), (3, 2**63 + 1), (2**64 - 1, 2**64 - 1)])
    def test_addresses_above_int64_are_exact(self, k, tag):
        # 2**63 + 1 used to round onto 2**63 on its way through float64
        want = draw(fresh(11, k, tag), 6)
        assert draw(RandomStream(11).generator(k, tag), 6).tolist() == want.tolist()

    @pytest.mark.parametrize("k, tag", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_addresses_outside_uint64_are_rejected(self, k, tag):
        # masking to 64 bits used to replay k = -1 as k = 2**64 - 1
        with pytest.raises(ValueError, match="op address"):
            RandomStream(0).generator(k, tag)


class TestOpWords:
    """Word sources share one bit generator and still draw each address alone."""

    @given(
        addrs=st.lists(st.tuples(U64, U64, U64), min_size=2, max_size=3),
        same_seed=st.booleans(),
        script=st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from([0, 1, 3, 4, 5, 9])),
            max_size=24,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_interleaved_ops_draw_their_own_words(self, addrs, same_seed, script):
        if same_seed:  # ops of one stream, else of different streams
            addrs = [(addrs[0][0], k, tag) for _, k, tag in addrs]
        streams = {seed: RandomStream(seed) for seed, _, _ in addrs}
        ops = [streams[seed].generator(k, tag) for seed, k, tag in addrs]
        refs = [fresh(*a) for a in addrs]
        for i, size in script:
            i %= len(ops)
            got, want = draw(ops[i], size), draw(refs[i], size)
            assert got.dtype == np.uint64 and got.tolist() == want.tolist()
        # and each op carries on from where its reference is
        for op, ref in zip(ops, refs):
            assert draw(op, 5).tolist() == draw(ref, 5).tolist()

    @pytest.mark.parametrize(
        "args",
        [
            (1, 2**64, 3, np.uint64),
            (0, 2**63, 3, np.uint64),
            (0, 2**64, 3, np.int64),
            (0, 2**64, 3, np.uint32),
        ],
    )
    def test_other_forms_are_rejected(self, args):
        low, high, size, dtype = args
        with pytest.raises(ValueError, match="only"):
            RandomStream(0).generator(0, 0).integers(low, high, size=size, dtype=dtype)

    def test_size_is_required(self):
        with pytest.raises(TypeError):
            RandomStream(0).generator(0, 0).integers(0, 2**64, size=None, dtype=np.uint64)

    def test_dtype_may_be_given_by_name(self):
        got = RandomStream(2).generator(1, 1).integers(0, 2**64, size=3, dtype="uint64")
        assert got.tolist() == draw(fresh(2, 1, 1), 3).tolist()

    def test_threads_keep_their_own_words(self):
        # the shared bit generator is re-addressed and drawn under its lock;
        # more threads than cores and a short switch interval make them
        # interleave inside draws
        seeds = (5, 6, 7, 8)
        errors = []
        start = threading.Barrier(len(seeds))

        def worker(seed):
            start.wait()
            s = RandomStream(seed)
            lanes = [RandomStream(seed + j) for j in range(3)]
            for k in range(300):
                ops = [s.generator(k, tag) for tag in range(2)]
                got = [[], []]
                for size in (3, 1, 5):
                    for tag, op in enumerate(ops):
                        got[tag] += draw(op, size).tolist()
                if got != [draw(fresh(seed, k, tag), 9).tolist() for tag in range(2)]:
                    errors.append((seed, k))
                # three lanes of one op, re-addressed in one locked loop; at
                # den = 2**64 the uniforms are the words themselves
                gens = [lane.generator(k, 9) for lane in lanes]
                got = uniform_below(gens, 1 << 64, 6).tolist() + uniform_below(gens, 1 << 64, 3).tolist()
                want = [draw(fresh(seed + j, k, 9), 3).tolist() for j in range(3)]
                if got != [w for ws in want for w in ws[:2]] + [ws[2] for ws in want]:
                    errors.append((seed, k, "lanes"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class _Wrapped:
    """A foreign word source that draws through a real OpWords."""

    def __init__(self, op):
        self.op = op

    def integers(self, low, high, size, dtype):
        return self.op.integers(low, high, size=size, dtype=dtype)


class TestDraw:
    """`_draw` re-addresses the shared Philox for every lane of one call."""

    @given(
        lanes=st.lists(
            st.tuples(st.sampled_from([0, 7, 2**64 - 1]) | U64, U64, U64, st.integers(0, 11)),
            min_size=1,
            max_size=5,
        ),
        per=st.sampled_from([0, 1, 2, 3, 5, 9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_lanes_continue_their_own_streams(self, lanes, per):
        # each lane starts at its own offset, mid-block (used & 3 != 0) too
        ops = []
        for seed, k, tag, used in lanes:
            ops.append(RandomStream(seed).generator(k, tag))
            ops[-1]._used = used
        got = _draw(ops, per)
        assert len(got) == len(ops)
        for (seed, k, tag, used), op, words in zip(lanes, ops, got):
            ref = fresh(seed, k, tag)
            draw(ref, used)
            want = draw(ref, per).tolist()
            if per == 1:
                assert type(words) is int and [words] == want
            else:
                assert words.dtype == np.uint64 and words.tolist() == want
            assert op._used == used + per

    def test_a_lane_listed_twice_draws_twice_in_turn(self):
        a, b = RandomStream(3).generator(1, 2), RandomStream(4).generator(1, 2)
        wa, wb = draw(fresh(3, 1, 2), 2).tolist(), draw(fresh(4, 1, 2), 1).tolist()
        assert _draw([a, b, a], 1) == [wa[0], wb[0], wa[1]]
        assert (a._used, b._used) == (2, 1)

    def test_foreign_sources_draw_themselves(self):
        words = _Words([5, 6, 7, 8])
        op = RandomStream(2).generator(0, 1)
        got = _draw([words, op, words], 2)
        assert [w.tolist() for w in got] == [[5, 6], draw(fresh(2, 0, 1), 2).tolist(), [7, 8]]
        assert _draw([_Words([9])], 1) == [9]

    def test_a_foreign_source_wrapping_an_op_does_not_deadlock(self):
        # the wrapped op draws while `_draw` holds the lock for the outer
        # call; a lock that is not re-entrant hangs here, so the draws run in
        # a thread joined with a timeout
        out = []

        def body():
            gens = [RandomStream(s).generator(4, 2) for s in (1, 2, 3)]
            gens[1] = _Wrapped(gens[1])
            # den 3 << 62 rejects about a quarter of all words: redraws too
            out.append(uniform_below(gens, 3 << 62, 12).tolist())
            out.append(bernoulli_ratio(_Wrapped(RandomStream(4).generator(4, 2)), 1, 3, 1).tolist())

        t = threading.Thread(target=body, daemon=True)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive(), "a foreign source drawing inside _draw deadlocked"
        want = np.concatenate(
            [uniform_below(RandomStream(s).generator(4, 2), 3 << 62, 4) for s in (1, 2, 3)]
        )
        assert out == [
            want.tolist(),
            bernoulli_ratio(RandomStream(4).generator(4, 2), 1, 3, 1).tolist(),
        ]

    def test_one_function_re_addresses_the_bit_generator(self):
        # every draw goes through `_draw`: it alone sets the shared state
        tree = ast.parse(Path(rng.__file__).read_text())
        setters = [
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and node.attr == "state"
            and isinstance(node.value, ast.Name)
            and node.value.id == "_BG"
        ]
        assert setters == ["_draw"]


class TestUniformBelow:
    def test_power_of_two_masks_low_bits(self):
        g = RandomStream(3).generator(0, 0)
        got = uniform_below(g, 16, 6)
        words = draw(RandomStream(3).generator(0, 0), 6)
        assert got.tolist() == (words & np.uint64(15)).tolist()

    def test_rejection_path_frozen(self):
        g = RandomStream(3).generator(0, 0)
        assert uniform_below(g, 10, 6).tolist() == [6, 6, 4, 5, 5, 8]

    def test_den_one_is_all_zero(self):
        g = RandomStream(0).generator(0, 0)
        assert uniform_below(g, 1, 5).tolist() == [0, 0, 0, 0, 0]

    def test_nonpositive_den_rejected(self):
        g = RandomStream(0).generator(0, 0)
        with pytest.raises(ValueError):
            uniform_below(g, 0, 1)

    def test_two_word_path_for_huge_den(self):
        # rounding caps stay below 2**62 (wider ones draw through
        # bernoulli_ratio), so a den past one word is refused, not chained
        g = RandomStream(1).generator(0, 0)
        for den in ((1 << 64) + 1, (1 << 70) + 3):
            with pytest.raises(ValueError):
                uniform_below(g, den, 8)
        assert uniform_below(g, 1 << 64, 8).dtype == np.uint64

    @pytest.mark.parametrize("short", [True, False], ids=["short", "array"])
    def test_rejected_words_redraw_in_index_order(self, short, monkeypatch):
        # elements 0 and 1 are rejected; element 0's redraw is rejected
        # again, so it takes its third word only after element 1's second
        if not short:
            monkeypatch.setattr(rng, "_SHORT_DRAW", -1)
        lim = (2**64 // 10) * 10
        words = _Words([lim, 2**64 - 1, 5, lim + 2, 6, 7, 99])
        assert uniform_below(words, 10, 3).tolist() == [7, 6, 5]
        assert words.used == 6

    @pytest.mark.parametrize("short", [True, False], ids=["short", "array"])
    def test_power_of_two_masks_scripted_words(self, short, monkeypatch):
        if not short:
            monkeypatch.setattr(rng, "_SHORT_DRAW", -1)
        words = _Words([2**64 - 1, 17, 32])
        assert uniform_below(words, 16, 3).tolist() == [15, 1, 0]
        assert words.used == 3

    @pytest.mark.parametrize("den", [3, 16, (1 << 62) + 3])
    @pytest.mark.parametrize("n", [2, 40])
    def test_numpy_integer_den_draws_as_the_python_int(self, den, n):
        # `_FULL // den` on a numpy integer raised OverflowError
        g0 = RandomStream(7).generator(1, 2)
        want = uniform_below(g0, den, n).tolist()
        lt = bernoulli_lt(RandomStream(7).generator(1, 2), 1, den, n).tolist()
        for kind in (np.int64, np.uint64):
            g = RandomStream(7).generator(1, 2)
            assert uniform_below(g, kind(den), n).tolist() == want
            assert g._used == g0._used
            assert bernoulli_lt(RandomStream(7).generator(1, 2), 1, kind(den), n).tolist() == lt

    @given(
        den=st.integers(min_value=2, max_value=1 << 20),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_draws_stay_in_range(self, den, seed):
        g = RandomStream(seed).generator(0, 0)
        out = uniform_below(g, den, 32)
        assert int(out.max()) < den


class TestLaneDraws:
    """A list of lane generators draws what each generator would alone."""

    @staticmethod
    def lanes(seeds, k=4, tag=2):
        return [RandomStream(s).generator(k, tag) for s in seeds]

    @given(
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
        per=st.sampled_from([1, 2, 3, 5, rng._SHORT_DRAW, rng._SHORT_DRAW + 1]),
        den=st.sampled_from([1, 16, 10, 3 << 62, (1 << 63) + 1, 1 << 64]),
    )
    # one lane at the short-draw limit and one word past it, dyadic and not
    @example(seeds=[5], per=rng._SHORT_DRAW, den=16)
    @example(seeds=[5], per=rng._SHORT_DRAW + 1, den=16)
    @example(seeds=[5], per=rng._SHORT_DRAW, den=(1 << 63) + 1)
    @example(seeds=[5], per=rng._SHORT_DRAW + 1, den=(1 << 63) + 1)
    @settings(max_examples=100, deadline=None)
    def test_uniform_below_matches_lane_by_lane(self, seeds, per, den):
        # dens near 2**63 reject about half of all words, so redraws are
        # taken from each lane's own generator in index order; a lane alone
        # draws at most _SHORT_DRAW words on Python ints, which must give the
        # words of the array path (the reference, with no short draws)
        batch_gens = self.lanes(seeds)
        got = uniform_below(batch_gens, den, per * len(seeds))
        one_gens = self.lanes(seeds)
        want = np.concatenate([uniform_below(g, den, per) for g in one_gens])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng, "_SHORT_DRAW", -1)
            ref_gens = self.lanes(seeds)
            ref = np.concatenate([uniform_below(g, den, per) for g in ref_gens])
        assert want.dtype == ref.dtype == np.uint64
        assert got.tolist() == want.tolist() == ref.tolist()
        # and every lane consumed the same words
        used = [g._used for g in ref_gens]
        assert [g._used for g in batch_gens] == [g._used for g in one_gens] == used
        nxt = [draw(g, 1).tolist() for g in batch_gens]
        assert nxt == [draw(g, 1).tolist() for g in one_gens]

    def test_bernoulli_lt_matches_lane_by_lane(self):
        seeds = [3, 1, 3, 8]
        nums = np.arange(12, dtype=np.uint64) % 7
        got = bernoulli_lt(self.lanes(seeds), nums, 7, 12)
        want = np.concatenate(
            [bernoulli_lt(g, nums[3 * i : 3 * i + 3], 7, 3) for i, g in enumerate(self.lanes(seeds))]
        )
        assert got.tolist() == want.tolist()

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError):
            uniform_below(self.lanes([1, 2]), 16, 3)


class TestBernoulli:
    def test_lt_deterministic_endpoints(self):
        g = RandomStream(0).generator(0, 0)
        assert not bernoulli_lt(g, 0, 7, 50).any()
        g = RandomStream(0).generator(0, 0)
        assert bernoulli_lt(g, 7, 7, 50).all()

    def test_ratio_deterministic_endpoints(self):
        g = RandomStream(0).generator(0, 0)
        assert not bernoulli_ratio(g, 0, 7, 50).any()
        g = RandomStream(0).generator(0, 0)
        assert bernoulli_ratio(g, 7, 7, 50).all()

    def test_lt_mean_matches_three_sevenths(self):
        g = RandomStream(5).generator(2, 9)
        r = bernoulli_lt(g, 3, 7, 10_000)
        p = 3 / 7
        se = (p * (1 - p) / 10_000) ** 0.5
        assert abs(r.mean() - p) <= 4 * se

    def test_ratio_mean_matches_three_sevenths(self):
        g = RandomStream(5).generator(2, 9)
        r = bernoulli_ratio(g, 3, 7, 10_000)
        p = 3 / 7
        se = (p * (1 - p) / 10_000) ** 0.5
        assert abs(r.mean() - p) <= 4 * se

    def test_lt_accepts_per_element_nums(self):
        g = RandomStream(11).generator(0, 0)
        nums = np.array([0, 8, 4], dtype=np.uint64)
        r = bernoulli_lt(g, nums, 8, 3)
        assert not r[0]
        assert r[1]

    def test_ratio_accepts_per_element_dens(self):
        g = RandomStream(11).generator(0, 0)
        r = bernoulli_ratio(g, [1, 1, 0], [1, 2, 5], 3)
        assert r[0] and not r[2]

    def test_ratio_handles_huge_exact_ratio(self):
        # numerator and denominator far beyond 64 bits, probability one half
        num = (1 << 200) + 1
        den = (1 << 201) + 2
        g = RandomStream(4).generator(0, 0)
        r = bernoulli_ratio(g, num, den, 4_000)
        se = (0.25 / 4_000) ** 0.5
        assert abs(r.mean() - 0.5) <= 4 * se

    @given(
        num=st.integers(min_value=0, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_lt_and_ratio_replay(self, num, seed):
        g1 = RandomStream(seed).generator(1, 1)
        g2 = RandomStream(seed).generator(1, 1)
        assert (
            bernoulli_lt(g1, num, 64, 16).tolist()
            == bernoulli_lt(g2, num, 64, 16).tolist()
        )
        g3 = RandomStream(seed).generator(1, 2)
        g4 = RandomStream(seed).generator(1, 2)
        assert (
            bernoulli_ratio(g3, num, 64, 16).tolist()
            == bernoulli_ratio(g4, num, 64, 16).tolist()
        )

    @given(
        num=st.integers(min_value=1),
        extra=st.integers(min_value=1),
        scale=st.integers(min_value=1, max_value=2**70),
        n=st.integers(min_value=1, max_value=4),
        deltas=st.lists(st.sampled_from([-1, 0, 1]) | U64, max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_ratio_forms_and_scales_agree(self, num, extra, scale, n, deltas):
        # Python ints, 1-element, n-element, int64 and object arrays, and an
        # unreduced ratio draw the same bits from the same words; the words sit
        # on and next to the probability's 64-bit digits, so the extension
        # words are compared too
        den = num + extra
        words = []
        p = Fraction(num, den)
        for delta in deltas + [None]:
            p *= 2**64
            digit = int(p)
            p -= digit
            word = digit ^ 1 if delta is None else min(max(digit + delta, 0), 2**64 - 1)
            words += [word] * n  # every element sees the same word, so all stay in step
        forms = [
            (num, den),
            ([num], [den]),
            ([num] * n, den),
            (np.array([num], dtype=object), np.array([den] * n, dtype=object)),
            (num * scale, den * scale),
        ]
        if den < 2**63:
            forms.append((np.array([num] * n, dtype=np.int64), np.array([den], dtype=np.int64)))
        results = []
        for nums, dens in forms:
            src = _Words(words)
            results.append((bernoulli_ratio(src, nums, dens, n).tolist(), src.used))
        assert all(r == results[0] for r in results)
