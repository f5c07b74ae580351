"""Rounding kernels: frozen probabilities, expectations, and vector paths."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpgd import rng
from lpgd.lpfloat import FloatFormat, fl_round
from lpgd.oracle import dist_mean, round_distribution
from lpgd.qnum import QFormat
from lpgd.rng import RandomStream
from lpgd.rounding import (
    RoundScheme,
    law,
    parse_scheme,
    round_doubles_vec,
    round_ratio_vec,
    up_weight,
)

Q11 = QFormat(1, 1)
Q88 = QFormat(8, 8)


class TestScheme:
    def test_parse(self):
        assert parse_scheme("rn") == RoundScheme("rn")
        assert parse_scheme("sr_eps:0.4") == RoundScheme("sr_eps", Fraction(2, 5))
        assert parse_scheme("signed_sr_eps:1/3").eps == Fraction(1, 3)
        assert parse_scheme("sr_eps: 2^-4").eps == Fraction(1, 16)

    def test_eps_required_bounds(self):
        with pytest.raises(ValueError):
            RoundScheme("sr_eps", Fraction(0))
        with pytest.raises(ValueError):
            RoundScheme("sr_eps", Fraction(1))
        with pytest.raises(ValueError):
            RoundScheme("sr", Fraction(1, 2))
        with pytest.raises(ValueError):
            RoundScheme("sr_eps")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            RoundScheme("stochastic")

    def test_eps_is_read_as_an_exact_rational(self):
        # a float is taken at its binary64 value, text exactly
        assert RoundScheme("sr_eps", 0.25) == parse_scheme("sr_eps:1/4")
        assert RoundScheme("sr_eps", "0.4") == parse_scheme("sr_eps:2/5")
        assert RoundScheme("sr_eps", 0.4).eps == Fraction(0.4) != Fraction(2, 5)
        assert str(RoundScheme("signed_sr_eps", 0.25)) == "signed_sr_eps:1/4"
        with pytest.raises(ValueError, match="needs eps in"):
            RoundScheme("sr_eps", "1.5")

    def test_zero_denominator_eps_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            parse_scheme("sr_eps:1/0")
        with pytest.raises(ValueError, match=r"zero denominator in '0\^-1'"):
            parse_scheme("sr_eps:0^-1")


class TestProbRoundDown:
    """P(round down) is the lower neighbour's mass in `round_distribution`."""

    def test_frozen_sr_values(self):
        # 0.24 on the 0.5 grid: frac/u = 0.48
        half, sr = Fraction(1, 2), parse_scheme("sr")
        assert round_distribution(Fraction(24, 100), Q11, sr) == {
            0: Fraction(13, 25), half: Fraction(12, 25)
        }
        assert round_distribution(Fraction(26, 100), Q11, sr) == {
            0: Fraction(12, 25), half: Fraction(13, 25)
        }

    def test_rn_tie_goes_to_even_mantissa(self):
        rn = parse_scheme("rn")
        # 0.25 sits exactly between mantissas 0 and 1; floor mantissa 0 is even
        assert round_distribution(Fraction(1, 4), Q11, rn) == {0: 1}
        # 0.75 sits between mantissas 1 and 2; chooses 2 (even) on Q2.1
        assert round_distribution(Fraction(3, 4), QFormat(2, 1), rn) == {1: 1}
        # Q1.1 ends at mantissa 1, so 0.75 is outside it
        with pytest.raises(OverflowError):
            round_distribution(Fraction(3, 4), Q11, rn)

    def test_on_grid_is_identity_for_all_schemes(self):
        half = Fraction(1, 2)
        for spec in ("rn", "sr", "sr_eps:0.4", "signed_sr_eps:0.4"):
            assert round_distribution(half, Q11, parse_scheme(spec)) == {half: 1}
            assert round_distribution(half, Q11, parse_scheme(spec), 1) == {half: 1}

    def test_sr_eps_shifts_by_value_sign(self):
        se = parse_scheme("sr_eps:0.2")
        u = Q88.u
        x = Fraction(1, 5) * u + 3 * u  # frac 0.2u, positive
        p_down = Fraction(1) - Fraction(1, 5) - Fraction(1, 5)
        assert round_distribution(x, Q88, se) == {3 * u: p_down, 4 * u: 1 - p_down}
        p_down = Fraction(1) - Fraction(4, 5) + Fraction(1, 5)
        assert round_distribution(-x, Q88, se) == {-4 * u: p_down, -3 * u: 1 - p_down}

    def test_sr_eps_clamps(self):
        se = parse_scheme("sr_eps:0.6")
        x = Fraction(1, 2) * Q88.u  # p_down would be 1 - 0.5 - 0.6 < 0
        assert round_distribution(x, Q88, se) == {Q88.u: 1}

    def test_signed_uses_caller_sign(self):
        ss = parse_scheme("signed_sr_eps:0.2")
        x = Fraction(1, 5) * Q88.u
        assert round_distribution(x, Q88, ss, 1) == {0: Fraction(3, 5), Q88.u: Fraction(2, 5)}
        assert round_distribution(x, Q88, ss, -1) == {0: Fraction(1)}


_KERNEL_SCHEMES = ["rn", "sr", "sr_eps:0.3", "sr_eps:1/3", "signed_sr_eps:1/3", "signed_sr_eps:0.9"]


def _reference_p_up(q, r, den, scheme, v_sign):
    """The two-point law written out on Fractions."""
    frac = Fraction(r, den)
    if scheme.kind == "rn":
        return Fraction(2 * frac > 1 or (2 * frac == 1 and q % 2 == 1))
    if scheme.kind == "sr":
        return frac
    pos = q + frac
    s = (pos > 0) - (pos < 0) if scheme.kind == "sr_eps" else (v_sign > 0) - (v_sign < 0)
    return min(max(frac + s * scheme.eps, Fraction(0)), Fraction(1))


class TestUpWeight:
    def test_cap_is_never_reduced(self):
        assert up_weight(0, 2, 4, parse_scheme("sr")) == (2, 4)
        assert up_weight(3, 2, 4, parse_scheme("rn")) == (4, 4)  # tie, odd q
        assert up_weight(0, 2, 4, parse_scheme("sr_eps:1/2")) == (8, 8)
        assert up_weight(0, 2, 4, parse_scheme("signed_sr_eps:1/2"), v_sign=-1) == (0, 8)

    def test_on_grid_weight_is_not_zeroed(self):
        # the caller masks r == 0 after drawing; the binary64 fallback needs
        # the unmasked law to draw the same extension words
        assert up_weight(1, 0, 1, parse_scheme("sr_eps:1/3")) == (1, 3)
        assert up_weight(0, 0, 1, parse_scheme("sr_eps:1/3")) == (0, 3)  # sign(0) = 0
        assert up_weight(-1, 0, 1, parse_scheme("sr_eps:1/3")) == (0, 3)

    @given(
        data=st.data(),
        den=st.integers(min_value=1, max_value=2**40) | st.integers(2**62, 2**100),
        spec=st.sampled_from(_KERNEL_SCHEMES),
    )
    @settings(max_examples=150, deadline=None)
    def test_ints_int64_and_object_arrays_agree(self, data, den, spec):
        scheme = parse_scheme(spec)
        n = data.draw(st.integers(min_value=1, max_value=6))
        q = data.draw(st.lists(st.integers(-(2**20), 2**20), min_size=n, max_size=n))
        r = data.draw(
            st.lists(st.sampled_from([0, den // 2, den - 1]) | st.integers(0, den - 1),
                     min_size=n, max_size=n)
        )
        sign = data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
        scalar = [up_weight(a, b, den, scheme, c) for a, b, c in zip(q, r, sign)]
        for a, b, c, (t, cap) in zip(q, r, sign, scalar):
            assert Fraction(t, cap) == _reference_p_up(a, b, den, scheme, c)
        for dtype in (np.int64, object) if den <= 2**40 else (object,):
            t, cap = up_weight(
                np.array(q, dtype=dtype), np.array(r, dtype=dtype), den, scheme,
                np.array(sign, dtype=np.int64),
            )
            assert t.dtype == dtype and t.shape == (n,)
            assert [(int(v), cap) for v in t] == scalar

    @given(
        data=st.data(),
        den=st.integers(min_value=1, max_value=2**40) | st.integers(2**62, 2**100),
        eps=st.fractions(min_value=0, max_value=1).filter(lambda e: 0 < e < 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_signed_sr_eps_on_the_values_sign_is_sr_eps(self, data, den, eps):
        # the fixed-point update rounds t * g with t > 0, so the descent sign
        # it would pass is the sign of the value q + r/den itself
        q = data.draw(st.integers(-(2**20), 2**20) | st.sampled_from([-1, 0]))
        r = data.draw(st.sampled_from(sorted({0, min(1, den - 1), den - 1})) | st.integers(0, den - 1))
        pos = q + Fraction(r, den)
        v_sign = (pos > 0) - (pos < 0)
        assert up_weight(q, r, den, RoundScheme("signed_sr_eps", eps), v_sign) == up_weight(
            q, r, den, RoundScheme("sr_eps", eps)
        )


class TestExpectedRound:
    """E[round(x)] is the `dist_mean` of `round_distribution`."""

    def test_sr_unbiased(self):
        x = Fraction(24, 100)
        assert dist_mean(round_distribution(x, Q11, parse_scheme("sr"))) == x

    def test_sr_eps_bias_is_eps_u_signed(self):
        se = parse_scheme("sr_eps:0.4")
        x = Fraction(1, 5) * Q88.u + Q88.u  # interior for eps=0.4
        assert dist_mean(round_distribution(x, Q88, se)) == x + Fraction(2, 5) * Q88.u
        assert dist_mean(round_distribution(-x, Q88, se)) == -x - Fraction(2, 5) * Q88.u


FP8 = FloatFormat(3, 5)
_TOP_GAP = FP8.max_finite / 7  # fp8e5's top binade steps by max_finite / 7


class TestOutOfRange:
    """Every exact law, and the float grid's one-value rounding, raise just
    past either end of a format's range, whatever the scheme."""

    @pytest.mark.parametrize(
        "fmt, x",
        [
            (Q88, Q88.max_value + Q88.u / 3),
            (Q88, Q88.min_value - Q88.u / 3),
            (FP8, FP8.max_finite + _TOP_GAP / 3),
            (FP8, -FP8.max_finite - _TOP_GAP / 3),
        ],
        ids=["q-above", "q-below", "fp-above", "fp-below"],
    )
    @pytest.mark.parametrize("spec", ["rn", "sr", "sr_eps:0.4"])
    def test_raises(self, fmt, x, spec):
        scheme = parse_scheme(spec)
        for fn in (law, round_distribution):
            with pytest.raises(OverflowError):
                fn(x, fmt, scheme)
        if isinstance(fmt, FloatFormat):
            with pytest.raises(OverflowError):
                fl_round(x, fmt, scheme, RandomStream(0), 0, 0)

    def test_values_past_binary64_keep_their_messages(self):
        # the messages show the value without dividing n / d in binary64
        with pytest.raises(OverflowError, match=r"^1\.0+e\+400 is outside the range of Q8\.8$"):
            round_distribution(10**400, Q88, parse_scheme("sr"))
        # inside binary64's range, though n / d overflows a double
        with pytest.raises(ValueError, match=r"^sr needs a RandomStream to round 1\.79769"):
            fl_round((2**1024 + 2**900 + 1, 1), FloatFormat(53, 11), parse_scheme("sr"))

    @pytest.mark.parametrize("fmt", [Q88, FP8], ids=["q", "fp"])
    def test_range_ends_are_inside(self, fmt):
        top = Q88.max_value if fmt is Q88 else FP8.max_finite
        bottom = Q88.min_value if fmt is Q88 else -FP8.max_finite
        for x in (top, bottom):
            assert round_distribution(x, fmt, parse_scheme("sr")) == {x: 1}


@given(
    fmt=st.sampled_from([Q88, FP8]),
    spec=st.sampled_from(["rn", "sr", "sr_eps:0.4", "sr_eps:1/3"]),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_only_signed_sr_eps_reads_the_lean(fmt, spec, data):
    # lowfloat's update and check_float_drift give the lean -sign(g) under
    # every scheme: every scheme but signed_sr_eps must round as at lean 0
    top = Q88.max_value if fmt is Q88 else FP8.max_finite
    bottom = Q88.min_value if fmt is Q88 else -FP8.max_finite
    x = data.draw(
        st.sampled_from([bottom, Fraction(0), fmt.u if fmt is Q88 else FP8.min_subnormal, top])
        | st.fractions(min_value=-1, max_value=1, max_denominator=1 << 20)
        | st.fractions(min_value=bottom, max_value=top, max_denominator=1 << 8)
    )
    scheme = parse_scheme(spec)
    at_zero = law(x, fmt, scheme, 0)
    for s in (1, -1):
        assert law(x, fmt, scheme, s) == at_zero


class TestVectorPaths:
    def test_matches_scalar_distribution_exactly_when_deterministic(self):
        rn = parse_scheme("rn")
        nums = np.array([24, 26, 50, -24], dtype=np.int64)
        out = round_ratio_vec(nums, 100, Q11, rn)
        assert out.tolist() == [0, 1, 1, 0]

    def test_packaging_dtype_does_not_change_draws(self):
        # equal values must round identically whether they arrive as int64
        # or as Python ints in an object array
        sr = parse_scheme("sr")
        nums = np.array([24, 26, -37], dtype=np.int64)
        small = round_ratio_vec(nums, 100, Q88, sr, RandomStream(3).generator(0, 0))
        boxed = round_ratio_vec(
            np.array([int(v) for v in nums], dtype=object),
            100,
            Q88,
            sr,
            RandomStream(3).generator(0, 0),
        )
        assert small.tolist() == boxed.tolist()

    def test_overflow_raises(self):
        sr = parse_scheme("sr")
        with pytest.raises(OverflowError):
            round_ratio_vec(np.array([3], dtype=np.int64), 2, QFormat(1, 1), sr,
                            RandomStream(0).generator(0, 0))

    def test_doubles_path_identity_on_grid(self):
        sr = parse_scheme("sr")
        vals = np.array([0.5, -0.25, 3.0])
        out = round_doubles_vec(vals, Q88, sr, RandomStream(0).generator(0, 0))
        assert out.tolist() == [128, -64, 768]

    def test_empty_rows_round_at_any_denominator(self):
        # an empty row takes the Python-int path past 2**62, as the empty list does
        sr = parse_scheme("sr")
        for den in (1 << 16, 1 << 70):
            gens = [RandomStream(s).generator(0, 0) for s in range(3)]
            assert round_ratio_vec([], den, Q88, sr, gens[0]) == []
            for num, gen in ((np.zeros(0, dtype=np.int64), gens[0]),
                             (np.zeros((3, 0), dtype=np.int64), gens)):
                out = round_ratio_vec(num, den, Q88, sr, gen)
                assert out.dtype == np.int64 and out.shape == num.shape

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(ValueError, match="denominator must be positive, got 0"):
            round_ratio_vec(np.array([1], dtype=np.int64), 0, Q88, parse_scheme("rn"))

    def test_stochastic_doubles_need_a_word_source(self):
        with pytest.raises(ValueError, match="sr needs a word source"):
            round_doubles_vec(np.array([0.3]), Q88, parse_scheme("sr"))

    def test_float_numerators_rejected(self):
        with pytest.raises(TypeError):
            round_ratio_vec(np.array([1.5]), 2, Q88, parse_scheme("rn"))

    def test_numpy_integers_in_an_object_array_round_as_python_ints(self):
        sr, den = parse_scheme("sr"), 2**62
        want = round_ratio_vec(
            np.array([2**61, 3], dtype=object), den, Q88, sr, RandomStream(5).generator(0, 0)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = round_ratio_vec(
                np.array([np.int64(2**61), np.int64(3)], dtype=object), den, Q88, sr,
                RandomStream(5).generator(0, 0),
            )
        assert want.tolist() == [128, 0]
        assert got.tolist() == want.tolist()

    def test_float_in_an_object_array_rejected(self):
        # sr would round 2.5/2 without complaint: its law never reads q's parity
        with pytest.raises(TypeError):
            round_ratio_vec(
                np.array([2.5], dtype=object), 2, Q88, parse_scheme("sr"),
                RandomStream(5).generator(0, 0),
            )

    def test_numpy_integers_in_a_list_round_as_python_ints(self):
        sr, den = parse_scheme("sr"), 2**62
        want = round_ratio_vec([2**61, 3], den, Q88, sr, RandomStream(5).generator(0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = round_ratio_vec(
                [np.int64(2**61), np.int64(3)], den, Q88, sr, RandomStream(5).generator(0, 0)
            )
        assert want == [128, 0] and got == want
        assert all(type(v) is int for v in got)

    def test_float_in_a_list_rejected(self):
        with pytest.raises(TypeError):
            round_ratio_vec([2.5], 2, Q88, parse_scheme("sr"), RandomStream(5).generator(0, 0))


@st.composite
def _value_and_format(draw):
    qf = draw(st.integers(min_value=0, max_value=10))
    fmt = QFormat(6, qf)
    # draw den first so num/den stays well inside the Q6 integer range
    den = draw(st.integers(min_value=1, max_value=997))
    num = draw(st.integers(min_value=-31 * den, max_value=31 * den))
    return Fraction(num, den), fmt


@given(xf=_value_and_format(), spec=st.sampled_from(["rn", "sr", "sr_eps:0.3"]))
@settings(max_examples=200, deadline=None)
def test_round_lands_on_enclosing_grid_points(xf, spec):
    x, fmt = xf
    scheme = parse_scheme(spec)
    m = round_ratio_vec(x.numerator, x.denominator, fmt, scheme, RandomStream(11).generator(0, 0))
    assert type(m) is int
    gap = Fraction(m, fmt.scale) - x
    assert abs(gap) < fmt.u
    if (x * fmt.scale).denominator == 1:  # on the grid
        assert gap == 0


@given(xf=_value_and_format())
@settings(max_examples=200, deadline=None)
def test_expected_round_is_mean_of_two_point_distribution(xf):
    x, fmt = xf
    sr = parse_scheme("sr")
    assert dist_mean(round_distribution(x, fmt, sr)) == x  # unbiasedness, exactly


# ---------------------------------------------------------------------------
# lanes: one 2-D round_ratio_vec call against one 1-D call per row
# ---------------------------------------------------------------------------


@st.composite
def _lane_case(draw):
    fmt = draw(st.sampled_from([QFormat(8, 8), QFormat(4, 30), QFormat(2, 60)]))
    den = draw(st.sampled_from([3, 1000, (1 << 50) + 1, 1 << 62]))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    # rows are small or past the int64 threshold independently, so one call
    # mixes the int64 and the object path
    lim = -(-(1 << 62) // fmt.scale)
    num = [
        [draw(st.integers(-mag, mag)) for _ in range(cols)]
        for mag in (draw(st.sampled_from([1 << 10, 4 * lim])) for _ in range(rows))
    ]
    seeds = draw(st.lists(st.integers(0, 5), min_size=rows, max_size=rows))
    return fmt, den, num, seeds


@given(case=_lane_case(), spec=st.sampled_from(["rn", "sr", "sr_eps:0.3", "signed_sr_eps:1/3"]))
@settings(max_examples=200, deadline=None)
def test_lanes_round_like_their_rows(case, spec):
    fmt, den, num, seeds = case
    scheme = parse_scheme(spec)

    def gens():
        return [RandomStream(s).generator(2, 7) for s in seeds] if scheme.is_random else None

    fits = all(abs(v) < 1 << 62 for row in num for v in row)
    arr = np.array(num, dtype=np.int64 if fits else object).reshape(len(num), -1)
    batch_gens, row_gens = gens(), gens()
    want = []
    for r in range(len(arr)):
        try:
            g = row_gens[r] if row_gens else None
            want.append(round_ratio_vec(arr[r], den, fmt, scheme, g))
        except OverflowError:
            want = OverflowError
            break
    if want is OverflowError:
        with pytest.raises(OverflowError):
            round_ratio_vec(arr, den, fmt, scheme, batch_gens)
        return
    got = round_ratio_vec(arr, den, fmt, scheme, batch_gens)
    assert got.dtype == np.int64 and got.shape == arr.shape
    assert got.tolist() == [w.tolist() for w in want]
    if scheme.is_random:  # every lane consumed exactly its own row's words
        nxt = [g.integers(0, 1 << 64, size=1, dtype=np.uint64).tolist() for g in batch_gens]
        assert nxt == [g.integers(0, 1 << 64, size=1, dtype=np.uint64).tolist() for g in row_gens]


# ---------------------------------------------------------------------------
# a list of Python ints (and a Python int) against the same values as a row
# ---------------------------------------------------------------------------

_SAFE = 1 << 62


class _ScriptedWords:
    """The given words first, then those of a real op address."""

    def __init__(self, words, seed):
        self._script = list(words)
        self._rest = RandomStream(seed).generator(3, 5)
        self._used = 0

    def integers(self, low, high, size, dtype):
        out = []
        for _ in range(size):
            if self._script:
                out.append(self._script.pop(0))
            else:
                out.extend(self._rest.integers(low, high, size=1, dtype=dtype).tolist())
        self._used += size
        return np.array(out, dtype=np.uint64)


@st.composite
def _int_case(draw):
    fmt = draw(st.sampled_from([QFormat(2, 4), QFormat(8, 8), QFormat(4, 30), QFormat(2, 60)]))
    scheme = parse_scheme(draw(st.sampled_from(["rn", "sr", "sr_eps:0.3", "signed_sr_eps:1/3"])))
    # both sides of every path threshold: |num| * scale, den and the eps cap 2 * den * b
    dens = [1, 3, 1000, 1 << 40, _SAFE - 1, _SAFE, _SAFE + 7]
    if scheme.eps is not None:
        e_lim = -(-_SAFE // (2 * scheme.eps.denominator))
        dens += [e_lim - 1, e_lim]
    den = draw(st.sampled_from(dens))
    lim = -(-_SAFE // fmt.scale)
    g = math.gcd(den, fmt.scale)
    edge_hi = (fmt.max_mantissa + 1) * den // fmt.scale  # rounds up past the top, or onto it
    edge_lo = (fmt.min_mantissa - 1) * den // fmt.scale
    small = st.integers(-5000, 5000)
    crossing = st.sampled_from([lim, -lim, 4 * lim])  # at or past `_object_lim`
    element = st.one_of(
        small,
        st.sampled_from([lim - 1, lim, -lim, 1 - lim]),
        st.integers(-40, 40).map(lambda j: j * (den // g)),  # on the grid
        st.integers(-3, 3).map(lambda j: edge_hi + j),
        st.integers(-3, 3).map(lambda j: edge_lo + j),
    )
    if draw(st.booleans()):
        nums = draw(st.lists(element, min_size=1, max_size=4))
    else:  # a row in which one element alone crosses `_object_lim`
        nums = draw(st.lists(small.filter(lambda v: abs(v) < lim), max_size=3))
        nums.insert(draw(st.integers(0, len(nums))), draw(crossing))
    n = len(nums)
    # "max" forces a rejection redraw wherever the cap is no power of two
    # (every sr_eps cap here), "prefix" lands on element j's 64-bit prefix
    tokens = st.sampled_from(["max", "max", "zero", "prefix", "any"])
    words = draw(st.lists(tokens, max_size=2 * n + 1))
    with_gen = draw(st.sampled_from([True, True, True, False]))
    return fmt, scheme, nums, den, words, draw(st.integers(0, 9)), with_gen


def _call_outcome(call, gen):
    try:
        m = call()
    except (OverflowError, ValueError) as exc:
        m = (type(exc), str(exc))
    return m, None if gen is None else gen._used


@given(case=_int_case())
@settings(max_examples=400, deadline=None)
def test_int_numerator_rounds_like_a_one_element_row(case):
    """A list of Python ints rounds as the one-row int64 and object arrays of
    the same values, and a Python int as the list of one: equal mantissas,
    equal words used (rejection redraws and tie extensions included) and the
    same (type, message) of error."""
    fmt, scheme, nums, den, words, seed, with_gen = case
    weights = [up_weight(*divmod(v * fmt.scale, den), den, scheme) for v in nums]
    script = [
        {"max": (1 << 64) - 1, "zero": 0, "any": 1 << 63}.get(w)
        if w != "prefix"
        else (weights[j % len(nums)][0] << 64) // weights[j % len(nums)][1]
        for j, w in enumerate(words)
    ]

    def gen():
        return _ScriptedWords(script, seed) if with_gen else None

    g = gen()
    want = _call_outcome(lambda: round_ratio_vec(nums, den, fmt, scheme, g), g)
    if not isinstance(want[0], tuple):  # Python ints, no numpy scalar
        assert type(want[0]) is list and all(type(m) is int for m in want[0])
    if len(nums) == 1:
        g = gen()
        got = _call_outcome(lambda: round_ratio_vec(nums[0], den, fmt, scheme, g), g)
        assert isinstance(got[0], tuple) or type(got[0]) is int
        assert (got[0] if isinstance(got[0], tuple) else [got[0]], got[1]) == want
    dtypes = [object] + ([np.int64] if all(abs(v) < 1 << 63 for v in nums) else [])
    for dtype in dtypes:
        g = gen()
        row, row_gens = np.array([nums], dtype=dtype), None if g is None else [g]
        got = _call_outcome(lambda: round_ratio_vec(row, den, fmt, scheme, row_gens)[0], g)
        assert (got[0] if isinstance(got[0], tuple) else got[0].tolist(), got[1]) == want, dtype


@pytest.mark.parametrize(
    "fmt, num, den, spec, wide",
    [
        (QFormat(2, 60), 3, 3, "sr", False),  # |num| * 2**60 against 2**62
        (QFormat(2, 60), 4, 3, "sr", True),
        (QFormat(2, 60), -4, 3, "sr", True),
        (Q88, 5, _SAFE - 1, "sr", False),  # den against 2**62
        (Q88, 5, _SAFE, "sr", True),
        (Q88, 5, (1 << 59) - 1, "sr_eps:1/4", False),  # 2 * den * 4 against 2**62
        (Q88, 5, 1 << 59, "sr_eps:1/4", True),
    ],
)
def test_draw_path_switches_at_2_62(monkeypatch, fmt, num, den, spec, wide):
    calls = []
    for name in ("uniform_below", "bernoulli_ratio"):
        def spy(*args, _name=name, _orig=getattr(rng, name)):
            calls.append(_name)
            return _orig(*args)
        monkeypatch.setattr(rng, name, spy)
    want = ["bernoulli_ratio" if wide else "uniform_below"]
    scheme = parse_scheme(spec)
    round_ratio_vec(num, den, fmt, scheme, RandomStream(1).generator(0, 0))
    assert calls == want
    calls.clear()
    row = np.array([[num]], dtype=object)
    round_ratio_vec(row, den, fmt, scheme, [RandomStream(1).generator(0, 0)])
    assert calls == want


# ---------------------------------------------------------------------------
# round_doubles_vec against a per-element Fraction reference
# ---------------------------------------------------------------------------


def _reference_round_doubles(values, out_fmt, scheme, gen=None, v_sign=0):
    """One exact Fraction per element, then `bernoulli_ratio` on all of them.

    This is the straightforward form of the doubles kernel; the vectorized
    kernel must reproduce its mantissas and consume the same words.
    """
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    n = vals.size
    scale = out_fmt.scale
    q = np.empty(n, dtype=np.int64)
    r_num = np.empty(n, dtype=object)
    r_den = np.empty(n, dtype=object)
    for i, v in enumerate(vals):
        f = Fraction(float(v)) * scale
        qi = f.numerator // f.denominator
        q[i] = qi
        rem = f - qi
        r_num[i] = rem.numerator
        r_den[i] = rem.denominator
    exact = np.array([rn == 0 for rn in r_num], dtype=bool)
    if scheme.kind == "rn":
        up = np.array(
            [
                2 * rn > rd or (2 * rn == rd and qm % 2 == 1)
                for rn, rd, qm in zip(r_num, r_den, q)
            ],
            dtype=bool,
        )
    else:
        if gen is None:
            raise ValueError(f"{scheme} needs a word source")
        if scheme.kind == "sr":
            up = rng.bernoulli_ratio(gen, r_num, r_den, n)
        else:
            if scheme.uses_value_sign:
                s = np.sign(vals).astype(int)
            else:
                s = np.sign(np.broadcast_to(np.asarray(v_sign), (n,)).astype(int))
            a, b = scheme.eps.numerator, scheme.eps.denominator
            t_num = np.empty(n, dtype=object)
            t_den = np.empty(n, dtype=object)
            for i in range(n):
                tn = r_num[i] * b + int(s[i]) * a * r_den[i]
                td = r_den[i] * b
                t_num[i] = min(max(tn, 0), td)
                t_den[i] = td
            up = rng.bernoulli_ratio(gen, t_num, t_den, n)
        up = np.asarray(up, dtype=bool)
        up[exact] = False
    m = q + up.astype(np.int64)
    if ((m < out_fmt.min_mantissa) | (m > out_fmt.max_mantissa)).any():
        raise OverflowError(f"double input overflows {out_fmt}")
    return m


def _draw_probs(vals, fmt, scheme, v_sign):
    """Exact P(up) the bitstream compares against, on-grid values included."""
    out = []
    signs = np.broadcast_to(np.asarray(v_sign), (len(vals),))
    for v, vs in zip(vals, signs):
        pos = Fraction(float(v)) * fmt.scale
        p = pos - (pos.numerator // pos.denominator)
        if scheme.eps is not None:
            s = int(np.sign(v)) if scheme.uses_value_sign else int(np.sign(int(vs)))
            p = min(max(p + s * scheme.eps, Fraction(0)), Fraction(1))
        out.append(p)
    return out


def _outcome(kernel, *args):
    """Mantissas as a list, or the exception type (rounding up can overflow)."""
    try:
        return kernel(*args).tolist()
    except OverflowError:
        return OverflowError


class _CountingGen:
    """Word-source stand-in: optional scripted first words, then a real stream.

    The first `integers` call returns `first` when given; every word drawn
    is counted so two kernels can be held to the same draw layout.
    """

    def __init__(self, seed, first=None):
        self._gen = RandomStream(seed).generator(3, 5)
        self._first = first
        self.words = 0

    def integers(self, low, high, size, dtype):
        if self._first is not None:
            out, self._first = np.array(self._first, dtype=np.uint64), None
            assert out.size == size
        else:
            out = self._gen.integers(low, high, size=size, dtype=dtype)
        self.words += int(np.size(out))
        return out


_DIFF_FORMATS = [QFormat(1, 0), QFormat(2, 20), QFormat(8, 8), QFormat(15, 8), QFormat(4, 52)]
_DIFF_EPS = [Fraction(2, 5), Fraction(1, 3), Fraction(3, 4), Fraction(1, 2**70),
             1 - Fraction(1, 2**70)]


@st.composite
def _double_in_format(draw, fmt):
    """A binary64 inside fmt's range, drawn from the cases that matter."""
    u = 2.0 ** -fmt.qf
    top = fmt.max_mantissa
    m = draw(st.integers(min_value=fmt.min_mantissa, max_value=top - 1))
    kind = draw(st.sampled_from(
        ["grid", "tie", "any", "tiny", "neg_half_gap", "subnormal"]
    ))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    if kind == "grid":
        return m * u
    if kind == "tie":
        return (m + 0.5) * u
    if kind == "any":
        lo, hi = fmt.min_mantissa * u, top * u
        return draw(st.floats(min_value=lo, max_value=hi, allow_nan=False))
    if kind == "tiny":
        return sign * draw(st.integers(min_value=1, max_value=1000)) * 1e-25
    if kind == "neg_half_gap":
        frac = draw(st.floats(min_value=0.0, max_value=0.5, exclude_min=True,
                              exclude_max=True))
        return -frac * u
    return sign * draw(st.integers(min_value=1, max_value=1 << 20)) * 5e-324


@st.composite
def _doubles_case(draw):
    fmt = draw(st.sampled_from(_DIFF_FORMATS))
    vals = np.array(draw(st.lists(_double_in_format(fmt), min_size=1, max_size=24)))
    kind = draw(st.sampled_from(["rn", "sr", "sr_eps", "signed_sr_eps"]))
    eps = draw(st.sampled_from(_DIFF_EPS)) if kind.endswith("eps") else None
    # the kernel takes no sign: the references round signed_sr_eps at lean 0
    return vals, fmt, RoundScheme(kind, eps)


@st.composite
def _range_edge_case(draw):
    """1-4 values of which some sit at the range's edges: |pos| within 1 of
    max_mantissa, either sign, or pos = min_mantissa exactly."""
    fmt = draw(st.sampled_from(_DIFF_FORMATS))
    u = 2.0 ** -fmt.qf

    def edge():
        if draw(st.booleans()):
            return fmt.min_mantissa * u
        frac = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]) | st.floats(-1.0, 1.0))
        return draw(st.sampled_from([-1.0, 1.0])) * (fmt.max_mantissa + frac) * u

    n = draw(st.integers(1, 4))
    vals = [edge() if draw(st.booleans()) else draw(_double_in_format(fmt)) for _ in range(n)]
    kind = draw(st.sampled_from(["rn", "sr", "sr_eps"]))
    eps = draw(st.sampled_from(_DIFF_EPS)) if kind == "sr_eps" else None
    return np.array(vals), fmt, RoundScheme(kind, eps)


@given(case=_doubles_case() | _range_edge_case(),
       seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=600, deadline=None)
def test_doubles_kernel_matches_fraction_reference(case, seed):
    """Mantissas and words against the reference; at the range's edges the
    reference also decides whether the call raises or returns (the kernel
    skips its range scan when max |pos| <= max_mantissa)."""
    vals, fmt, scheme = case
    g_ref, g_new = _CountingGen(seed), _CountingGen(seed)
    ref = _outcome(_reference_round_doubles, vals, fmt, scheme, g_ref)
    assert _outcome(round_doubles_vec, vals, fmt, scheme, g_new) == ref
    assert g_new.words == g_ref.words


@given(case=_doubles_case(), seed=st.integers(min_value=0, max_value=2**31),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_doubles_kernel_words_on_the_prefix(case, seed, data):
    """First words placed on, or next to, each element's 64-bit prefix.

    u equal to the prefix of a probability with bits below 2**-64 sends the
    element down the extension path, word for word; u one off the prefix
    exercises the neighbours the vectorized kernel settles exactly.
    """
    vals, fmt, scheme = case
    if not scheme.is_random:
        return
    first = []
    for p in _draw_probs(vals, fmt, scheme, 0):
        hi = (p.numerator << 64) // p.denominator
        w = hi + data.draw(st.sampled_from([0, 0, 0, -1, 1, 2]))
        first.append(min(max(w, 0), (1 << 64) - 1))
    g_ref, g_new = _CountingGen(seed, first), _CountingGen(seed, first)
    ref = _outcome(_reference_round_doubles, vals, fmt, scheme, g_ref)
    assert _outcome(round_doubles_vec, vals, fmt, scheme, g_new) == ref
    assert g_new.words == g_ref.words


class TestDoublesKernel:
    def test_negative_residue_below_half_gap(self):
        # pos = -9.08e-23 * 256: pos - floor(pos) rounds to 1.0 in binary64,
        # but the exact residue is 1 - 2.3e-20, so sr almost surely rounds up
        out = round_doubles_vec(
            np.full(64, -9.08e-23), Q88, parse_scheme("sr"), RandomStream(1).generator(0, 0)
        )
        assert out.tolist() == [0] * 64

    def test_forced_tie_extends_like_the_reference(self):
        # P(up) = 2**-70 * 2**8 has no bits in the first word's range: a
        # first word of 0 ties the prefix and needs extension words
        vals = np.array([2.0**-78, 3 * 2.0**-78, 0.5])
        sr = parse_scheme("sr")
        g_ref, g_new = _CountingGen(4, [0, 0, 0]), _CountingGen(4, [0, 0, 0])
        ref = _reference_round_doubles(vals, Q88, sr, g_ref)
        new = round_doubles_vec(vals, Q88, sr, g_new)
        assert new.tolist() == ref.tolist()
        assert g_new.words == g_ref.words > 3

    def test_nan_and_inf_keep_their_errors(self):
        sr = parse_scheme("sr")
        gen = RandomStream(0).generator(0, 0)
        with pytest.raises(ValueError):
            round_doubles_vec(np.array([0.5, np.nan]), Q88, sr, gen)
        for bad in (np.inf, -np.inf, 1e300):
            with pytest.raises(OverflowError):
                round_doubles_vec(np.array([bad]), Q88, sr, gen)
            with pytest.raises(OverflowError):
                round_doubles_vec(np.array([bad]), Q88, parse_scheme("rn"))

    def test_out_of_range_overflows(self):
        with pytest.raises(OverflowError):
            round_doubles_vec(np.array([128.0]), Q88, parse_scheme("rn"))
        with pytest.raises(OverflowError):
            round_doubles_vec(np.array([127.999]), Q88, parse_scheme("sr_eps:0.5"),
                              RandomStream(0).generator(0, 0))


class _ViewWords:
    """A word source whose `integers` hands out views into its own script."""

    def __init__(self, seed, size):
        gen = RandomStream(seed).generator(0, 0)
        self.script = gen.integers(0, 2**64, size=size, dtype=np.uint64)
        self._at = 0

    def integers(self, low, high, size, dtype):
        out = self.script[self._at:self._at + size]
        self._at += size
        return out


@pytest.mark.parametrize("fmt", [QFormat(8, 0), Q88, QFormat(15, 8)])
@pytest.mark.parametrize("spec", ["sr", "sr_eps:0.4", "signed_sr_eps:1/4"])
@pytest.mark.parametrize("den", [1 << 16, 3])
def test_kernels_write_only_into_their_own_arrays(fmt, spec, den):
    scheme = parse_scheme(spec)
    num = np.arange(-40, 40, dtype=np.int64) * 3
    vals = num / 7.0
    given = num.copy(), vals.copy()
    sources = [_ViewWords(seed, 1000) for seed in range(3)]
    scripts = [s.script.copy() for s in sources]
    round_ratio_vec(num, den, fmt, scheme, sources[0])
    round_ratio_vec(num.reshape(2, -1), den, fmt, scheme, sources[1:])
    round_doubles_vec(vals, fmt, scheme, sources[0])
    assert all(s._at > 0 for s in sources)
    for s, script in zip(sources, scripts):
        assert (s.script == script).all()
    assert (num == given[0]).all() and (vals == given[1]).all()
