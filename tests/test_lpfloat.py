"""Tests for custom floating-point grids and stochastic rounding onto them."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpgd.lpfloat import (
    FloatFormat,
    fl_round,
    is_representable,
    neighbors,
    pair_fraction,
    parse_float_format,
    to_pair,
)
from lpgd.oracle import dist_mean, round_distribution
from lpgd.qnum import to_ratio
from lpgd.rng import RandomStream
from lpgd.rounding import expected_round, parse_scheme, prob_round_down, up_weight

FP8 = FloatFormat(3, 5)  # 1 sign + 5 exp + 2 stored significand bits
SR = parse_scheme("sr")
RN = parse_scheme("rn")


def split_gap(x, fmt):
    """2**g, `FloatFormat.split`'s grid spacing in the binade of |x|."""
    return pair_fraction(1, fmt.split(*to_ratio(x))[3])


class TestFormat:
    def test_fp8e5_constants(self):
        assert FP8.total_bits == 8
        assert FP8.bias == 15
        assert FP8.emin == -14
        assert FP8.emax == 16
        assert FP8.unit_roundoff == Fraction(1, 8)
        assert FP8.min_subnormal == Fraction(1, 1 << 16)
        assert FP8.max_finite == 7 * Fraction(1 << 14)

    def test_parse_spellings(self):
        assert parse_float_format("fp8e5") == FP8
        assert parse_float_format("binary32") == FloatFormat(24, 8)
        assert parse_float_format("binary64") == FloatFormat(53, 11)
        assert parse_float_format(FP8) is FP8

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_float_format("fp8")
        with pytest.raises(ValueError):
            parse_float_format("e5fp8")

    def test_width_validation(self):
        with pytest.raises(ValueError):
            FloatFormat(1, 5)
        with pytest.raises(ValueError):
            FloatFormat(3, 1)
        with pytest.raises(ValueError):
            FloatFormat(60, 5)

    def test_str_round_trips(self):
        assert str(FP8) == "fp8e5"
        assert parse_float_format(str(FP8)) == FP8


class TestGridPairs:
    def test_dyadic_values_only(self):
        assert to_pair(Fraction(3, 8)) == (3, -3)
        with pytest.raises(ValueError, match="1/3 is not dyadic, so no pair"):
            to_pair(Fraction(1, 3))


class TestNeighbors:
    def test_frozen_interior_point(self):
        # in [1, 2) the fp8e5 grid steps by 1/4
        lo, hi = neighbors(Fraction(11, 10), FP8)
        assert (lo, hi) == (Fraction(1), Fraction(5, 4))

    def test_frozen_upper_half_of_binade(self):
        lo, hi = neighbors(Fraction(19, 10), FP8)
        assert (lo, hi) == (Fraction(7, 4), Fraction(2))

    def test_negative_mirrors_positive(self):
        lo, hi = neighbors(Fraction(-11, 10), FP8)
        assert (lo, hi) == (Fraction(-5, 4), Fraction(-1))

    def test_representable_point_is_its_own_pair(self):
        lo, hi = neighbors(Fraction(3, 2), FP8)
        assert lo == hi == Fraction(3, 2)
        assert is_representable(Fraction(3, 2), FP8)

    def test_zero(self):
        assert neighbors(0, FP8) == (0, 0)
        assert is_representable(0, FP8)

    def test_subnormal_grid_is_uniform(self):
        step = FP8.min_subnormal
        lo, hi = neighbors(step / 2, FP8)
        assert (lo, hi) == (0, step)
        assert is_representable(3 * step, FP8)

    def test_binade_top_crossing(self):
        # just under a power of two: hi lands on the next binade exactly
        x = Fraction(2) - Fraction(1, 100)
        lo, hi = neighbors(x, FP8)
        assert hi == 2
        assert lo == Fraction(7, 4)

    def test_overflow_is_hard(self):
        with pytest.raises(OverflowError):
            neighbors(FP8.max_finite + 1, FP8)
        assert not is_representable(FP8.max_finite * 2, FP8)

    def test_max_finite_itself_is_fine(self):
        lo, hi = neighbors(FP8.max_finite, FP8)
        assert lo == hi == FP8.max_finite


class TestBinadeGap:
    def test_gap_doubles_per_binade(self):
        assert split_gap(Fraction(3, 4), FP8) == Fraction(1, 8)
        assert split_gap(Fraction(3, 2), FP8) == Fraction(1, 4)
        assert split_gap(Fraction(3), FP8) == Fraction(1, 2)

    def test_gap_at_zero_is_subnormal_step(self):
        assert split_gap(0, FP8) == FP8.min_subnormal

    def test_gap_ignores_sign(self):
        assert split_gap(Fraction(-3, 2), FP8) == Fraction(1, 4)

    def test_beyond_range_raises_like_neighbors(self):
        # past max_finite there is no binade to report: raise, as neighbors does
        top_gap = FP8.max_finite / 7
        for x in (4 * FP8.max_finite, FP8.max_finite + top_gap / 2, -FP8.max_finite - top_gap):
            with pytest.raises(OverflowError):
                split_gap(x, FP8)
        assert split_gap(-FP8.max_finite, FP8) == top_gap


class TestRoundingLaws:
    def test_rn_ties_to_even_significand(self):
        # 9/8 sits midway between 1 (even significand 8) and 5/4 (odd 10... )
        # even/odd is judged on the significand integer within the binade
        lo, hi = neighbors(Fraction(9, 8), FP8)
        mid = (lo + hi) / 2
        p = prob_round_down(mid, FP8, RN)
        down = fl_round(mid, FP8, RN)
        assert p in (Fraction(0), Fraction(1))
        assert down in (lo, hi)
        # whichever neighbor wins must have an even significand
        e_gap = split_gap(down, FP8)
        assert int(abs(down) / e_gap) % 2 == 0

    def test_sr_probability_is_distance_fraction(self):
        x = Fraction(11, 10)
        p = prob_round_down(x, FP8, SR)
        assert p == 1 - (x - 1) / Fraction(1, 4)

    def test_sr_is_exactly_unbiased(self):
        for x in (Fraction(11, 10), Fraction(19, 10), Fraction(-3, 7)):
            assert expected_round(x, FP8, SR) == x

    def test_sr_eps_bias_is_eps_times_gap(self):
        scheme = parse_scheme("sr_eps:0.1")
        x = Fraction(11, 10)  # interior, away from the clamp
        got = expected_round(x, FP8, scheme)
        assert got == x + scheme.eps * Fraction(1, 4)

    def test_signed_scheme_uses_caller_sign(self):
        # v_sign = +1 lowers the round-down probability, so it biases up,
        # matching what sr_eps does on positive values
        scheme = parse_scheme("signed_sr_eps:0.1")
        x = Fraction(11, 10)
        up_biased = dist_mean(round_distribution(x, FP8, scheme, 1))
        down_biased = dist_mean(round_distribution(x, FP8, scheme, -1))
        assert up_biased == x + scheme.eps * Fraction(1, 4)
        assert down_biased == x - scheme.eps * Fraction(1, 4)

    def test_representable_is_identity_for_all_schemes(self):
        for spec in ("rn", "sr", "sr_eps:0.3", "signed_sr_eps:0.3"):
            assert fl_round(Fraction(3, 2), FP8, parse_scheme(spec), v_sign=1) == Fraction(3, 2)

    def test_stochastic_round_requires_stream(self):
        with pytest.raises(ValueError):
            fl_round(Fraction(11, 10), FP8, SR)

    def test_round_replays_by_seed(self):
        x = Fraction(11, 10)
        a = fl_round(x, FP8, SR, RandomStream(5), 3, 2)
        b = fl_round(x, FP8, SR, RandomStream(5), 3, 2)
        assert a == b
        draws = {fl_round(x, FP8, SR, RandomStream(s), 0, 0) for s in range(20)}
        assert draws == {Fraction(1), Fraction(5, 4)}


@given(
    num=st.integers(min_value=-400, max_value=400),
    den=st.integers(min_value=1, max_value=97),
)
@settings(max_examples=200, deadline=None)
def test_neighbors_enclose_and_touch_grid(num, den):
    x = Fraction(num, den)
    lo, hi = neighbors(x, FP8)
    assert lo <= x <= hi
    assert is_representable(lo, FP8) and is_representable(hi, FP8)
    if lo != hi:
        assert hi - lo == split_gap(x, FP8) or (
            # at a binade top the spacing quoted for x is the lower binade's
            abs(hi) == 2 ** (len(bin(int(hi))) - 3)
        )
        assert not is_representable(x, FP8)


@given(
    num=st.integers(min_value=-4000, max_value=4000),
    den=st.integers(min_value=1, max_value=997),
)
@settings(max_examples=200, deadline=None)
def test_sr_unbiased_everywhere(num, den):
    x = Fraction(num, den)
    assert expected_round(x, FP8, SR) == x


# ---------------------------------------------------------------------------
# the Fraction neighbour search lpfloat ran before its integer split
# ---------------------------------------------------------------------------


def _ref_pow2(e):
    return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)


def _ref_ilog2(x):
    """Largest e with 2**e <= x, for x > 0, exactly."""
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    if e >= 0:
        if n < (d << e):
            e -= 1
    elif (n << -e) < d:
        e -= 1
    return e


def _ref_neighbors(x, fmt):
    v = Fraction(x)
    if v < 0:
        lo, hi = _ref_neighbors(-v, fmt)
        return -hi, -lo
    if v > fmt.max_finite:
        raise OverflowError(f"{float(v)} is beyond the largest finite {fmt} value")
    if v == 0:
        return Fraction(0), Fraction(0)
    e = max(_ref_ilog2(v), fmt.emin)
    gap = _ref_pow2(e - fmt.sig_bits + 1)
    m = (v.numerator * gap.denominator) // (v.denominator * gap.numerator)
    lo = m * gap
    if lo == v:
        return lo, lo
    return lo, lo + gap


def _ref_binade_gap(x, fmt):
    """The former binade_gap, which answered even beyond the largest finite value."""
    v = abs(Fraction(x))
    if v == 0:
        return fmt.min_subnormal
    e = max(_ref_ilog2(v), fmt.emin)
    return _ref_pow2(min(e, fmt.emax) - fmt.sig_bits + 1)


def _ref_up_weight_fl(v, lo, hi, scheme, v_sign):
    pos = v / (hi - lo)
    return up_weight(*divmod(pos.numerator, pos.denominator), pos.denominator, scheme, v_sign)


def _ref_prob_round_down_fl(x, fmt, scheme, v_sign=0):
    v = Fraction(x)
    lo, hi = _ref_neighbors(v, fmt)
    if lo == hi:
        return Fraction(1)
    t, cap = _ref_up_weight_fl(v, lo, hi, scheme, v_sign)
    return 1 - Fraction(t, cap)


def _ref_expected_round_fl(x, fmt, scheme, v_sign=0):
    v = Fraction(x)
    lo, hi = _ref_neighbors(v, fmt)
    if lo == hi:
        return lo
    t, cap = _ref_up_weight_fl(v, lo, hi, scheme, v_sign)
    return lo + (hi - lo) * Fraction(t, cap)


def _ref_bernoulli_ratio(gen, nums, dens, n):
    """rng.bernoulli_ratio as it was, on object arrays."""
    nums = np.asarray(nums, dtype=object).reshape(-1)
    dens = np.asarray(dens, dtype=object).reshape(-1)
    if nums.size == 1:
        nums = np.repeat(nums, n)
    if dens.size == 1:
        dens = np.repeat(dens, n)
    out = np.zeros(n, dtype=bool)
    idx = np.arange(n)
    while idx.size:
        u = gen.integers(0, 2**64, size=idx.size, dtype=np.uint64)
        next_idx = []
        for j, i in enumerate(idx):
            hi, rem = divmod(nums[i] << 64, dens[i])
            w = int(u[j])
            if w < hi:
                out[i] = True
            elif w == hi and rem:
                nums[i] = rem
                next_idx.append(i)
        idx = np.array(next_idx, dtype=np.int64)
    return out


def _ref_fl_round(x, fmt, scheme, stream=None, k=0, tag=0, v_sign=0):
    v = Fraction(x)
    lo, hi = _ref_neighbors(v, fmt)
    if lo == hi:
        return lo
    t, cap = _ref_up_weight_fl(v, lo, hi, scheme, v_sign)
    if t == 0:
        return lo
    if t == cap:
        return hi
    if stream is None:
        raise ValueError(f"{scheme} needs a RandomStream to round {float(v)}")
    down = _ref_bernoulli_ratio(stream.generator(k, tag), cap - t, cap, 1)[0]
    return lo if down else hi


def _reference_mantissa_parity(v, fmt):
    """Parity of the significand of a representable value, in its own binade."""
    if v == 0:
        return 0
    a = abs(v)
    e = max(_ref_ilog2(a), fmt.emin)
    gap = _ref_pow2(e - fmt.sig_bits + 1)
    m = a / gap
    assert m.denominator == 1, f"{v} is not on the {fmt} grid"
    return int(m) & 1


def _reference_prob_round_down_fl(x, fmt, scheme, v_sign=0):
    """The law as lpfloat wrote it out before it shared rounding.up_weight."""
    v = Fraction(x)
    lo, hi = _ref_neighbors(v, fmt)
    if lo == hi:
        return Fraction(1)
    frac = (v - lo) / (hi - lo)
    if scheme.kind == "rn":
        if 2 * frac < 1:
            return Fraction(1)
        if 2 * frac > 1:
            return Fraction(0)
        return Fraction(1) if _reference_mantissa_parity(lo, fmt) == 0 else Fraction(0)
    if scheme.kind == "sr":
        return 1 - frac
    s = ((v > 0) - (v < 0)) if scheme.kind == "sr_eps" else int(v_sign)
    p = 1 - frac - s * scheme.eps
    return Fraction(0) if p < 0 else Fraction(1) if p > 1 else p


@st.composite
def _float_grid_value(draw):
    """A value between two neighbours of fp8e5, fp16e5 or (2, 2): on the grid,
    at ties and third-points, in subnormals and at binade tops, either sign."""
    fmt = draw(st.sampled_from([FP8, parse_float_format("fp16e5"), FloatFormat(2, 2)]))
    e = draw(st.integers(min_value=fmt.emin, max_value=fmt.emax))
    top = (1 << fmt.sig_bits) - 1
    low = 0 if e == fmt.emin else 1 << (fmt.sig_bits - 1)  # subnormals share emin
    m = draw(st.sampled_from([low, low + 1, top - 1, top]) | st.integers(low, top))
    gap = _ref_pow2(e - fmt.sig_bits + 1)
    frac = draw(
        st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)])
        | st.fractions(min_value=0, max_value=1, max_denominator=1 << 12)
    )
    v = (m + frac) * gap
    assume(v <= fmt.max_finite)
    return fmt, draw(st.sampled_from([1, -1])) * v


@given(
    case=_float_grid_value(),
    spec=st.sampled_from(["rn", "sr", "sr_eps:0.1", "sr_eps:1/3", "signed_sr_eps:0.1",
                          "signed_sr_eps:0.9"]),
    v_sign=st.sampled_from([-1, 0, 1]),
)
@settings(max_examples=400, deadline=None)
def test_prob_round_down_fl_matches_reference(case, spec, v_sign):
    fmt, v = case
    scheme = parse_scheme(spec)
    assert prob_round_down(v, fmt, scheme) == _reference_prob_round_down_fl(v, fmt, scheme)
    # the lean reaches the law through round_distribution: its mass on the
    # lower neighbour is the reference's P(round down) at that lean
    lo = _ref_neighbors(v, fmt)[0]
    p_down = round_distribution(v, fmt, scheme, v_sign).get(lo, Fraction(0))
    assert p_down == _reference_prob_round_down_fl(v, fmt, scheme, v_sign)


# ---------------------------------------------------------------------------
# the integer split against the Fraction reference, words included
# ---------------------------------------------------------------------------

FORMATS = [FP8, parse_float_format("fp16e5"), FloatFormat(2, 2), parse_float_format("binary32")]


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


class _ScriptedStream:
    """A RandomStream stand-in whose every op address plays the same script."""

    def __init__(self, words):
        self.words, self.ops = words, []

    def generator(self, k, tag):
        self.ops.append((k, tag, _Words(self.words)))
        return self.ops[-1][2]

    def log(self):
        return [(k, tag, gen.used) for k, tag, gen in self.ops]


def _prefix_script(p, deltas):
    """Words next to the successive 64-bit digits of p in (0, 1), offset by
    deltas, then one word off the next digit, so a Bernoulli(p) draw that
    keeps landing on the prefix still decides inside the script."""
    words = []
    for delta in deltas + [None]:
        p *= 2**64
        digit = int(p)
        p -= digit
        words.append(digit ^ 1 if delta is None else min(max(digit + delta, 0), 2**64 - 1))
    return words


@st.composite
def _edge_value(draw):
    """A format and a value: zero, grid points, ties and third-points,
    subnormals, binade tops, +-max_finite +- one top gap, and non-dyadic
    values from below the subnormals to past the top, either sign."""
    fmt = draw(st.sampled_from(FORMATS))
    p = fmt.sig_bits
    top_gap = _ref_pow2(fmt.emax - p + 1)
    e = draw(st.integers(fmt.emin - p - 1, fmt.emax + 2))
    v = draw(
        st.sampled_from(
            [Fraction(0), fmt.min_subnormal, _ref_pow2(e), fmt.max_finite - top_gap,
             fmt.max_finite, fmt.max_finite + top_gap / 3, fmt.max_finite + top_gap]
        )
        | st.builds(
            lambda m, f: (m + f) * _ref_pow2(max(e, fmt.emin) - p + 1),
            st.sampled_from([0, 1, (1 << p) - 1, 1 << p]) | st.integers(0, 1 << p),
            st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]),
        )
        | st.builds(
            lambda a, b: Fraction(a, b) * _ref_pow2(e),
            st.integers(1, 10**6),
            st.integers(1, 10**6),
        )
    )
    return fmt, draw(st.sampled_from([1, -1])) * v


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _all_outcomes(api, v, fmt, scheme, v_sign, stream):
    """Each reader's value or error type; v_sign is the rounding's lean, which
    prob_round_down and expected_round do not take."""
    neighbors_, prob_, expected_, round_ = api
    return (
        _outcome(neighbors_, v, fmt),
        _outcome(prob_, v, fmt, scheme),
        _outcome(expected_, v, fmt, scheme),
        _outcome(round_, v, fmt, scheme, stream, 3, 7, v_sign),
        stream.log() if stream else None,
    )


@given(
    case=_edge_value(),
    spec=st.sampled_from(["rn", "sr", "sr_eps:0.4", "sr_eps:1/3", "signed_sr_eps:0.1"]),
    v_sign=st.sampled_from([-1, 0, 1]),
    deltas=st.lists(st.sampled_from([-1, 0, 1]) | st.integers(-(2**64), 2**64), max_size=3),
    with_stream=st.booleans(),
)
@settings(max_examples=600, deadline=None)
def test_integer_split_matches_fraction_reference(case, spec, v_sign, deltas, with_stream):
    fmt, v = case
    scheme = parse_scheme(spec)
    p = _outcome(_ref_prob_round_down_fl, v, fmt, scheme, v_sign)
    words = _prefix_script(p if isinstance(p, Fraction) and 0 < p < 1 else Fraction(1, 2), deltas)
    streams = [_ScriptedStream(words) if with_stream else None for _ in range(2)]
    got = _all_outcomes(
        (neighbors, prob_round_down, expected_round, fl_round), v, fmt, scheme, v_sign,
        streams[0],
    )
    want = _all_outcomes(
        (_ref_neighbors, _ref_prob_round_down_fl, _ref_expected_round_fl, _ref_fl_round),
        v, fmt, scheme, v_sign, streams[1],
    )
    assert got == want
    values = (got[0] if isinstance(got[0], tuple) else ()) + got[1:4]
    assert all(type(x) is Fraction for x in values if not isinstance(x, type))
    # the reference's binade_gap answers past max_finite; split raises there
    gap_want = OverflowError if want[0] is OverflowError else _ref_binade_gap(v, fmt)
    assert _outcome(split_gap, v, fmt) == gap_want
    assert is_representable(v, fmt) == (want[0] is not OverflowError and want[0][0] == want[0][1])


# ---------------------------------------------------------------------------
# unreduced ratios: the engine never reduces an op result
# ---------------------------------------------------------------------------


def _result(fn, *args):
    """fn's value, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@given(
    case=_edge_value(),
    scale=st.sampled_from([3, 10, 2**70]),
    spec=st.sampled_from(["rn", "sr", "sr_eps:0.4", "signed_sr_eps:0.1"]),
    v_sign=st.sampled_from([-1, 0, 1]),
    deltas=st.lists(st.sampled_from([-1, 0, 1]) | st.integers(-(2**64), 2**64), max_size=3),
)
@settings(max_examples=400, deadline=None)
def test_unreduced_ratio_splits_and_rounds_as_its_lowest_terms(case, scale, spec, v_sign, deltas):
    fmt, v = case
    n, d = v.numerator, v.denominator
    split, scaled = _result(fmt.split, n, d), _result(fmt.split, scale * n, scale * d)
    if isinstance(split, tuple) and len(split) == 4:
        (q, r, den, g), (kq, kr, kden, kg) = split, scaled
        assert (kq, kg) == (q, g) and Fraction(kr, kden) == Fraction(r, den)
    else:
        assert scaled == split  # the same OverflowError, message included
    scheme = parse_scheme(spec)
    p = _outcome(_ref_prob_round_down_fl, v, fmt, scheme, v_sign)
    words = _prefix_script(p if isinstance(p, Fraction) and 0 < p < 1 else Fraction(1, 2), deltas)
    streams = [_ScriptedStream(words) for _ in range(3)]
    outcomes = [
        _result(fl_round, x, fmt, scheme, stream, 3, 7, v_sign)
        for x, stream in zip([(n, d), (scale * n, scale * d), v], streams)
    ]
    logs = [stream.log() for stream in streams]
    assert logs[0] == logs[1] == logs[2]
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], tuple) and type(outcomes[0][0]) is int:  # a grid pair
        assert pair_fraction(*outcomes[0]) == outcomes[2]
    else:
        assert outcomes[0] == outcomes[2]
