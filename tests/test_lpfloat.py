"""Tests for custom floating-point grids and stochastic rounding onto them."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpgd.lpfloat import (
    FloatFormat,
    _ilog2,
    _pow2,
    binade_gap,
    expected_round_fl,
    fl_round,
    fl_sub_round,
    is_representable,
    neighbors,
    parse_float_format,
    prob_round_down_fl,
)
from lpgd.rng import RandomStream
from lpgd.rounding import parse_scheme

FP8 = FloatFormat(3, 5)  # 1 sign + 5 exp + 2 stored significand bits
SR = parse_scheme("sr")
RN = parse_scheme("rn")


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
        assert binade_gap(Fraction(3, 4), FP8) == Fraction(1, 8)
        assert binade_gap(Fraction(3, 2), FP8) == Fraction(1, 4)
        assert binade_gap(Fraction(3), FP8) == Fraction(1, 2)

    def test_gap_at_zero_is_subnormal_step(self):
        assert binade_gap(0, FP8) == FP8.min_subnormal

    def test_gap_ignores_sign(self):
        assert binade_gap(Fraction(-3, 2), FP8) == Fraction(1, 4)


class TestRoundingLaws:
    def test_rn_ties_to_even_significand(self):
        # 9/8 sits midway between 1 (even significand 8) and 5/4 (odd 10... )
        # even/odd is judged on the significand integer within the binade
        lo, hi = neighbors(Fraction(9, 8), FP8)
        mid = (lo + hi) / 2
        p = prob_round_down_fl(mid, FP8, RN)
        down = fl_round(mid, FP8, RN)
        assert p in (Fraction(0), Fraction(1))
        assert down in (lo, hi)
        # whichever neighbor wins must have an even significand
        e_gap = binade_gap(down, FP8)
        assert int(abs(down) / e_gap) % 2 == 0

    def test_sr_probability_is_distance_fraction(self):
        x = Fraction(11, 10)
        p = prob_round_down_fl(x, FP8, SR)
        assert p == 1 - (x - 1) / Fraction(1, 4)

    def test_sr_is_exactly_unbiased(self):
        for x in (Fraction(11, 10), Fraction(19, 10), Fraction(-3, 7)):
            assert expected_round_fl(x, FP8, SR) == x

    def test_sr_eps_bias_is_eps_times_gap(self):
        scheme = parse_scheme("sr_eps:0.1")
        x = Fraction(11, 10)  # interior, away from the clamp
        got = expected_round_fl(x, FP8, scheme)
        assert got == x + scheme.eps * Fraction(1, 4)

    def test_signed_scheme_uses_caller_sign(self):
        # v_sign = +1 lowers the round-down probability, so it biases up,
        # matching what sr_eps does on positive values
        scheme = parse_scheme("signed_sr_eps:0.1")
        x = Fraction(11, 10)
        up_biased = expected_round_fl(x, FP8, scheme, v_sign=1)
        down_biased = expected_round_fl(x, FP8, scheme, v_sign=-1)
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

    def test_sub_round_is_single_rounding_of_exact_difference(self):
        a, b = Fraction(3, 2), Fraction(2, 5)
        direct = fl_round(a - b, FP8, SR, RandomStream(8), 0, 0)
        fused = fl_sub_round(a, b, FP8, SR, RandomStream(8), 0, 0)
        assert direct == fused


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
        assert hi - lo == binade_gap(x, FP8) or (
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
    assert expected_round_fl(x, FP8, SR) == x


# ---------------------------------------------------------------------------
# prob_round_down_fl against its former per-format implementation
# ---------------------------------------------------------------------------


def _reference_mantissa_parity(v, fmt):
    """Parity of the significand of a representable value, in its own binade."""
    if v == 0:
        return 0
    a = abs(v)
    e = max(_ilog2(a), fmt.emin)
    gap = _pow2(e - fmt.sig_bits + 1)
    m = a / gap
    assert m.denominator == 1, f"{v} is not on the {fmt} grid"
    return int(m) & 1


def _reference_prob_round_down_fl(x, fmt, scheme, v_sign=0):
    """The law as lpfloat wrote it out before it shared rounding.up_weight."""
    v = Fraction(x)
    lo, hi = neighbors(v, fmt)
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
    gap = _pow2(e - fmt.sig_bits + 1)
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
    assert prob_round_down_fl(v, fmt, scheme, v_sign) == _reference_prob_round_down_fl(
        v, fmt, scheme, v_sign
    )
