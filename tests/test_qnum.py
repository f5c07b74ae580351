"""Fixed-point formats, exact values, and overflow behavior."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lpgd.qnum import (
    FixedVec,
    QFormat,
    from_exact,
    make_format,
    parse_rational,
    to_fraction,
)


class TestQFormat:
    def test_q88_constants(self):
        fmt = QFormat(8, 8)
        assert fmt.scale == 256
        assert fmt.u == Fraction(1, 256)
        assert fmt.min_value == -128
        assert fmt.max_value == Fraction(128 * 256 - 1, 256)

    def test_bounds_are_computed_once_and_stay_out_of_equality(self):
        a, b = QFormat(8, 8), QFormat(8, 8)
        assert (a.scale, a.min_mantissa, a.max_mantissa) == (256, -(2**15), 2**15 - 1)
        assert {"scale", "min_mantissa", "max_mantissa"} <= set(vars(a))
        assert not {"scale", "min_mantissa", "max_mantissa"} & set(vars(b))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != QFormat(8, 7)

    def test_q11_range(self):
        fmt = QFormat(1, 1)
        assert fmt.min_value == -1
        assert fmt.max_value == Fraction(1, 2)

    def test_parse_spellings(self):
        assert make_format("Q8.8") == QFormat(8, 8)
        assert make_format("Q15.6") == QFormat(15, 6)
        assert make_format((6, 10)) == QFormat(6, 10)
        assert make_format(QFormat(2, 3)) == QFormat(2, 3)

    @pytest.mark.parametrize(
        "pair", [(8.7, 6.2), [True, 6], (8, "6"), (8,)], ids=["floats", "bool", "text", "one"]
    )
    def test_pair_must_be_two_integers(self, pair):
        # int() would read (8.7, 6.2) as Q8.6 and [True, 6] as Q1.6
        with pytest.raises(ValueError, match="two integers"):
            make_format(pair)

    def test_bare_integer_is_no_spec(self):
        # the two-int form make_format(qi, qf) is gone; one count names no format
        with pytest.raises(ValueError, match="not a fixed-point format spec: 8"):
            make_format(8)

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            QFormat(0, 8)
        with pytest.raises(ValueError):
            QFormat(40, 40)
        with pytest.raises(ValueError):
            QFormat(8, -1)

    def test_holds_exactly(self):
        # from_exact takes exactly the values on the grid and inside the range
        fmt = QFormat(8, 8)
        assert from_exact(Fraction(1, 256), fmt) == 1
        assert from_exact(Fraction(-128), fmt) == fmt.min_mantissa
        for off_grid in (Fraction(1, 512), Fraction(3, 10)):
            with pytest.raises(ValueError, match="not on the Q8.8 grid"):
                from_exact(off_grid, fmt)
        with pytest.raises(OverflowError):
            from_exact(Fraction(128), fmt)


class TestParseRational:
    def test_power_of_two(self):
        assert parse_rational("2^-10") == Fraction(1, 1024)
        assert parse_rational("2^3") == 8

    def test_sign_applies_to_the_power(self):
        assert parse_rational("-2^-4") == Fraction(-1, 16)
        assert parse_rational("-2^2") == -4
        assert parse_rational("+2^-1") == Fraction(1, 2)

    def test_fraction_text(self):
        assert parse_rational("3/250") == Fraction(3, 250)

    def test_decimal_text_is_exact(self):
        assert parse_rational("0.012") == Fraction(3, 250)
        assert parse_rational("0.1") == Fraction(1, 10)

    def test_number_passthrough(self):
        assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)
        assert parse_rational(0.5) == Fraction(1, 2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            to_fraction(float("nan"))
        with pytest.raises(ValueError):
            to_fraction(float("inf"))

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            parse_rational("1/0")
        with pytest.raises(ValueError, match=r"zero denominator in '0\^-1'"):
            parse_rational("0^-1")


class TestFixedVal:
    """One fixed-point value is its checked mantissa, as `from_exact` gives it."""

    def test_from_exact_on_grid(self):
        m = from_exact(Fraction(3, 4), QFormat(4, 4))
        assert type(m) is int and m == 12

    def test_from_exact_off_grid_raises(self):
        with pytest.raises(ValueError):
            from_exact(Fraction(1, 3), QFormat(4, 4))

    def test_from_exact_out_of_range_raises(self):
        with pytest.raises(OverflowError):
            from_exact(8, QFormat(4, 4))
        assert from_exact(-8, QFormat(4, 4)) == -128


class TestFixedVec:
    def test_roundtrip(self):
        fmt = QFormat(8, 8)
        values = [Fraction(1, 2), -2, Fraction(255, 256)]
        v = FixedVec(np.array([from_exact(x, fmt) for x in values]), fmt)
        assert v.to_fractions() == values

    def test_range_validated_both_sides(self):
        fmt = QFormat(2, 2)
        with pytest.raises(OverflowError):
            FixedVec(np.array([fmt.max_mantissa + 1]), fmt)
        with pytest.raises(OverflowError):
            FixedVec(np.array([fmt.min_mantissa - 1]), fmt)


@given(
    qi=st.integers(min_value=1, max_value=16),
    qf=st.integers(min_value=0, max_value=16),
    m=st.integers(),
)
def test_mantissa_range_check_matches_bounds(qi, qf, m):
    fmt = QFormat(qi, qf)
    in_range = fmt.min_mantissa <= m <= fmt.max_mantissa
    if in_range:
        assert fmt.check_mantissa(m) == m
    else:
        with pytest.raises(OverflowError):
            fmt.check_mantissa(m)
