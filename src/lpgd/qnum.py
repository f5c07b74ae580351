"""Two's-complement fixed-point formats and exact arithmetic on them.

Values are stored as integer mantissas: a Q(qi).(qf) number with mantissa m
represents m * 2**-qf.  Everything here is exact; rounding into a format is
the job of the `rounding` module.  Out-of-range results raise OverflowError
(saturation is never silent).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from fractions import Fraction
from typing import Tuple, Union

import numpy as np

# Anything we can convert to an exact rational without loss.
ExactReal = Union[int, float, Fraction]

_Q_PATTERN = re.compile(r"^[Qq](\d+)\.(\d+)$")


def to_fraction(x: ExactReal) -> Fraction:
    """Exact rational value of x (floats via their binary64 expansion)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError(f"not a finite value: {x!r}")
        return Fraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact real")


def to_ratio(x) -> Tuple[int, int]:
    """x as an integer ratio (n, d) with d > 0, not necessarily in lowest
    terms: x is an exact value, or already such a ratio."""
    if type(x) is tuple:
        return x
    if type(x) is int:
        return x, 1
    v = to_fraction(x)
    return v.numerator, v.denominator


def ratio_str(n: int, d: int) -> str:
    """n/d for an error message: binary64, or 17 digits past its range."""
    try:
        return repr(n / d)
    except OverflowError:
        return f"{Decimal(n) / Decimal(d):.17g}"


@dataclass(frozen=True)
class QFormat:
    """Signed fixed-point format with qi integer bits and qf fractional bits.

    The sign bit counts toward qi, so Q8.8 spans [-128, 128 - 2**-8] in steps
    of 2**-8 and occupies 16 bits.  `scale` and the mantissa bounds are
    computed once per format object; equality and hashing use (qi, qf) only.
    """

    qi: int
    qf: int

    def __post_init__(self) -> None:
        if self.qi < 1:
            raise ValueError(f"need at least one integer (sign) bit, got qi={self.qi}")
        if self.qf < 0:
            raise ValueError(f"fractional bits must be >= 0, got qf={self.qf}")
        if self.qi + self.qf > 63:
            raise ValueError(f"Q{self.qi}.{self.qf} does not fit in 64-bit mantissas")

    @cached_property
    def scale(self) -> int:
        """Mantissa units per 1.0, i.e. 2**qf."""
        return 1 << self.qf

    @property
    def u(self) -> Fraction:
        """Grid spacing 2**-qf."""
        return Fraction(1, self.scale)

    @cached_property
    def min_mantissa(self) -> int:
        return -(1 << (self.qi + self.qf - 1))

    @cached_property
    def max_mantissa(self) -> int:
        return (1 << (self.qi + self.qf - 1)) - 1

    @property
    def min_value(self) -> Fraction:
        return Fraction(self.min_mantissa, self.scale)

    @property
    def max_value(self) -> Fraction:
        return Fraction(self.max_mantissa, self.scale)

    def check_mantissa(self, m: int) -> int:
        """Return m unchanged, or raise OverflowError when out of range."""
        if not self.min_mantissa <= m <= self.max_mantissa:
            raise OverflowError(
                f"value {m}*2^-{self.qf} is outside {self} "
                f"[{float(self.min_value)}, {float(self.max_value)}]"
            )
        return m

    def split(self, n: int, d: int) -> Tuple[int, int, int, int]:
        """(q, r, den, g) with x = n/d = (q + r/den) * 2**g, 0 <= r < den and
        g = -qf, the grid split `lpfloat.FloatFormat.split` makes on a float
        grid.  d > 0; n/d need not be in lowest terms.

        x outside [min_value, max_value] raises OverflowError.
        """
        q, r = divmod(n << self.qf, d)
        if q < self.min_mantissa or q + (r > 0) > self.max_mantissa:
            raise OverflowError(f"{ratio_str(n, d)} is outside the range of {self}")
        return q, r, d, -self.qf

    def __str__(self) -> str:
        return f"Q{self.qi}.{self.qf}"


def parse_rational(value: Union[str, ExactReal]) -> Fraction:
    """Exact rational from '2^-10', '3/250', '0.012', a number, or a Fraction.

    Strings parse exactly (decimal text means the decimal, not its binary64
    image); bare floats are taken at their exact binary64 value.
    """
    if isinstance(value, str):
        text = value.strip()
        m = re.match(r"^([+-]?)(\d+)\^([+-]?\d+)$", text)
        try:
            if m:  # the sign applies to the power: -2^-4 is -(2^-4)
                power = Fraction(int(m.group(2))) ** int(m.group(3))
                return -power if m.group(1) == "-" else power
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    return to_fraction(value)


def parse_named(name: str, value, parse=parse_rational, want: str = "a rational number"):
    """parse(value), or a ValueError naming the field for a value it cannot read."""
    try:
        return parse(value)
    except (AttributeError, TypeError, ValueError):
        raise ValueError(f"{name} must be {want}, got {value!r}") from None


def make_format(spec: Union[str, Tuple[int, int], QFormat]) -> QFormat:
    """Build a QFormat from 'Q<qi>.<qf>', from a (qi, qf) pair of integers,
    or pass one through."""
    if isinstance(spec, QFormat):
        return spec
    if isinstance(spec, (tuple, list)):
        if len(spec) != 2 or any(
            isinstance(b, bool) or not isinstance(b, (int, np.integer)) for b in spec
        ):
            raise ValueError(f"a format pair must be two integers (qi, qf), got {spec!r}")
        return QFormat(int(spec[0]), int(spec[1]))
    m = _Q_PATTERN.match(spec.strip()) if isinstance(spec, str) else None
    if not m:
        raise ValueError(f"not a fixed-point format spec: {spec!r}")
    return QFormat(int(m.group(1)), int(m.group(2)))


def from_exact(x: ExactReal, fmt: QFormat) -> int:
    """The mantissa of a value that must already be representable in fmt."""
    v = to_fraction(x) * fmt.scale
    if v.denominator != 1:
        raise ValueError(f"{x} is not on the {fmt} grid (u = 2^-{fmt.qf})")
    return fmt.check_mantissa(int(v))


# ---------------------------------------------------------------------------
# vectors of fixed-point values (the engine's iterate representation)
# ---------------------------------------------------------------------------


@dataclass
class FixedVec:
    """A vector of same-format fixed-point values, mantissas as int64.

    A 2-D m holds one vector per row (the engine's lanes).  Mantissas given
    as Python integers are range-checked before they are narrowed to int64.
    """

    m: np.ndarray
    fmt: QFormat

    def __post_init__(self) -> None:
        m = np.asarray(self.m)
        lo, hi = self.fmt.min_mantissa, self.fmt.max_mantissa
        if m.size and (m.min() < lo or m.max() > hi):
            bad = m[(m < lo) | (m > hi)][0]
            raise OverflowError(f"mantissa {int(bad)} outside {self.fmt}")
        self.m = m.astype(np.int64, copy=False)

    @classmethod
    def of_checked(cls, m: np.ndarray, fmt: QFormat) -> "FixedVec":
        """Wrap int64 mantissas already known to lie in fmt's range, such as
        the results of checked ops, without scanning them again."""
        vec = cls.__new__(cls)
        vec.m, vec.fmt = m, fmt
        return vec

    def to_fractions(self) -> list[Fraction]:
        return [Fraction(int(mi), self.fmt.scale) for mi in self.m]
