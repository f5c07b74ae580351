"""Custom floating-point grids and rounding onto them.

A FloatFormat is IEEE-style (sign bit, biased exponent, implicit leading
significand bit, gradual underflow) with one deliberate difference: no
exponent codes are reserved for inf/nan, the top binade holds ordinary
numbers, and anything past the largest finite value is a hard OverflowError.

Values on the grid are handled as exact Fractions.  Rounding uses the one
two-point law of `rounding.up_weight` at the position x / gap, where gap is
the distance between the two enclosing grid points: floor(x / gap) = lo / gap
is an integer with the parity of lo's significand, so rn's ties-to-even and
the sign that sr_eps reads come out as in the fixed-point case, just on a
magnitude-dependent grid.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from . import rng
from .qnum import ExactReal, to_fraction
from .rounding import RoundScheme, up_weight

_FP_PATTERN = re.compile(r"^fp(\d+)e(\d+)$")


@dataclass(frozen=True)
class FloatFormat:
    """sig_bits counts the implicit leading bit, so binary32 is (24, 8)."""

    sig_bits: int
    exp_bits: int

    def __post_init__(self) -> None:
        if self.sig_bits < 2:
            raise ValueError(f"need sig_bits >= 2, got {self.sig_bits}")
        if self.exp_bits < 2:
            raise ValueError(f"need exp_bits >= 2, got {self.exp_bits}")
        if self.sig_bits + self.exp_bits > 64:
            raise ValueError("more than 64 encoded bits is unsupported")

    @property
    def total_bits(self) -> int:
        return 1 + self.exp_bits + self.sig_bits - 1

    @property
    def bias(self) -> int:
        return (1 << (self.exp_bits - 1)) - 1

    @property
    def emin(self) -> int:
        """Exponent of the smallest normal binade."""
        return 1 - self.bias

    @property
    def emax(self) -> int:
        """Exponent of the largest binade (no codes lost to inf/nan)."""
        return ((1 << self.exp_bits) - 1) - self.bias

    @property
    def unit_roundoff(self) -> Fraction:
        """Relative grid spacing 2**-sig_bits (half the epsilon of the format)."""
        return Fraction(1, 1 << self.sig_bits)

    @property
    def min_subnormal(self) -> Fraction:
        return _pow2(self.emin - self.sig_bits + 1)

    @property
    def max_finite(self) -> Fraction:
        full = (1 << self.sig_bits) - 1  # 2 - 2^(1-sig), scaled
        return full * _pow2(self.emax - self.sig_bits + 1)

    def __str__(self) -> str:
        return f"fp{self.total_bits}e{self.exp_bits}"


def parse_float_format(spec: Union[str, FloatFormat]) -> FloatFormat:
    """Parse 'fp<total>e<exp_bits>', 'binary32' or 'binary64'."""
    if isinstance(spec, FloatFormat):
        return spec
    text = spec.strip().lower()
    if text == "binary32":
        return FloatFormat(24, 8)
    if text == "binary64":
        return FloatFormat(53, 11)
    m = _FP_PATTERN.match(text)
    if not m:
        raise ValueError(f"not a float format spec: {spec!r}")
    total, exp_bits = int(m.group(1)), int(m.group(2))
    sig_bits = total - exp_bits  # 1 sign + exp + (sig-1) stored = total
    return FloatFormat(sig_bits, exp_bits)


def _pow2(e: int) -> Fraction:
    return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)


def _ilog2(x: Fraction) -> int:
    """Largest e with 2**e <= x, for x > 0, exactly."""
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    # correct the estimate: compare n / d against 2**e without rounding
    if e >= 0:
        if n < (d << e):
            e -= 1
    elif (n << -e) < d:
        e -= 1
    return e


def neighbors(x: ExactReal, fmt: FloatFormat) -> Tuple[Fraction, Fraction]:
    """The enclosing grid points (lo, hi) with lo <= x <= hi, exactly.

    Representable x gives lo == hi == x.  |x| beyond the largest finite
    value raises OverflowError.
    """
    v = to_fraction(x)
    if v < 0:
        lo, hi = neighbors(-v, fmt)
        return -hi, -lo
    if v > fmt.max_finite:
        raise OverflowError(f"{float(v)} is beyond the largest finite {fmt} value")
    if v == 0:
        return Fraction(0), Fraction(0)
    e = _ilog2(v)
    e = max(e, fmt.emin)  # below emin the subnormal grid is uniform
    gap = _pow2(e - fmt.sig_bits + 1)
    m = (v.numerator * gap.denominator) // (v.denominator * gap.numerator)
    lo = m * gap
    if lo == v:
        return lo, lo
    return lo, lo + gap  # at a binade top this lands exactly on 2**(e+1)


def is_representable(x: ExactReal, fmt: FloatFormat) -> bool:
    try:
        lo, hi = neighbors(x, fmt)
    except OverflowError:
        return False
    return lo == hi


def binade_gap(x: ExactReal, fmt: FloatFormat) -> Fraction:
    """Grid spacing in the binade of |x| (the subnormal spacing near zero)."""
    v = abs(to_fraction(x))
    if v == 0:
        return fmt.min_subnormal
    e = max(_ilog2(v), fmt.emin)
    return _pow2(min(e, fmt.emax) - fmt.sig_bits + 1)


def _up_weight_fl(v: Fraction, lo: Fraction, hi: Fraction, scheme: RoundScheme, v_sign):
    """`up_weight` for v between the neighbours lo < hi, at position v / (hi - lo).

    floor(v / (hi - lo)) = lo / (hi - lo) has the parity of lo's significand
    (at a binade top both are even), so rn ties to the even significand.
    """
    pos = v / (hi - lo)
    return up_weight(*divmod(pos.numerator, pos.denominator), pos.denominator, scheme, v_sign)


def prob_round_down_fl(
    x: ExactReal, fmt: FloatFormat, scheme: RoundScheme, v_sign: int = 0
) -> Fraction:
    """Exact probability that x rounds to its lower neighbor in fmt."""
    v = to_fraction(x)
    lo, hi = neighbors(v, fmt)
    if lo == hi:
        return Fraction(1)
    t, cap = _up_weight_fl(v, lo, hi, scheme, v_sign)
    return 1 - Fraction(t, cap)


def expected_round_fl(
    x: ExactReal, fmt: FloatFormat, scheme: RoundScheme, v_sign: int = 0
) -> Fraction:
    """Exact E[fl(x)] over the two enclosing grid points."""
    v = to_fraction(x)
    lo, hi = neighbors(v, fmt)
    if lo == hi:
        return lo
    t, cap = _up_weight_fl(v, lo, hi, scheme, v_sign)
    return lo + (hi - lo) * Fraction(t, cap)


def fl_round(
    x: ExactReal,
    fmt: FloatFormat,
    scheme: RoundScheme,
    stream: Optional[rng.RandomStream] = None,
    k: int = 0,
    tag: int = 0,
    v_sign: int = 0,
) -> Fraction:
    """One rounding of the exact value x onto fmt's grid."""
    v = to_fraction(x)
    lo, hi = neighbors(v, fmt)
    if lo == hi:
        return lo
    t, cap = _up_weight_fl(v, lo, hi, scheme, v_sign)
    if t == 0:
        return lo
    if t == cap:
        return hi
    if stream is None:
        raise ValueError(f"{scheme} needs a RandomStream to round {float(v)}")
    gen = stream.generator(k, tag)
    down = rng.bernoulli_ratio(gen, cap - t, cap, 1)[0]
    return lo if down else hi


def fl_sub_round(
    a: ExactReal,
    b: ExactReal,
    fmt: FloatFormat,
    scheme: RoundScheme,
    stream: Optional[rng.RandomStream] = None,
    k: int = 0,
    tag: int = 0,
    v_sign: int = 0,
) -> Fraction:
    """fl(a - b): the exact difference, then a single rounding."""
    return fl_round(to_fraction(a) - to_fraction(b), fmt, scheme, stream, k, tag, v_sign)
