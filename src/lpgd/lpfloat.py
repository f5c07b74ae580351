"""Custom floating-point grids and rounding onto them.

A FloatFormat is IEEE-style (sign bit, biased exponent, implicit leading
significand bit, gradual underflow) with one deliberate difference: no
exponent codes are reserved for inf/nan, the top binade holds ordinary
numbers, and anything past the largest finite value is a hard OverflowError.

Every query rests on one integer split, `FloatFormat.split`: v = (q + r/den)
* 2**g with 0 <= r < den, where 2**g is the grid spacing of |v|'s binade
(the subnormal spacing below emin).  The binade comes from the bit lengths
of v's numerator and denominator, and the floor acts on the signed
numerator, so the neighbours are q * 2**g and (q + 1) * 2**g for either
sign, and r = 0 means v is on the grid.  `QFormat.split` makes the same
split on a fixed-point grid, so the exact law lives in `rounding.law` and
serves both formats: `oracle.round_distribution` is its one exact reader,
and `fl_round` draws from it.  q and q + 1 are the neighbours' significands
(at a binade top q + 1 = 2**sig_bits, even like the upper neighbour's own),
so rn's ties-to-even and the sign that sr_eps reads come out as in the
fixed-point case, just on a magnitude-dependent grid.

Values are exact and never pass through binary64.  The public queries
(`neighbors`, `fl_round` on an exact value) take and return Fractions; a
value's grid spacing is 2**g from `split`.  The engine's hot path carries
Python ints instead: a grid value is a pair (M, E) meaning M * 2**E, an
exact op result is an integer ratio (n, d) with d > 0, never reduced, and
`fl_round` on a ratio returns a pair.
`split` depends only on the rational n/d, so an unreduced ratio rounds and
draws exactly as its lowest terms do.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple, Union

from . import rng
from .qnum import ExactReal, ratio_str, to_fraction, to_ratio
from .rounding import RoundScheme, law

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

    @cached_property
    def emin(self) -> int:
        """Exponent of the smallest normal binade."""
        return 1 - self.bias

    @cached_property
    def emax(self) -> int:
        """Exponent of the largest binade (no codes lost to inf/nan)."""
        return ((1 << self.exp_bits) - 1) - self.bias

    @property
    def unit_roundoff(self) -> Fraction:
        """Relative grid spacing 2**-sig_bits (half the epsilon of the format)."""
        return Fraction(1, 1 << self.sig_bits)

    @property
    def min_subnormal(self) -> Fraction:
        return pair_fraction(1, self.emin - self.sig_bits + 1)

    @property
    def max_finite(self) -> Fraction:
        full = (1 << self.sig_bits) - 1  # 2 - 2^(1-sig), scaled
        return pair_fraction(full, self.emax - self.sig_bits + 1)

    def split(self, n: int, d: int) -> Tuple[int, int, int, int]:
        """(q, r, den, g) with v = n/d = (q + r/den) * 2**g and 0 <= r < den.

        d > 0, and n/d need not be in lowest terms: q and g, and the ratio
        r/den, depend only on the value v.  2**g is the grid spacing of the
        binade of |v| (the subnormal spacing below emin), so q * 2**g and
        (q + 1) * 2**g are v's neighbours and r = 0 means v is on the grid.
        den is not reduced.  The floor acts on the signed numerator, so q < 0
        for v < 0.  |v| beyond the largest finite value raises OverflowError.
        """
        emin, emax, p = self.emin, self.emax, self.sig_bits
        if not n:
            return 0, 0, 1, emin - p + 1
        a = abs(n)
        e = a.bit_length() - d.bit_length()  # floor(log2 |v|) is e or e - 1
        if (a < d << e) if e >= 0 else (a << -e < d):
            e -= 1
        g = (emin if e < emin else emax if e > emax else e) - p + 1
        if g < 0:
            den = d
            q, r = divmod(n << -g, d)
        else:
            den = d << g
            q, r = divmod(n, den)
        if e >= emax:  # g is clamped to the top binade's, where max_finite is top * 2**g
            top = (1 << p) - 1
            if q < -top or q + (r > 0) > top:
                raise OverflowError(f"{ratio_str(n, d)} is beyond the largest finite {self} value")
        return q, r, den, g

    def gap_exponent(self, m: int, e: int) -> int:
        """`split`'s g at the grid value m * 2**e: 2**g is its grid spacing."""
        emin, emax = self.emin, self.emax
        b = m.bit_length() - 1 + e if m else emin  # the binade of |m| * 2**e
        return (emin if b < emin else emax if b > emax else b) - self.sig_bits + 1

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


def pair_ratio(m: int, e: int) -> Tuple[int, int]:
    """The grid pair (m, e) as an integer ratio (n, d): m * 2**e = n/d."""
    return (m << e, 1) if e >= 0 else (m, 1 << -e)


def pair_fraction(m: int, e: int) -> Fraction:
    """m * 2**e, exactly."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def pair_float(m: int, e: int) -> float:
    """m * 2**e rounded once to binary64, as float(Fraction) rounds it: int
    to float and int true division are correctly rounded, subnormals
    included.  (float(m) * 2.0**e rounds twice where the result is
    subnormal, and fails where 2.0**e leaves binary64's range.)"""
    return float(m << e) if e >= 0 else m / (1 << -e)


def to_pair(x: ExactReal) -> Tuple[int, int]:
    """The dyadic exact value x as a grid pair (M, E) with x = M * 2**E."""
    v = to_fraction(x)
    d = v.denominator
    if d & (d - 1):
        raise ValueError(f"{v} is not dyadic, so no pair (M, E) holds it")
    return v.numerator, 1 - d.bit_length()


def neighbors(x: ExactReal, fmt: FloatFormat) -> Tuple[Fraction, Fraction]:
    """The enclosing grid points (lo, hi) with lo <= x <= hi, exactly.

    Representable x gives lo == hi == x.  |x| beyond the largest finite
    value raises OverflowError.
    """
    q, r, _, g = fmt.split(*to_ratio(x))
    lo = pair_fraction(q, g)
    return (lo, lo) if r == 0 else (lo, pair_fraction(q + 1, g))


def is_representable(x: ExactReal, fmt: FloatFormat) -> bool:
    """x is on fmt's grid: fmt is a FloatFormat, or a QFormat (same split)."""
    try:
        return fmt.split(*to_ratio(x))[1] == 0
    except OverflowError:
        return False


def fl_round(
    x: ExactReal,
    fmt: FloatFormat,
    scheme: RoundScheme,
    stream: Optional[rng.RandomStream] = None,
    k: int = 0,
    tag: int = 0,
    v_sign: int = 0,
) -> Union[Fraction, Tuple[int, int]]:
    """One rounding of x onto fmt's grid.

    x is an exact value, which rounds to a Fraction, or an integer ratio
    (n, d) with d > 0 in any terms, which rounds to the grid pair (M, E).
    """
    q, g, t, cap = law(x, fmt, scheme, v_sign)
    if 0 < t < cap:
        if stream is None:
            n, d = to_ratio(x)
            raise ValueError(f"{scheme} needs a RandomStream to round {ratio_str(n, d)}")
        q += not rng.bernoulli_ratio(stream.generator(k, tag), cap - t, cap, 1)[0]
    elif t:
        q += 1
    return (q, g) if type(x) is tuple else pair_fraction(q, g)
