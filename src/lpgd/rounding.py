"""Rounding kernels: nearest-even and the stochastic family.

Every kernel rounds an exact value to one of its two enclosing grid points.
In grid units the value sits at position q + r/den with q = floor and
0 <= r < den, and the whole two-point law is one integer function,
`up_weight`, giving P(round up) = T/cap:

    rn             T = den if 2r > den, or 2r = den and q is odd; else 0
    sr             T = r                                 (cap = den)
    sr_eps         T = clamp(r*b + s*a*den, 0, cap)      (cap = den*b)
    signed_sr_eps  the same with s = sign(v_sign), given by the caller

where eps = a/b and s = sign(x) for sr_eps.  Only `law`,
`oracle.round_distribution` and `lpfloat.fl_round` take a v_sign, and only
lowfloat's update and `oracle.check_float_drift` give one (-sign(g));
`prob_round_down`, `expected_round` and the vector kernels take none and
round signed_sr_eps at s = 0.  Every exact law in the package -- the vector
kernels, the binary64 fallback, the exhaustive `EnumBackend` (a FixedBackend
whose rounding step branches on the same weight) and the bound estimators
-- calls it.  The scalar laws go through one function, `law`, which serves
both number formats: a QFormat and an `lpfloat.FloatFormat` each `split` an
integer ratio x = n/d, in any terms, into (q, r, den, g) with
x = (q + r/den) * 2**g, and `prob_round_down`, `expected_round`,
`lpfloat.fl_round` and `oracle.round_distribution` all read it.  A value
already on the grid (r = 0) rounds to itself under every scheme, including
the eps-perturbed ones; the vector kernels mask those elements after
drawing, so the draw layout never depends on the data.

Probabilities are exact rationals end to end: the hot path works on integer
ratios num/den = x * 2**qf and draws exact Bernoullis, so there is no hidden
binary64 rounding anywhere in the emulation itself.  The int64 row kernel
splits a position into q and r with a shift and a mask when den = 2**s
(every fixed-point product, at den = scale**2): q = pos >> s and
r = pos & (den - 1) are the floor and the residue, negative positions
included, since `>>` on int64 is arithmetic and `&` takes the two's
complement.  Other denominators go through `np.divmod`.  The Python-int
kernel `_round_list` takes everything else: one lane's row given as a list
of Python ints (or one Python int) skips numpy but for its words, and an
array of object dtype, or one with any row whose positions pass int64 (see
`_object_lim`), goes there row by row.  It rounds with the same law, the
same row-wide choice between `uniform_below` and `bernoulli_ratio`, the
same words and the same errors as the int64 kernel, so a row rounds the
same on either kernel.

Binary64 inputs (`round_doubles_vec`) are dyadic, so their rounding decision
is made exactly on whole arrays: the grid position and the residue's
magnitude are exact in binary64 when the residue is taken from |pos|, while
pos - floor(pos) itself rounds for pos in (-1/2, 0).  A uniform 64-bit word
is compared against the 64-bit prefix of P(up); only a word that lands next
to the prefix (chance about 2**-63 per element) falls back to `up_weight`
and, if the probability has bits below 2**-64, to further words.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from . import rng
from .qnum import ExactReal, QFormat, parse_rational, to_ratio

SCHEME_KINDS = ("rn", "sr", "sr_eps", "signed_sr_eps")

_INT64_SAFE = 1 << 62
_WORD = 1 << 64  # one uniform draw word spans [0, 2**64)


@dataclass(frozen=True)
class RoundScheme:
    """A rounding rule: one of rn / sr / sr_eps / signed_sr_eps.  eps is read
    by `qnum.parse_rational`: text exactly, a float at its binary64 value."""

    kind: str
    eps: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown rounding scheme {self.kind!r}")
        if self.eps is not None:
            object.__setattr__(self, "eps", parse_rational(self.eps))
        if self.kind in ("sr_eps", "signed_sr_eps"):
            if self.eps is None or not 0 < self.eps < 1:
                raise ValueError(f"{self.kind} needs eps in (0, 1), got {self.eps}")
        elif self.eps is not None:
            raise ValueError(f"{self.kind} takes no eps")

    @property
    def is_random(self) -> bool:
        return self.kind != "rn"

    @property
    def uses_value_sign(self) -> bool:
        return self.kind == "sr_eps"

    @property
    def uses_given_sign(self) -> bool:
        return self.kind == "signed_sr_eps"

    def __str__(self) -> str:
        if self.eps is None:
            return self.kind
        return f"{self.kind}:{self.eps.numerator}/{self.eps.denominator}"


def parse_scheme(spec: Union[str, RoundScheme]) -> RoundScheme:
    """Parse 'rn', 'sr', 'sr_eps:<eps>' or 'signed_sr_eps:<eps>'.

    eps is read as an exact rational by `qnum.parse_rational`: '0.4' means
    2/5, not the binary64 nearest to 0.4; '2/5', '1/3' and '2^-4' work too.
    """
    if isinstance(spec, RoundScheme):
        return spec
    text = spec.strip()
    if ":" not in text:
        return RoundScheme(text)
    kind, _, eps_text = text.partition(":")
    return RoundScheme(kind.strip(), eps_text)


# ---------------------------------------------------------------------------
# exact scalar kernels
# ---------------------------------------------------------------------------


def up_weight(q, r, den: int, scheme: RoundScheme, v_sign=0):
    """(T, cap) with P(round up) = T/cap for the grid position q + r/den.

    0 <= r < den.  Elementwise on Python ints and on int64 or object arrays
    alike (v_sign broadcasts against them); the arithmetic stays in r's type,
    so object rows stay exact.  cap is den, or den*eps.denominator for the
    eps schemes, whatever the data.  T is not zeroed at r = 0: on-grid
    elements draw like any other, and the caller masks them.
    """
    if scheme.kind == "sr":
        return r, den
    one = r * 0 + 1  # 1 in r's type
    if scheme.kind == "rn":  # ties to the even q
        return one * den * (2 * r + (q & 1) > den), den
    a, b = scheme.eps.numerator, scheme.eps.denominator
    if scheme.uses_value_sign:
        s = one * (q > 0) + ((q == 0) & (r > 0)) - (q < 0)
    else:
        s = one * (v_sign > 0) - (v_sign < 0)
    cap = den * b
    t = r * b + s * (a * den)  # (r/den + s*eps) * cap, then clamped to [0, cap]
    t = t * (t > 0)
    return t + (cap - t) * (t > cap), cap


def law(x, fmt, scheme: RoundScheme, v_sign=0):
    """(q, g, T, cap): x lies in [q, q + 1] * 2**g on fmt's grid and rounds
    up to (q + 1) * 2**g with probability T/cap (T = 0 on the grid).

    x is an exact value or an integer ratio (n, d) with d > 0, in any terms.
    fmt is a QFormat or an `lpfloat.FloatFormat`; its `split` gives the
    position x / 2**g = q + r/den, which feeds `up_weight` directly.  x
    outside fmt's range raises OverflowError.
    """
    q, r, den, g = fmt.split(*to_ratio(x))
    if r == 0:
        return q, g, 0, 1
    t, cap = up_weight(q, r, den, scheme, v_sign)
    return q, g, t, cap


def prob_round_down(x: ExactReal, fmt, scheme: RoundScheme) -> Fraction:
    """Exact probability that x rounds to its lower neighbour on fmt's grid."""
    _, _, t, cap = law(x, fmt, scheme)
    return 1 - Fraction(t, cap)


def expected_round(x: ExactReal, fmt, scheme: RoundScheme) -> Fraction:
    """Exact E[round(x)] = (q + P(round up)) * 2**g over the two neighbours."""
    q, g, t, cap = law(x, fmt, scheme)
    return (q + Fraction(t, cap)) * Fraction(2) ** g


# ---------------------------------------------------------------------------
# vectorized ratio kernel (the engine hot path)
# ---------------------------------------------------------------------------


def round_ratio_vec(
    num,
    den: int,
    out_fmt: QFormat,
    scheme: RoundScheme,
    gen=None,
):
    """Round the values num[i]/den onto out_fmt's grid; return their mantissas.

    num is an integer array (int64 mantissas come back), a list of integers
    (one lane's row, rounded on Python ints into a list), or a Python
    int (the row of one, rounded into an int); den is a positive integer and
    num/den the exact value in ordinary units, so the grid positions are
    num * 2**qf / den.  One Bernoulli word per element for the stochastic
    schemes; every element consumes its draw even when exact, which keeps
    the draw layout independent of the data.

    Lanes: a 2-D num holds R independent rows, and gen is then a list of R
    word sources (None under rn).  Row r rounds exactly as the 1-D call on
    num[r] with gen[r] would, draws included, and the call raises the first
    error in row order.  An integer array whose rows all stay below
    `_object_lim` rounds in one `_round_rows` call; any other array rounds
    row by row on Python ints.  A list rounds as the one-row array of the
    same values, with the same words and errors.  No kernel takes a sign:
    signed_sr_eps rounds at s = 0.
    """
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    den = int(den)
    lim = _object_lim(den, out_fmt, scheme)
    if isinstance(num, int):
        return _round_list([num], den, out_fmt, scheme, gen, abs(num) >= lim)[0]
    if isinstance(num, list):
        num = list(map(operator.index, num))  # numpy integers would wrap, floats round
        wide = max(map(abs, num), default=0) >= lim
        return _round_list(num, den, out_fmt, scheme, gen, wide)
    arr = np.asarray(num)
    if arr.dtype.kind not in "iuO":
        raise TypeError(f"ratio numerators must be integers, got dtype {arr.dtype}")
    lanes = arr.ndim == 2
    rows = arr if lanes else arr.reshape(1, -1)
    gens = None if gen is None else list(gen) if lanes else [gen]
    # a row's path (`_object_lim`) depends only on its own values, never on the
    # dtype or on other rows, so a value rounds the same however it is packaged
    if rows.dtype != object and (not rows.size or (rows.max() < lim and rows.min() > -lim)):
        pos = rows.astype(np.int64, copy=False) * out_fmt.scale
        out = _round_rows(pos, den, out_fmt, scheme, gens)
    else:  # object rows or a row past int64: every row on Python ints
        # operator.index: an object array may hold numpy integers, which
        # would wrap in _round_list, or floats, which are not numerators
        ints = [list(map(operator.index, row)) for row in rows.tolist()]
        out = np.array(
            [
                _round_list(row, den, out_fmt, scheme, None if gens is None else gens[r],
                            max(map(abs, row), default=0) >= lim)
                for r, row in enumerate(ints)
            ],
            dtype=np.int64,
        ).reshape(rows.shape)
    return out if lanes else out[0]


def _object_lim(den: int, out_fmt: QFormat, scheme: RoundScheme) -> int:
    """Least |num| whose num/den rounds on Python ints through `bernoulli_ratio`
    (below it: int64 and `uniform_below`): |num| * scale >= 2**62, or any num
    once den or the eps draw cap 2 * den * eps.denominator reaches 2**62."""
    wide_eps = scheme.eps is not None and 2 * den * scheme.eps.denominator >= _INT64_SAFE
    return 0 if den >= _INT64_SAFE or wide_eps else -(-_INT64_SAFE // out_fmt.scale)


def _round_list(nums: list, den: int, out_fmt, scheme, gen, wide: bool) -> list:
    """One lane's row nums/den on Python ints: the law, words and errors of
    the one-row array, with no array op but the draw.  `wide` is the row's
    `_object_lim` path: `bernoulli_ratio` words (the path of every row past
    int64), else `uniform_below` words and their rejection redraws, as
    `_round_rows` draws them."""
    if scheme.is_random and gen is None:
        raise ValueError(f"{scheme} needs a word source")
    scale, n = out_fmt.scale, len(nums)
    # cap is the same for every element; an empty row draws nothing at den
    splits, ts, cap = [], [], den
    for v in nums:
        q, r = divmod(v * scale, den)
        t, cap = up_weight(q, r, den, scheme)
        splits.append((q, r))
        ts.append(t)
    if not scheme.is_random:
        ups = [t > 0 for t in ts]
    elif wide:
        ups = rng.bernoulli_ratio(gen, ts, cap, n).tolist()
    else:
        ups = [w < t for w, t in zip(rng.uniform_below(gen, cap, n).tolist(), ts)]
    lo, hi = out_fmt.min_mantissa, out_fmt.max_mantissa
    ms = []
    for v, (q, r), up in zip(nums, splits, ups):
        m = q + (up and r != 0)  # representable values (r = 0) round to themselves
        if not lo <= m <= hi:
            raise OverflowError(f"rounding {v * scale}/{den} * 2^-{out_fmt.qf} overflows {out_fmt}")
        ms.append(m)
    return ms


def _round_rows(pos, den, out_fmt, scheme, gens) -> np.ndarray:
    """Round the int64 grid positions pos/den, one row per lane, onto
    out_fmt, drawing through one `bernoulli_lt` call over all lanes.  Rows
    past int64 (see `_object_lim`) never come here: `round_ratio_vec` sends
    them to `_round_list`, the Python-int kernel."""
    if scheme.is_random and gens is None:
        raise ValueError(f"{scheme} needs a word source")
    if den & (den - 1) == 0:  # den = 2**s: the dyadic split
        q, r = pos >> (den.bit_length() - 1), pos & (den - 1)
    else:
        q, r = np.divmod(pos, den)
    nums, cap = up_weight(q, r, den, scheme)
    if not scheme.is_random:
        up = nums > 0
    else:
        up = rng.bernoulli_lt(gens, nums.reshape(-1), cap, nums.size).reshape(nums.shape)
    if scheme.kind != "sr":  # under sr, T = r = 0 already rounds them down
        up &= r != 0  # representable values round to themselves

    m = q + up
    lo, hi = out_fmt.min_mantissa, out_fmt.max_mantissa
    if m.size and (m.min() < lo or m.max() > hi):
        i = int(np.argmax((m < lo) | (m > hi)))
        raise OverflowError(
            f"rounding {int(pos.flat[i])}/{den} * 2^-{out_fmt.qf} overflows {out_fmt}"
        )
    return m


def round_doubles_vec(
    values: np.ndarray,
    out_fmt: QFormat,
    scheme: RoundScheme,
    gen: Optional[rng.OpWords] = None,
) -> np.ndarray:
    """Round binary64 values (taken as exact dyadics) into out_fmt.

    Used for quantities computed in double (e.g. logistic values) that then
    enter the fixed-point pipeline.  Every step is exact binary64 or uint64
    arithmetic on the whole array:

    - pos = v * 2**qf is exact (a power-of-two scaling), and so are
      q = floor(pos), f = |pos| - floor(|pos|) (Sterbenz) and F = f * 2**64.
      The residue r = pos - q is never formed in binary64: for pos in
      (-1/2, 0) it rounds (pos = -9.08e-23 gives r = 1.0).  For pos < 0 the
      residue is 1 - f, so its 64-bit prefix is 2**64 - ceil(F).
    - rn: np.rint(pos), ties to the even mantissa.
    - Stochastic schemes draw one uint64 word u per element and compare it
      against the 64-bit prefix of P(up) = clamp(r + s*eps, 0, 1) * 2**64,
      exactly as `rng.bernoulli_ratio` does: u < prefix rounds up, u above
      it rounds down.  The sr_eps offset adds floor(eps * 2**64) (s = +1)
      or subtracts it plus one (s = -1), clamped at 0 and 2**64, which pins
      the prefix to one of two neighbours (signed_sr_eps: s = 0, no offset).
      Elements whose u lands on either neighbour (chance about 2**-63 each)
      are settled with exact Fractions, and those whose u equals the exact
      prefix of a probability with bits below 2**-64 finish through
      `rng.bernoulli_ratio` on the remainder.

    The draw layout is therefore one word per element in index order, then
    the extension words of the undecided elements; on-grid values draw like
    any other and then round to themselves.
    """
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    n = vals.size
    finite = np.isfinite(vals)
    if not finite.all():
        bad = float(vals[np.argmin(finite)])
        if bad != bad:
            raise ValueError(f"cannot round NaN into {out_fmt}")
        raise OverflowError(f"{bad} overflows {out_fmt}")
    pos = np.ldexp(vals, out_fmt.qf)
    if n and np.abs(pos).max() >= 2.0**63:
        raise OverflowError(f"double input overflows {out_fmt}")

    if scheme.kind == "rn":
        m = np.rint(pos).astype(np.int64)
    else:
        if gen is None:
            raise ValueError(f"{scheme} needs a word source")
        q = np.floor(pos)
        mag = np.abs(pos)
        f64 = np.ldexp(mag - np.floor(mag), 64)
        lo = np.where(pos < 0, -np.ceil(f64).astype(np.uint64), np.floor(f64).astype(np.uint64))
        full = np.zeros(n, dtype=bool)
        if scheme.uses_value_sign:
            e_hi = (scheme.eps.numerator << 64) // scheme.eps.denominator
            plus, minus = vals > 0, vals < 0
            full = plus & (lo > np.uint64(_WORD - 1 - e_hi))
            down = np.uint64(min(e_hi + 1, _WORD - 1))
            lo = np.where(plus, lo + np.uint64(e_hi), lo)
            lo = np.where(minus, np.where(lo >= down, lo - down, 0), lo)
        # the exact prefix is lo or lo + 1 (or 2**64 when full)
        u = gen.integers(0, _WORD, size=n, dtype=np.uint64)
        up = full | (u < lo)
        pending, nums, dens = [], [], []
        for i in np.flatnonzero(~full & (u - lo <= np.uint64(1))):
            p = Fraction(float(vals[i])) * out_fmt.scale
            t, cap = up_weight(*divmod(p.numerator, p.denominator), p.denominator, scheme)
            hi, rem = divmod(t << 64, cap)
            up[i] = int(u[i]) < hi
            if int(u[i]) == hi and rem:
                pending.append(i)
                nums.append(rem)
                dens.append(cap)
        if pending:
            up[pending] = rng.bernoulli_ratio(gen, nums, dens, len(pending))
        up[f64 == 0] = False  # representable values round to themselves
        m = q.astype(np.int64) + up

    if ((m < out_fmt.min_mantissa) | (m > out_fmt.max_mantissa)).any():
        raise OverflowError(f"double input overflows {out_fmt}")
    return m
