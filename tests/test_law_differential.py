"""Differential tests: the exact rounding laws and the recipe enumerator
against frozen copies of their per-format implementations.

The copies below are the fixed-point `prob_round_down`, `expected_round`,
`round`, `fixed_round_distribution` and `EnumBackend`, and the float grid's
split, `prob_round_down_fl`, `expected_round_fl` and
`float_round_distribution`, as they were written once per format.  Inside
each format's range the current functions must agree with them exactly
(values, types and the order of distribution entries), and the enumerator
must give the same leaves in the same order wherever the old one returned.

The int64 row kernel `rounding._round_rows` is checked the same way against
a copy of its `np.divmod` form: the same mantissas, the same words drawn per
lane and the same OverflowError, for power-of-two and other denominators.
"""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpgd import rng, rounding
from lpgd.lpfloat import FloatFormat, parse_float_format
from lpgd.objectives import enumerate_recipe, make_objective
from lpgd.oracle import round_distribution
from lpgd.qnum import FixedVal, QFormat, from_exact, to_fraction
from lpgd.rng import RandomStream
from lpgd.rounding import (
    expected_round,
    parse_scheme,
    prob_round_down,
    round_ratio_vec,
    up_weight,
)

FLOAT_FORMATS = [FloatFormat(3, 5), parse_float_format("fp16e5"), FloatFormat(2, 2)]
SCHEMES = ["rn", "sr", "sr_eps:0.4", "sr_eps:1/3", "signed_sr_eps:0.25", "signed_sr_eps:0.9"]
# on the grid, rn ties, thirds, and the clamp edges of every eps above
EDGE_FRACS = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(2, 5),
              Fraction(3, 5), Fraction(1, 4), Fraction(3, 4), Fraction(1, 10), Fraction(9, 10)]


# ---------------------------------------------------------------------------
# frozen copies: fixed point
# ---------------------------------------------------------------------------


def _old_prob_round_down(x, fmt, scheme, v_sign=0):
    pos = to_fraction(x) * fmt.scale
    q, r = divmod(pos.numerator, pos.denominator)
    if r == 0:
        return Fraction(1)
    t, cap = up_weight(q, r, pos.denominator, scheme, v_sign)
    return 1 - Fraction(t, cap)


def _old_expected_round(x, fmt, scheme, v_sign=0):
    pos = to_fraction(x) * fmt.scale
    q = pos.numerator // pos.denominator
    p_down = _old_prob_round_down(x, fmt, scheme, v_sign)
    return Fraction(q + 1 - p_down, fmt.scale)


def _old_round(x, fmt, scheme, stream=None, k=0, tag=0, v_sign=0):
    v = to_fraction(x)
    if not fmt.min_value <= v <= fmt.max_value:
        raise OverflowError(f"{float(v)} is outside the range of {fmt}")
    p_down = _old_prob_round_down(v, fmt, scheme, v_sign)
    if p_down in (0, 1):
        pos = v * fmt.scale
        return FixedVal(fmt.check_mantissa(pos.numerator // pos.denominator + (p_down == 0)), fmt)
    if stream is None:
        raise ValueError(f"{scheme} needs a RandomStream to round {float(v)}")
    gen = stream.generator(k, tag)
    return FixedVal(round_ratio_vec(v.numerator, v.denominator, fmt, scheme, gen, v_sign), fmt)


def _old_fixed_round_distribution(x, fmt, scheme, v_sign=0):
    v = to_fraction(x)
    pos = v * fmt.scale
    q = pos.numerator // pos.denominator
    p_down = _old_prob_round_down(v, fmt, scheme, v_sign)
    lo = Fraction(q, fmt.scale)
    hi = Fraction(q + 1, fmt.scale)
    for val in (lo,) if p_down == 1 else (lo, hi):
        fmt.check_mantissa(int(val * fmt.scale))
    if p_down == 1:
        return {lo: Fraction(1)}
    if p_down == 0:
        return {hi: Fraction(1)}
    return {lo: p_down, hi: 1 - p_down}


# ---------------------------------------------------------------------------
# frozen copies: float grids
# ---------------------------------------------------------------------------


def _old_scaled(m, g):
    return Fraction(m << g) if g >= 0 else Fraction(m, 1 << -g)


def _old_split(v, fmt):
    n, d = v.numerator, v.denominator
    if not n:
        return 0, 0, 1, fmt.emin - fmt.sig_bits + 1
    a = abs(n)
    e = a.bit_length() - d.bit_length()
    if (a < d << e) if e >= 0 else (a << -e < d):
        e -= 1
    g = min(max(e, fmt.emin), fmt.emax) - fmt.sig_bits + 1
    if g < 0:
        den = d
        q, r = divmod(n << -g, d)
    else:
        den = d << g
        q, r = divmod(n, den)
    if e >= fmt.emax:
        top = (1 << fmt.sig_bits) - 1
        if q < -top or q + (r > 0) > top:
            raise OverflowError(f"{float(v)} is beyond the largest finite {fmt} value")
    return q, r, den, g


def _old_law(x, fmt, scheme, v_sign):
    q, r, den, g = _old_split(to_fraction(x), fmt)
    if r == 0:
        return q, g, 0, 1
    t, cap = up_weight(q, r, den, scheme, v_sign)
    return q, g, t, cap


def _old_prob_round_down_fl(x, fmt, scheme, v_sign=0):
    _, _, t, cap = _old_law(x, fmt, scheme, v_sign)
    return 1 - Fraction(t, cap)


def _old_expected_round_fl(x, fmt, scheme, v_sign=0):
    q, g, t, cap = _old_law(x, fmt, scheme, v_sign)
    return (q + Fraction(t, cap)) * _old_scaled(1, g)


def _old_neighbors(x, fmt):
    q, r, _, g = _old_split(to_fraction(x), fmt)
    lo = _old_scaled(q, g)
    return (lo, lo) if r == 0 else (lo, _old_scaled(q + 1, g))


def _old_float_round_distribution(x, fmt, scheme, v_sign=0):
    v = to_fraction(x)
    lo, hi = _old_neighbors(v, fmt)
    if lo == hi:
        return {lo: Fraction(1)}
    p_down = _old_prob_round_down_fl(v, fmt, scheme, v_sign)
    if p_down == 1:
        return {lo: Fraction(1)}
    if p_down == 0:
        return {hi: Fraction(1)}
    return {lo: p_down, hi: 1 - p_down}


# ---------------------------------------------------------------------------
# frozen copy: the enumerator
# ---------------------------------------------------------------------------


class _ImpossiblePath(Exception):
    pass


class _OldEnumBackend:
    def __init__(self, fmt, scheme, plan):
        self.fmt = fmt
        self.scheme = scheme
        self.plan = list(plan)
        self.used = 0
        self.prob = Fraction(1)
        self.tag = 0

    def _branch(self, value):
        pos = value * self.fmt.scale
        q, r = divmod(pos.numerator, pos.denominator)
        self.tag += 1
        if r == 0:
            return self.fmt.check_mantissa(q)
        t, cap = up_weight(q, r, pos.denominator, self.scheme)
        choice = self.plan[self.used] if self.used < len(self.plan) else 0
        self.used += 1
        p = Fraction(t if choice else cap - t, cap)
        if p == 0:
            raise _ImpossiblePath
        self.prob *= p
        return self.fmt.check_mantissa(q + choice)

    def const(self, c):
        return from_exact(c, self.fmt).m

    def add(self, a, b):
        self.tag += 1
        return self.fmt.check_mantissa(a + b)

    def sub(self, a, b):
        self.tag += 1
        return self.fmt.check_mantissa(a - b)

    def mul(self, a, b):
        return self._branch(Fraction(a * b, self.fmt.scale * self.fmt.scale))

    def coef(self, c, a):
        cf = to_fraction(c)
        if cf.denominator == 1:
            self.tag += 1
            return self.fmt.check_mantissa(int(cf) * a)
        return self._branch(Fraction(cf.numerator * a, cf.denominator * self.fmt.scale))


def _old_enumerate_recipe(recipe, fmt, scheme):
    leaves = []

    def walk(plan):
        be = _OldEnumBackend(fmt, scheme, plan)
        try:
            out = recipe(be)
        except _ImpossiblePath:
            return
        if be.used == len(plan):
            values = tuple(Fraction(int(m), fmt.scale) for m in out)
            leaves.append((values, be.prob))
            return
        walk(plan + [0])
        walk(plan + [1])

    walk([])
    total = sum(p for _, p in leaves)
    assert total == 1, f"branch probabilities sum to {total}, not 1"
    return leaves


# ---------------------------------------------------------------------------
# frozen copy: the int64 row kernel
# ---------------------------------------------------------------------------


def _old_up_weight(q, r, den, scheme, v_sign=0):
    one = r * 0 + 1  # 1 in r's type
    if scheme.kind == "rn":  # ties to the even q
        return one * den * (2 * r + (q & 1) > den), den
    if scheme.kind == "sr":
        return r, den
    a, b = scheme.eps.numerator, scheme.eps.denominator
    if scheme.uses_value_sign:
        s = one * (q > 0) + ((q == 0) & (r > 0)) - (q < 0)
    else:
        s = one * (v_sign > 0) - (v_sign < 0)
    cap = den * b
    t = r * b + s * (a * den)
    t = t * (t > 0)
    return t + (cap - t) * (t > cap), cap


def _old_round_rows(pos, den, out_fmt, scheme, gens, signs):
    """`rounding._round_rows` on int64 rows, splitting with `np.divmod`."""
    if scheme.is_random and gens is None:
        raise ValueError(f"{scheme} needs a word source")
    q, r = np.divmod(pos, den)
    nums, cap = _old_up_weight(q, r, den, scheme, signs)
    if not scheme.is_random:
        up = nums > 0
    else:
        u = rng.uniform_below(gens, cap, nums.size)
        up = (u < np.asarray(nums.reshape(-1), dtype=np.uint64)).reshape(nums.shape)
    up &= r != 0
    m = q + up
    lo, hi = out_fmt.min_mantissa, out_fmt.max_mantissa
    if m.size and (m.min() < lo or m.max() > hi):
        i = int(np.argmax((m < lo) | (m > hi)))
        raise OverflowError(
            f"rounding {int(pos.flat[i])}/{den} * 2^-{out_fmt.qf} overflows {out_fmt}"
        )
    return m.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# the laws
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (OverflowError, ValueError, AssertionError) as exc:
        return type(exc)


@st.composite
def _in_range_value(draw):
    """A Q format or a float format and a value inside its range: on the
    grid, at rn ties and thirds, next to the eps clamps, at the ends of the
    range and at binade tops, either sign."""
    frac = draw(st.sampled_from(EDGE_FRACS) | st.fractions(0, 1, max_denominator=1 << 12))
    if draw(st.booleans()):
        fmt = QFormat(draw(st.integers(1, 8)), draw(st.integers(0, 10)))
        lo, hi = fmt.min_mantissa, fmt.max_mantissa
        m = draw(st.sampled_from([lo, lo + 1, -1, 0, hi - 1, hi]) | st.integers(lo, hi))
        v = (m + frac) / fmt.scale
        assume(v <= fmt.max_value)
        return fmt, v
    fmt = draw(st.sampled_from(FLOAT_FORMATS))
    e = draw(st.integers(fmt.emin, fmt.emax))
    top = (1 << fmt.sig_bits) - 1
    low = 0 if e == fmt.emin else 1 << (fmt.sig_bits - 1)
    m = draw(st.sampled_from([low, low + 1, top - 1, top]) | st.integers(low, top))
    v = (m + frac) * _old_scaled(1, e - fmt.sig_bits + 1)
    assume(v <= fmt.max_finite)
    return fmt, draw(st.sampled_from([1, -1])) * v


@given(
    case=_in_range_value(),
    spec=st.sampled_from(SCHEMES),
    v_sign=st.sampled_from([-1, 0, 1]),
)
@settings(max_examples=600, deadline=None)
def test_laws_match_the_per_format_originals(case, spec, v_sign):
    fmt, v = case
    scheme = parse_scheme(spec)
    if isinstance(fmt, QFormat):
        old = (_old_prob_round_down, _old_expected_round, _old_fixed_round_distribution)
    else:
        old = (_old_prob_round_down_fl, _old_expected_round_fl, _old_float_round_distribution)
    for new_fn, old_fn in zip((prob_round_down, expected_round, round_distribution), old):
        got, want = new_fn(v, fmt, scheme, v_sign), old_fn(v, fmt, scheme, v_sign)
        assert got == want and type(got) is type(want), (new_fn.__name__, got, want)
        if isinstance(want, dict):
            assert list(got.items()) == list(want.items())
            assert all(type(key) is Fraction for key in got)


@given(
    case=_in_range_value(),
    spec=st.sampled_from(SCHEMES),
    v_sign=st.sampled_from([-1, 0, 1]),
    seed=st.integers(0, 2**32 - 1) | st.none(),
)
@settings(max_examples=300, deadline=None)
def test_fixed_round_matches_the_original(case, spec, v_sign, seed):
    fmt, v = case
    assume(isinstance(fmt, QFormat))
    scheme = parse_scheme(spec)
    streams = [None if seed is None else RandomStream(seed) for _ in range(2)]
    got = _outcome(rounding.round, v, fmt, scheme, streams[0], 3, 5, v_sign)
    want = _outcome(_old_round, v, fmt, scheme, streams[1], 3, 5, v_sign)
    assert got == want


# ---------------------------------------------------------------------------
# the int64 row kernel
# ---------------------------------------------------------------------------

ROW_SCHEMES = ["rn", "sr", "sr_eps:0.4", "signed_sr_eps:0.25"]


@st.composite
def _row_case(draw, on_grid=False):
    """A Q format, a scheme, a denominator whose rows round on int64 (2**s
    up to the int64-safe limit, or not a power of two) and 1 or 3 lanes of
    positions pos = m * den + r: either sign, on the grid, next to it, and
    at and beyond both ends of the range."""
    fmt = QFormat(draw(st.integers(1, 8)), draw(st.integers(0, 10)))
    scheme = parse_scheme(draw(st.sampled_from(ROW_SCHEMES)))
    if draw(st.booleans()):
        den = 1 << draw(st.sampled_from([0, 1, 2, 16, 40, 58, 59, 60, 61]) | st.integers(0, 61))
    else:
        den = draw(st.sampled_from([3, 5, 12, 500 * 256, 3 << 59]) | st.integers(3, (1 << 62) - 1))
        assume(den & (den - 1))
    assume(rounding._object_lim(den, fmt, scheme) > 0)  # int64 rows
    # keep m * den + r inside int64
    lo = max(fmt.min_mantissa - 1, -((1 << 63) // den))
    hi = min(fmt.max_mantissa + 1, (1 << 63) // den - 1)
    ends = [fmt.min_mantissa - 1, fmt.min_mantissa, -1, 0, 1, fmt.max_mantissa,
            fmt.max_mantissa + 1]
    mant = st.sampled_from([m for m in ends if lo <= m <= hi]) | st.integers(lo, hi)
    resid = st.sampled_from([0, 1, den // 2, den - 1]) | st.integers(0, den - 1)
    if on_grid:
        resid = st.just(0)
    lanes, n = draw(st.sampled_from([1, 3])), draw(st.integers(1, 6))
    pos = np.array(
        [[draw(mant) * den + draw(resid) for _ in range(n)] for _ in range(lanes)], dtype=np.int64
    )
    signs = None
    if scheme.uses_given_sign:
        signs = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=lanes * n,
                                       max_size=lanes * n))).reshape(pos.shape)
    return fmt, scheme, den, pos, signs


def _rows_outcome(kernel, case, seed):
    """(mantissas or the error, words each lane drew) of one kernel call."""
    fmt, scheme, den, pos, signs = case
    gens = None
    if scheme.is_random:
        gens = [RandomStream(seed + r).generator(7, 2) for r in range(len(pos))]
    try:
        out = kernel(pos.copy(), den, fmt, scheme, gens, signs).tolist()
    except OverflowError as exc:
        out = (OverflowError, str(exc))
    return out, [g._used for g in gens or []]


@given(case=_row_case(), seed=st.integers(0, 2**40))
@settings(max_examples=500, deadline=None)
def test_round_rows_matches_the_divmod_original(case, seed):
    got = _rows_outcome(rounding._round_rows, case, seed)
    assert got == _rows_outcome(_old_round_rows, case, seed)


@given(case=_row_case(on_grid=True), seed=st.integers(0, 2**40))
@settings(max_examples=100, deadline=None)
def test_on_grid_rows_draw_and_round_to_themselves(case, seed):
    fmt, _, den, pos, _ = case
    assume(fmt.min_mantissa * den <= pos.min() and pos.max() <= fmt.max_mantissa * den)
    out, used = _rows_outcome(rounding._round_rows, (fmt, parse_scheme("sr"), den, pos, None), seed)
    assert out == (pos // den).tolist()
    if den & (den - 1) == 0:
        assert used == [pos.shape[1]] * len(pos)  # one word per element
    else:
        assert min(used) >= pos.shape[1]  # and any rejection redraws


# ---------------------------------------------------------------------------
# the enumerator
# ---------------------------------------------------------------------------

_OBJECTIVES = {
    "quadratic": make_objective("quadratic", a_diag=["1/3", "5/4"], x_star=["1/2", "-1"]),
    "rosenbrock": make_objective("rosenbrock"),
    "himmelblau": make_objective("himmelblau"),
}


@st.composite
def _enumeration_case(draw):
    """A recipe, a small Q format and a point of it (mantissas, mostly |x| <= 1)."""
    fmt = QFormat(draw(st.integers(4, 8)), draw(st.integers(1, 6)))
    lo, hi = fmt.min_mantissa, fmt.max_mantissa
    near = st.integers(-fmt.scale, fmt.scale)
    point = st.lists(near | st.integers(lo, hi), min_size=2, max_size=2)
    name = draw(st.sampled_from(sorted(_OBJECTIVES) + ["coef"]))
    if name == "coef":
        c = draw(st.sampled_from([Fraction(3, 4), Fraction(1, 3), Fraction(5, 2), Fraction(-7, 8)]))
        m = draw(near)
        return f"coef({c})", (lambda be: [be.coef(c, m)]), fmt
    obj, x_m = _OBJECTIVES[name], draw(point)
    return f"{name}{x_m}", (lambda be: obj.recipe(be, list(x_m))), fmt


@given(case=_enumeration_case(), spec=st.sampled_from(SCHEMES))
@settings(max_examples=300, deadline=None)
def test_enumeration_matches_the_original_where_it_returned(case, spec):
    label, recipe, fmt = case
    scheme = parse_scheme(spec)
    want = _outcome(_old_enumerate_recipe, recipe, fmt, scheme)
    got = _outcome(enumerate_recipe, recipe, fmt, scheme)
    if want is AssertionError:
        # the old enumerator lost the branches after a forced up-rounding;
        # now the leaves sum to 1 unless a chosen branch overflows
        assert got is OverflowError or sum(p for _, p in got) == 1, (label, fmt, spec)
        return
    assert got == want, (label, fmt, spec)
