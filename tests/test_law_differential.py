"""Differential tests: the exact rounding laws and the recipe enumerator
against frozen copies of their per-format implementations.

The copies below are the fixed-point `prob_round_down`, `expected_round`,
`fixed_round_distribution` and `EnumBackend`, and the float grid's
split, `prob_round_down_fl`, `expected_round_fl` and
`float_round_distribution`, as they were written once per format.  Inside
each format's range the current functions must agree with them exactly
(values, types and the order of distribution entries), and the enumerator
must give the same leaves in the same order wherever the old one returned.

The int64 row kernel `rounding._round_rows` is checked the same way against
a copy of its `np.divmod` form: the same mantissas, the same words drawn per
lane and the same OverflowError, for power-of-two and other denominators.

The lowfloat engine, which carries grid pairs (M, E) and unreduced integer
ratios, is checked against a copy of its form on grid Fractions: the float
recipe backend and the update step, with the one-element Bernoulli draw as
it was.  Values, binary64 columns, words drawn at every op address and the
OverflowError message must all agree.
"""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpgd import rng, rounding
from lpgd.gdengine import SIGMA2_TAG, GDConfig, _LowFloat
from lpgd.lpfloat import FloatFormat, pair_fraction, parse_float_format
from lpgd.objectives import FloatBackend, enumerate_recipe, make_objective
from lpgd.oracle import round_distribution
from lpgd.qnum import QFormat, from_exact, to_fraction
from lpgd.rng import RandomStream
from lpgd.rounding import (
    expected_round,
    parse_scheme,
    prob_round_down,
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
    # only round_distribution takes a lean; the other two read the law at 0
    pairs = [
        ("prob_round_down", prob_round_down(v, fmt, scheme), old[0](v, fmt, scheme)),
        ("expected_round", expected_round(v, fmt, scheme), old[1](v, fmt, scheme)),
        ("round_distribution", round_distribution(v, fmt, scheme, v_sign),
         old[2](v, fmt, scheme, v_sign)),
    ]
    for name, got, want in pairs:
        assert got == want and type(got) is type(want), (name, got, want)
        if isinstance(want, dict):
            assert list(got.items()) == list(want.items())
            assert all(type(key) is Fraction for key in got)


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
    return fmt, scheme, den, pos


def _rows_outcome(kernel, case, seed):
    """(mantissas or the error, words each lane drew) of one kernel call."""
    fmt, scheme, den, pos = case
    gens = None
    if scheme.is_random:
        gens = [RandomStream(seed + r).generator(7, 2) for r in range(len(pos))]
    try:
        out = kernel(pos.copy(), den, fmt, scheme, gens).tolist()
    except OverflowError as exc:
        out = (OverflowError, str(exc))
    return out, [g._used for g in gens or []]


@given(case=_row_case(), seed=st.integers(0, 2**40))
@settings(max_examples=500, deadline=None)
def test_round_rows_matches_the_divmod_original(case, seed):
    got = _rows_outcome(rounding._round_rows, case, seed)
    # the kernel takes no sign: the original rounds signed_sr_eps at lean 0
    assert got == _rows_outcome(lambda *args: _old_round_rows(*args, 0), case, seed)


@given(case=_row_case(on_grid=True), seed=st.integers(0, 2**40))
@settings(max_examples=100, deadline=None)
def test_on_grid_rows_draw_and_round_to_themselves(case, seed):
    fmt, _, den, pos = case
    assume(fmt.min_mantissa * den <= pos.min() and pos.max() <= fmt.max_mantissa * den)
    out, used = _rows_outcome(rounding._round_rows, (fmt, parse_scheme("sr"), den, pos), seed)
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


# ---------------------------------------------------------------------------
# frozen copies: the lowfloat engine on grid Fractions
# ---------------------------------------------------------------------------


def _old_int_list(v, n):
    if isinstance(v, int):
        return [v] * n
    v = (v if isinstance(v, np.ndarray) else np.asarray(v, dtype=object)).reshape(-1).tolist()
    return v * n if len(v) == 1 else v


def _old_bernoulli_ratio(gen, nums, dens, n):
    nums, dens = _old_int_list(nums, n), _old_int_list(dens, n)
    out = np.zeros(n, dtype=bool)
    idx = range(n)
    while idx:
        u = gen.integers(0, 2**64, size=len(idx), dtype=np.uint64).tolist()
        next_idx = []
        for i, w in zip(idx, u):
            hi, rem = divmod(nums[i] << 64, dens[i])
            if w < hi:
                out[i] = True
            elif w == hi and rem:
                nums[i] = rem
                next_idx.append(i)
        idx = next_idx
    return out


def _old_fl_round(x, fmt, scheme, stream=None, k=0, tag=0, v_sign=0):
    q, g, t, cap = _old_law(x, fmt, scheme, v_sign)
    if 0 < t < cap:
        if stream is None:
            raise ValueError(f"{scheme} needs a RandomStream to round {float(to_fraction(x))}")
        down = _old_bernoulli_ratio(stream.generator(k, tag), cap - t, cap, 1)[0]
        q += not down
    elif t:
        q += 1
    return _old_scaled(q, g)


class _OldFloatBackend:
    def __init__(self, fmt, scheme, stream=None, k=0):
        self.fmt = fmt
        self.scheme = scheme
        self.stream = stream
        self.k = k
        self.tag = 0

    def _round(self, x):
        tag = self.tag
        self.tag += 1
        return _old_fl_round(x, self.fmt, self.scheme, self.stream, self.k, tag)

    def const(self, c):
        return _old_fl_round(to_fraction(c), self.fmt, parse_scheme("rn"))

    def add(self, a, b):
        return self._round(a + b)

    def sub(self, a, b):
        return self._round(a - b)

    def mul(self, a, b):
        return self._round(a * b)

    def coef(self, c, a):
        return self._round(to_fraction(c) * a)


def _old_classify(g_r, t, us):
    c2 = [abs(g.numerator) * t.numerator * u.denominator < t.denominator * g.denominator * u.numerator
          for g, u in zip(g_r, us)]
    return (1 if not any(c2) else 2 if all(c2) else 3), np.array(c2, dtype=bool)


def _old_lowfloat_step(cfg, rows, streams, k):
    """`_LowFloat.step` on lanes of grid Fractions, less the binary64 gradient."""
    fmt, t, scheme = cfg.float_fmt, cfg.t, cfg.sigma2_scheme
    g_t = [
        list(cfg.objective.recipe(_OldFloatBackend(fmt, cfg.sigma1_scheme, stream, k), list(row)))
        for row, stream in zip(rows, streams)
    ]
    case, c2 = zip(*(
        _old_classify(g_r, t, [_old_scaled(1, _old_split(v, fmt)[3]) for v in row])
        for row, g_r in zip(rows, g_t)
    ))
    new_x, out = [], np.empty((3, len(rows), len(rows[0])))
    for r, (row, g_r, stream) in enumerate(zip(rows, g_t, streams)):
        new_x.append([])
        for i, (xi, gi) in enumerate(zip(row, g_r)):
            v_sign = (gi < 0) - (gi > 0) if scheme.uses_given_sign else 0
            tg = t * gi
            nxt = _old_fl_round(xi - tg, fmt, scheme, stream, k, SIGMA2_TAG + i, v_sign)
            new_x[r].append(nxt)
            d = xi - nxt
            out[:, r, i] = gi, d, d - tg
    return new_x, out, case, c2


# ---------------------------------------------------------------------------
# the lowfloat engine
# ---------------------------------------------------------------------------

LOWFLOAT_FORMATS = [
    parse_float_format("fp8e4"), parse_float_format("fp8e5"), parse_float_format("fp16e5"),
    FloatFormat(60, 4),
]
LOWFLOAT_SCHEMES = ["rn", "sr", "sr_eps:0.4", "signed_sr_eps:0.1"]
COEFS = [2, 11, 400, Fraction(1, 10), Fraction(1, 3), Fraction(-7, 3), Fraction(5, 7)]
STEPS = [Fraction(1, 10), Fraction(1, 3), Fraction(3, 7), Fraction(1, 1024), Fraction(5, 2)]
_STEP_OBJECTIVES = {
    "quadratic": make_objective("quadratic", a_diag=["1/10", "3", "5/7"], x_star=["1/3", "-2", "0"]),
    "rosenbrock": make_objective("rosenbrock"),
    "himmelblau": make_objective("himmelblau"),
}


class _LoggedStream(RandomStream):
    """A RandomStream that keeps every word source it hands out."""

    def __init__(self, seed):
        super().__init__(seed)
        self.gens = []

    def generator(self, k, tag):
        gen = super().generator(k, tag)
        self.gens.append((k, tag, gen))
        return gen

    def log(self):
        return [(k, tag, gen._used) for k, tag, gen in self.gens]


@st.composite
def _grid_pair(draw, fmt):
    """A grid value of fmt as (M, E): zero, subnormals, binade bottoms and
    tops, the top binade, either sign; mostly of magnitude near 1."""
    p = fmt.sig_bits
    e = draw(st.integers(-3, 2) | st.sampled_from([fmt.emin, fmt.emax]) | st.integers(fmt.emin, fmt.emax))
    e = min(max(e, fmt.emin), fmt.emax)
    top = (1 << p) - 1
    low = 0 if e == fmt.emin else 1 << (p - 1)
    m = draw(st.sampled_from([low, low + 1, top - 1, top]) | st.integers(low, top))
    return draw(st.sampled_from([1, -1])) * m, e - p + 1


def _errors_as_messages(fn):
    try:
        return fn()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@given(
    fmt=st.sampled_from(LOWFLOAT_FORMATS),
    spec=st.sampled_from(LOWFLOAT_SCHEMES),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1) | st.none(),
    k=st.integers(0, 5),
)
@settings(max_examples=400, deadline=None)
def test_float_backend_matches_the_fraction_original(fmt, spec, data, seed, k):
    values = data.draw(st.lists(_grid_pair(fmt), min_size=1, max_size=4))
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(["add", "sub", "mul", "coef", "const"]), st.integers(0, 20),
                  st.integers(0, 20), st.sampled_from(COEFS)),
        min_size=1, max_size=8,
    ))

    def program(backend, pool):
        for name, i, j, c in ops:
            a, b = pool[i % len(pool)], pool[j % len(pool)]
            if name == "const":
                pool.append(backend.const(c))
            elif name == "coef":
                pool.append(backend.coef(c, a))
            else:
                pool.append(getattr(backend, name)(a, b))
        return pool

    scheme = parse_scheme(spec)
    streams = [None if seed is None else _LoggedStream(seed) for _ in range(2)]
    new, old = FloatBackend(fmt, scheme, streams[0], k), _OldFloatBackend(fmt, scheme, streams[1], k)
    got = _errors_as_messages(lambda: [pair_fraction(*v) for v in program(new, list(values))])
    want = _errors_as_messages(lambda: program(old, [pair_fraction(*v) for v in values]))
    assert got == want
    assert new.tag == old.tag
    if seed is not None:
        assert streams[0].log() == streams[1].log()


@given(
    fmt=st.sampled_from(LOWFLOAT_FORMATS),
    name=st.sampled_from(sorted(_STEP_OBJECTIVES)),
    t=st.sampled_from(STEPS),
    sigma1=st.sampled_from(LOWFLOAT_SCHEMES),
    sigma2=st.sampled_from(LOWFLOAT_SCHEMES),
    lanes=st.sampled_from([1, 2]),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 5),
)
@settings(max_examples=400, deadline=None)
def test_lowfloat_step_matches_the_fraction_original(fmt, name, t, sigma1, sigma2, lanes, data,
                                                     seed, k):
    obj = _STEP_OBJECTIVES[name]
    cfg = GDConfig(objective=obj, t=t, x0=[0] * obj.n, iterations=1, number_system="lowfloat",
                   float_fmt=fmt, sigma1_scheme=sigma1, sigma2_scheme=sigma2)
    rows = [[data.draw(_grid_pair(fmt)) for _ in range(obj.n)] for _ in range(lanes)]
    streams = [[_LoggedStream(seed + r) for r in range(lanes)] for _ in range(2)]

    def new_step():
        new_x, rec = _LowFloat(cfg).step(rows, streams[0], k)
        columns = np.stack([rec["g_tilde"], rec["d"], rec["sigma2"]])
        values = [[pair_fraction(*v) for v in row] for row in new_x]
        return values, columns.tobytes(), tuple(rec["case"]), np.array(rec["c2_mask"]).tolist()

    def old_step():
        fr_rows = [[pair_fraction(*v) for v in row] for row in rows]
        new_x, out, case, c2 = _old_lowfloat_step(cfg, fr_rows, streams[1], k)
        return new_x, out.tobytes(), case, np.array(c2).tolist()

    assert _errors_as_messages(new_step) == _errors_as_messages(old_step)
    assert [s.log() for s in streams[0]] == [s.log() for s in streams[1]]
