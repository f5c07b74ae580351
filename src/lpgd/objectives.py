"""Test objectives and their low-precision gradient recipes.

Each objective provides the exact binary64 value/gradient plus a *recipe*: a
fixed sequence of elementary ops (add/sub/mul/constant-coefficient) that
computes the gradient in emulated arithmetic.  Recipes are written once
against a small ops backend and evaluated four ways:

    FixedBackend     integer mantissas, products round once into the format
                     (or, for `coef`, into a given output format: the engine's
                     update t*g rounds this way); one lane, or R lanes along a
                     leading axis in one pass
    FloatBackend     grid pairs (M, E) = M * 2**E of Python ints; every op
                     result is one exact integer ratio, rounded once (float
                     semantics)
    EnumBackend      a FixedBackend whose rounding step branches instead of
                     drawing: exhaustive, with exact probabilities
    FractionBackend  exact Fractions where nothing rounds: the reference

EnumBackend overrides only its sampled parent's rounding step, so it
evaluates the same ops the engine does; FractionBackend evaluates the same
recipe on exact values.

Constant coefficients (2, 400, 1/16, 1e-3 = 1/1000, ...) are exact rationals
applied as ratios; the product rounds once.  Integer coefficients in fixed
point land back on the grid and never round.

Op tag discipline: every op callsite advances the backend's tag counter in
every backend, whether or not that op rounds, so a draw's (iteration, tag)
address depends only on the recipe structure, never on the data.  Two steps
of the blr recipe, which runs on FixedBackend only, take no tag: the exact
row sum z = sum_j x_ij w_j (`FixedBackend.sum`) and the label subtraction
s - y.  Its roundings therefore sit at tags 0-4: products 0, logistic
values 1, residual products 2, mean 3, regularizer 4.

The binary64 `f` and `grad` take one point or rows (N, n).  A BLAS product
(quadratic's dot, blr's matrix-vector products) runs over rows as one
stacked `np.matmul`, which calls for each row the BLAS routine that point
alone calls, so each row keeps its bits; one matrix-matrix product over the
rows (one gemm) would not.

blr's logistic is SciPy's `expit`, imported when a blr objective is built
(so only blr runs load SciPy, and never inside a timed step).  It is kept
over a numpy `1 / (1 + exp(-z))`, which need not be bitwise equal to it:
any difference would move every blr trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import lpfloat, rng, rounding
from .qnum import FixedVec, QFormat, from_exact, parse_named, to_fraction, to_ratio

_INT64_LIMIT = 1 << 63
_RN = rounding.RoundScheme("rn")

# ---------------------------------------------------------------------------
# ops backends
# ---------------------------------------------------------------------------


class _ConstTable:
    """`const` for a backend with a format `fmt` and a table `_consts` that
    backends of one objective share from step to step."""

    def const(self, c):
        """The stored constant c in the format, `_quantize`d once per format;
        it takes no tag and no draw.  A constant that fails to quantize is
        never stored, so it raises on every use.

        A recipe passes the same constant objects at every step, so the
        table keys them by identity and hashes neither c nor the format;
        an entry keeps c alive, so its id cannot pass to another object.
        """
        hit = self._consts.get(id(c))
        if hit is None or hit[0] is not c or hit[1] is not self.fmt:
            hit = self._consts[id(c)] = (c, self.fmt, self._quantize(c))
        return hit[2]


class FixedBackend(_ConstTable):
    """Recipe ops on integer mantissas in one fixed-point format.

    add/sub and integer coefficients are exact (hard OverflowError past the
    format range); products and fractional coefficients round once with the
    given scheme.

    A value is an int mantissa, a list of one lane's int mantissas, or an
    int64 array of mantissas.  When R lanes run together, `stream` is a list
    of the lanes' RandomStreams and every array a rounding op takes holds the
    lanes along its first axis: lane r's elements, in index order, form row
    r.  Each rounding op draws lane r's words from stream r at the op's
    (k, tag) address, exactly as a one-lane backend on that stream would.

    `consts` is the table of the constants' mantissas (see `const`).
    """

    def __init__(
        self, fmt: QFormat, scheme: rounding.RoundScheme, stream=None, k: int = 0,
        consts: Optional[dict] = None,
    ):
        self.fmt = fmt
        self.scheme = scheme
        self.streams = stream if stream is None or isinstance(stream, list) else [stream]
        self.k = k
        self.tag = 0
        # every backend value is a checked mantissa, so |value| <= peak
        self._peak = -fmt.min_mantissa
        self._consts = {} if consts is None else consts

    def _next_gens(self):
        tag = self.tag
        self.tag += 1
        if self.scheme.is_random:
            if self.streams is None:
                raise ValueError("stochastic scheme needs a RandomStream")
            return [s.generator(self.k, tag) for s in self.streams]
        return None

    def _times(self, c, a, c_peak: int):
        """c * a exactly for |c| <= c_peak: in int64 when no product can leave
        it, else in Python ints.  A list is one lane's row of Python ints."""
        if type(a) is list:
            return [v * c for v in a]
        if not isinstance(a, np.ndarray) or c_peak * self._peak < _INT64_LIMIT:
            return a * c
        return a.astype(object) * c

    def _check(self, m):
        """m unchanged (int64 for arrays), or OverflowError for its first
        out-of-range entry."""
        if not isinstance(m, np.ndarray):
            return self.fmt.check_mantissa(m)
        bad = (m < self.fmt.min_mantissa) | (m > self.fmt.max_mantissa)
        if bad.any():
            self.fmt.check_mantissa(int(m.flat[np.argmax(bad)]))
        return m.astype(np.int64, copy=False)

    def _total(self, a, axis: int):
        """Exact sum of checked mantissas along axis: int64 through `np.einsum`
        while no sum can leave it, else Python ints.  Integer adds are exact
        in any order, so einsum's sums are `.sum`'s."""
        if a.shape[axis] * self._peak >= _INT64_LIMIT:
            return a.astype(object).sum(axis=axis)
        dims, axis = list(range(a.ndim)), axis % a.ndim
        return np.einsum(a, dims, dims[:axis] + dims[axis + 1:])

    def _round_ratio(self, num, den: int, out_fmt: Optional[QFormat] = None):
        """num/den rounded once onto out_fmt (default: the backend's format)."""
        fmt = self.fmt if out_fmt is None else out_fmt
        gens = self._next_gens()
        if not isinstance(num, np.ndarray):
            return rounding.round_ratio_vec(
                num, den, fmt, self.scheme, None if gens is None else gens[0]
            )
        # lane r's elements, in index order, form row r: every lane in one
        # call, whatever num's shape
        rows = num.reshape(len(gens) if gens else 1, -1)
        return rounding.round_ratio_vec(rows, den, fmt, self.scheme, gens).reshape(num.shape)

    def _quantize(self, c) -> int:
        """A stored constant's mantissa; c must sit on the grid exactly."""
        return from_exact(c, self.fmt)

    def add(self, a, b):
        self.tag += 1
        return self._check(a + b)

    def sub(self, a, b):
        self.tag += 1
        return self._check(a - b)

    def mul(self, a, b):
        # (a/S)(b/S) exactly at S^2 scale, then one rounding back to the S grid
        num = self._times(b, a, self._peak)
        return self._round_ratio(num, self.fmt.scale * self.fmt.scale)

    def coef(self, c, a, out_fmt: Optional[QFormat] = None):
        """c * a for an exact rational coefficient c; rounds once if off-grid,
        or, given out_fmt (the engine's update t * g), always onto out_fmt."""
        n, d = to_ratio(c)  # an exact value's ratio is in lowest terms
        num = self._times(n, a, abs(n))
        if d == 1 and out_fmt is None:
            self.tag += 1
            return self._check(num)
        return self._round_ratio(num, d * self.fmt.scale, out_fmt)

    def sum(self, a, axis: int):
        """The exact sum of a along axis, range-checked; takes no tag."""
        return self._check(self._total(a, axis))

    def mean(self, a, axis: int):
        """The mean of a along axis: its exact sum, rounded once."""
        return self._round_ratio(self._total(a, axis), a.shape[axis] * self.fmt.scale)

    def doubles(self, v):
        """Binary64 values, taken exactly, each rounded once into the format:
        one call per lane's row of v.  rn draws nothing, so its lanes need
        not be told apart."""
        gens = self._next_gens()
        rows = np.reshape(v, (len(gens) if gens else 1, -1))
        out = np.empty(rows.shape, dtype=np.int64)
        for i, g in enumerate(gens or [None]):
            out[i] = rounding.round_doubles_vec(rows[i], self.fmt, self.scheme, g)
        return out.reshape(np.shape(v))


class FloatBackend(_ConstTable):
    """Recipe ops on a low-precision float grid; every result rounds.

    A value is a grid pair (M, E), the value M * 2**E, of Python ints.  Each
    op forms its exact result as one integer ratio (n, d), never reduced,
    and rounds it once through `lpfloat.fl_round`.

    `consts` is the table of the constants' grid pairs (see `const`).
    """

    def __init__(
        self,
        fmt: lpfloat.FloatFormat,
        scheme: rounding.RoundScheme,
        stream: Optional[rng.RandomStream] = None,
        k: int = 0,
        consts: Optional[dict] = None,
    ):
        self.fmt = fmt
        self.scheme = scheme
        self.stream = stream
        self.k = k
        self.tag = 0
        self._consts = {} if consts is None else consts

    def _round(self, m: int, e: int, d: int = 1) -> tuple:
        """The exact value m * 2**e / d, rounded."""
        tag = self.tag
        self.tag = tag + 1
        ratio = (m << e, d) if e >= 0 else (m, d << -e)
        return lpfloat.fl_round(ratio, self.fmt, self.scheme, self.stream, self.k, tag)

    def _quantize(self, c) -> tuple:
        """A stored constant's grid pair: c rounded to nearest-even."""
        return lpfloat.fl_round(to_ratio(c), self.fmt, _RN)

    def add(self, a, b) -> tuple:
        (am, ae), (bm, be) = a, b
        if ae <= be:
            return self._round(am + (bm << (be - ae)), ae)
        return self._round((am << (ae - be)) + bm, be)

    def sub(self, a, b) -> tuple:
        (am, ae), (bm, be) = a, b
        if ae <= be:
            return self._round(am - (bm << (be - ae)), ae)
        return self._round((am << (ae - be)) - bm, be)

    def mul(self, a, b) -> tuple:
        return self._round(a[0] * b[0], a[1] + b[1])

    def coef(self, c, a) -> tuple:
        n, d = to_ratio(c)
        return self._round(n * a[0], a[1], d)


class FractionBackend:
    """Exact rational evaluation of a recipe (nothing rounds, nothing clips):
    values are Fractions, and every op takes a tag as the other backends'."""

    def __init__(self):
        self.tag = 0

    def _exact(self, v: Fraction) -> Fraction:
        self.tag += 1
        return v

    def const(self, c) -> Fraction:
        return to_fraction(c)

    def add(self, a, b) -> Fraction:
        return self._exact(a + b)

    def sub(self, a, b) -> Fraction:
        return self._exact(a - b)

    def mul(self, a, b) -> Fraction:
        return self._exact(a * b)

    def coef(self, c, a) -> Fraction:
        return self._exact(to_fraction(c) * a)


class EnumBackend(FixedBackend):
    """Exhaustive fixed-point evaluation: each random rounding is a binary branch.

    Driven by `enumerate_recipe`: a plan is a list of down/up choices for the
    random roundings in callsite order; the backend multiplies up the exact
    probability of the chosen branches.  A rounding that the law decides (on
    the grid, rn, a clamped eps) takes no plan slot.  Every other op is
    FixedBackend's own, overflow rule included.
    """

    def __init__(self, fmt: QFormat, scheme: rounding.RoundScheme, plan: Sequence[int]):
        super().__init__(fmt, scheme)
        self.plan = list(plan)
        self.used = 0
        self.prob = Fraction(1)

    def _round_ratio(self, num, den: int, out_fmt: Optional[QFormat] = None):
        """num/den rounded onto out_fmt (default: the backend's format) under
        one tag.  num is a Python int, or one lane's list of them, which
        branches element by element in index order, as `FixedBackend` draws
        them."""
        fmt = self.fmt if out_fmt is None else out_fmt
        self.tag += 1
        if type(num) is list:
            return [self._branch(v, den, fmt) for v in num]
        return self._branch(num, den, fmt)

    def _branch(self, num: int, den: int, fmt: QFormat) -> int:
        q, r = divmod(num * fmt.scale, den)
        t, cap = rounding.up_weight(q, r, den, self.scheme)
        if not r or t in (0, cap):  # decided by the law: no branch
            return fmt.check_mantissa(q + bool(r and t))
        up = self.plan[self.used] if self.used < len(self.plan) else 0
        self.used += 1
        self.prob *= Fraction(t if up else cap - t, cap)
        return fmt.check_mantissa(q + up)


def enumerate_recipe(
    recipe: Callable[[EnumBackend], Sequence[int]],
    fmt: QFormat,
    scheme: rounding.RoundScheme,
) -> List[tuple]:
    """All (outputs, probability) leaves of a recipe's rounding tree, exactly.

    `recipe` takes an EnumBackend and returns output mantissas.  The result
    probabilities sum to 1; outputs come back as tuples of Fractions.
    """
    leaves: List[tuple] = []

    def walk(plan: List[int]) -> None:
        be = EnumBackend(fmt, scheme, plan)
        out = recipe(be)
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
# objectives
# ---------------------------------------------------------------------------


@dataclass
class Objective:
    """An optimization target plus (optionally) its low-precision recipe.

    `f` and `grad` are binary64 and take one point (n,) or rows (N, n): f
    gives a float or an (N,) array, grad an (n,) or (N, n) array, and each
    row's value is bitwise the value of that row alone, so a run may
    evaluate all its iterates in one call.  A BLAS product over rows is one
    stacked `np.matmul`, which makes for each row the BLAS call that row
    alone makes.  Not so in nan payload bits from 9 rows up when a row's input nans carry
    different payloads (numpy's SIMD loops); arithmetic makes only the
    default nan, as in every record.  blr's `expit` flips a nan's sign, so
    blr evaluates a row holding an inf or a nan again alone.
    """

    name: str
    n: int
    f: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    f_star: Optional[float] = None
    lip_grad: Optional[float] = None
    pl_mu: Optional[float] = None
    recipe: Optional[Callable] = None  # recipe(backend, xs) -> output values
    minima: Optional[List[np.ndarray]] = None
    # the recipe constants' mantissas or grid pairs, shared by the steps
    _consts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def grad_rounded_fixed(
        self, x, scheme: rounding.RoundScheme, stream, k: int, fmt: Optional[QFormat] = None
    ):
        """Gradient recipe on a fixed-point grid.

        x is a FixedVec: one iterate (n,) with `stream` its RandomStream, or
        R lanes (R, n) with `stream` a list of R per-lane streams; either may
        be None under rn.  Each lane rounds and draws exactly as a one-lane
        call on its own stream would; the recipe runs once over all lanes.
        Or x is one lane's list of Python-int mantissas in `fmt` (which a
        FixedVec does not need): the recipe runs on the ints and gives the
        gradient's mantissas as a list, with the words and errors of the
        one-row FixedVec.
        """
        if self.recipe is None:
            raise NotImplementedError(f"{self.name} has no low-precision recipe")
        if type(x) is list:
            # blr's recipe gives an array, whose numpy ints would wrap in the update
            g = self.recipe(FixedBackend(fmt, scheme, stream, k, self._consts), x)
            return g if type(g) is list else g.tolist()
        lanes = x.m.ndim == 2
        rows = x.m if lanes else x.m[None, :]
        be = FixedBackend(x.fmt, scheme, stream, k, self._consts)
        # the recipe reads the (n, R) view: xv[i] is coordinate i of every lane
        g = np.empty(rows.shape, dtype=np.int64)
        g.T[...] = self.recipe(be, rows.T)
        # every recipe output is the result of a checked backend op
        return FixedVec.of_checked(g if lanes else g[0], x.fmt)

    def grad_rounded_float(
        self,
        x: List[tuple],
        fmt: lpfloat.FloatFormat,
        scheme: rounding.RoundScheme,
        stream: Optional[rng.RandomStream],
        k: int,
    ) -> List[tuple]:
        """Gradient recipe on a low-precision float grid.  The iterate x and
        the result are grid pairs (M, E), each the value M * 2**E."""
        if self.recipe is None:
            raise NotImplementedError(f"{self.name} has no scalar recipe")
        be = FloatBackend(fmt, scheme, stream, k, self._consts)
        return list(self.recipe(be, list(x)))


def eval_grad_reference(obj: Objective, x) -> np.ndarray:
    """Exact-arithmetic (binary64) gradient at x, or at each row of a 2-D x,
    in one `obj.grad` call."""
    return np.asarray(obj.grad(np.asarray(x, dtype=np.float64)), dtype=np.float64)


def _dot(u, v):
    """u . v over the last axis of one vector (n,) or of rows (N, n), by one
    stacked matmul: for each row numpy calls the BLAS dot that `np.dot` of
    that row alone calls, so each row keeps its bits."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _point_or_rows(out):
    """A per-point value as a float for one point, an (N,) array for rows."""
    return out if out.ndim else float(out)


def _nonfinite_rows_alone(fn: Callable) -> Callable:
    """fn, which takes one point (n,) or rows (N, n) in one stacked call, with
    every row that holds an inf or a nan evaluated again alone.  From such a
    row blr's terms can be nans of either sign (expit flips a nan's sign),
    and numpy's elementwise loops pick between two nans by the element's
    place in the call, so only alone does that row keep its point's bits."""

    def on_rows(x):
        x = np.asarray(x, dtype=np.float64)
        out = fn(x)
        if x.ndim == 2:
            for i in np.flatnonzero(~np.isfinite(x).all(axis=1)):
                out[i] = fn(x[i])
        return out

    return on_rows


def _of_x1_x2(fn: Callable) -> Callable:
    """fn(x1, x2), elementwise in binary64, on one point (2,) (a float for a
    scalar result) or on rows (N, 2).  Overflow and invalid operations are
    silent, as on Python floats: the value is inf or nan, recorded as it is.

    A point runs as a row of one: numpy's scalar arithmetic, unlike its
    array loops, can return the other operand's payload when both are nan."""

    def on_points(x):
        x = np.asarray(x, dtype=np.float64)
        rows = x.reshape(-1, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            out = fn(rows[:, 0], rows[:, 1])
        if x.ndim == 2:
            return out
        return float(out[0]) if out.ndim == 1 else out[0]

    return on_points


def _square(v):
    """v ** 2 through C `pow`, as Python's float ** 2 computes it; numpy's
    `** 2` squares, which gives the other neighbour on some doubles."""
    return np.float_power(v, 2.0)


# -- quadratic --------------------------------------------------------------


def quadratic(a_diag, x_star=None) -> Objective:
    """f(x) = 0.5 (x - x*)' A (x - x*) with diagonal A > 0.

    Entries of a_diag and x_star are read by `qnum.parse_rational` (exact
    values, or text like '1/10', '0.1' or '2^-4'), and one it cannot read is
    a ValueError naming its argument; the recipe uses them exactly, the
    binary64 f/grad use their float images.
    """
    for name, v in (("a_diag", a_diag), ("x_star", x_star)):
        if v is not None and np.ndim(v) != 1:  # text would split into its characters
            raise ValueError(f"{name} must be a list of numbers, got {v!r}")
    a_fr = [parse_named("a_diag entry", v) for v in a_diag]
    if any(v <= 0 for v in a_fr):
        raise ValueError("diagonal entries must be positive")
    n = len(a_fr)
    if x_star is None:
        xs_fr = [Fraction(0)] * n
    else:
        xs_fr = [parse_named("x_star entry", v) for v in x_star]
        if len(xs_fr) != n:
            raise ValueError(f"x_star has length {len(xs_fr)}, a_diag has length {n}")
    a = np.array([float(v) for v in a_fr])
    xs = np.array([float(v) for v in xs_fr])

    def f(x):
        d = np.asarray(x, dtype=np.float64) - xs
        return _point_or_rows(0.5 * _dot(a * d, d))

    def grad(x: np.ndarray) -> np.ndarray:
        return a * (np.asarray(x, dtype=np.float64) - xs)

    def recipe(be, xv):
        out = []
        for i in range(n):
            d = be.sub(xv[i], be.const(xs_fr[i]))
            out.append(be.coef(a_fr[i], d))
        return out

    return Objective(
        name="quadratic",
        n=n,
        f=f,
        grad=grad,
        f_star=0.0,
        lip_grad=float(a.max()),
        pl_mu=float(a.min()),
        recipe=recipe,
        minima=[xs],
    )


# -- rosenbrock -------------------------------------------------------------


def rosenbrock() -> Objective:
    """f(x) = (1 - x1)^2 + 100 (x2 - x1^2)^2, minimum at (1, 1)."""

    @_of_x1_x2
    def f(x1, x2):
        return _square(1.0 - x1) + 100.0 * _square(x2 - x1 * x1)

    @_of_x1_x2
    def grad(x1, x2):
        v = x2 - x1 * x1
        return np.stack([-2.0 * (1.0 - x1) - 400.0 * x1 * v, 200.0 * v], axis=-1)

    def recipe(be, xv):
        x1, x2 = xv
        s = be.mul(x1, x1)                       # x1^2
        v = be.sub(x2, s)                        # x2 - x1^2
        w = be.mul(x1, v)                        # x1 (x2 - x1^2)
        t1 = be.coef(2, be.sub(x1, be.const(1)))  # 2 (x1 - 1)
        g1 = be.sub(t1, be.coef(400, w))
        g2 = be.coef(200, v)
        return [g1, g2]

    return Objective(
        name="rosenbrock",
        n=2,
        f=f,
        grad=grad,
        f_star=0.0,
        recipe=recipe,
        minima=[np.array([1.0, 1.0])],
    )


# -- himmelblau ---------------------------------------------------------------


HIMMELBLAU_MINIMA = [
    np.array([3.0, 2.0]),
    np.array([-2.805118086952745, 3.131312518250573]),
    np.array([-3.779310253377747, -3.283185991286170]),
    np.array([3.584428340330492, -1.848126526964404]),
]


def himmelblau() -> Objective:
    """f(x) = (x1^2 + x2 - 11)^2 + (x1 + x2^2 - 7)^2, four global minima."""

    @_of_x1_x2
    def f(x1, x2):
        return _square(x1 * x1 + x2 - 11.0) + _square(x1 + x2 * x2 - 7.0)

    @_of_x1_x2
    def grad(x1, x2):
        b = x1 * x1 + x2 - 11.0
        e = x1 + x2 * x2 - 7.0
        return np.stack([4.0 * x1 * b + 2.0 * e, 2.0 * b + 4.0 * x2 * e], axis=-1)

    def recipe(be, xv):
        x1, x2 = xv
        a = be.mul(x1, x1)                       # x1^2
        b = be.sub(be.add(a, x2), be.const(11))  # x1^2 + x2 - 11
        c = be.mul(x2, x2)                       # x2^2
        e = be.sub(be.add(x1, c), be.const(7))   # x1 + x2^2 - 7
        p = be.mul(x1, b)
        q = be.mul(x2, e)
        g1 = be.add(be.coef(4, p), be.coef(2, e))
        g2 = be.add(be.coef(2, b), be.coef(4, q))
        return [g1, g2]

    return Objective(
        name="himmelblau",
        n=2,
        f=f,
        grad=grad,
        f_star=0.0,
        recipe=recipe,
        minima=list(HIMMELBLAU_MINIMA),
    )


# -- binary logistic regression ----------------------------------------------


def blr(
    x_data: np.ndarray,
    y: np.ndarray,
    data_fmt: Optional[QFormat] = None,
    reg: float = 0.0,
) -> Objective:
    """Mean logistic loss over (x_data, y in {0,1}), optional L2 term.

    When data_fmt is given the features are quantized onto that grid once
    (nearest-even) and BOTH the recipe and the reference gradient see the
    quantized data, so the gradient error measures recipe rounding only.
    The recipe runs on FixedBackend only, vectorized over samples, and
    requires the iterate to live in data_fmt.
    """
    from scipy.special import expit

    x_raw = np.asarray(x_data, dtype=np.float64)
    y = np.asarray(y)
    n_samples, n_features = x_raw.shape
    if y.shape != (n_samples,) or not np.isin(y, (0, 1)).all():
        raise ValueError("y must be 0/1 with one label per sample")

    if data_fmt is not None:
        # nearest-even quantization, exact via the double-rounding kernel
        xm = rounding.round_doubles_vec(
            x_raw.reshape(-1), data_fmt, rounding.RoundScheme("rn")
        ).reshape(n_samples, n_features)
        x_q = xm / data_fmt.scale
        y_m = y.astype(np.int64) * data_fmt.scale
    else:
        xm = y_m = None
        x_q = x_raw

    yv = y.astype(np.float64)
    lam = float(reg)

    # one stacked matmul over rows makes one BLAS matvec per row, the one a
    # point alone makes; a matmat over rows (one gemm) need not equal it
    @_nonfinite_rows_alone
    def f(w):
        z = np.matmul(x_q, w[..., None])[..., 0]
        # log(1 + e^z) - y z, stable via logaddexp
        loss = np.logaddexp(0.0, z) - yv * z
        return _point_or_rows(loss.mean(axis=-1) + 0.5 * lam * _dot(w, w))

    @_nonfinite_rows_alone
    def grad(w):
        z = np.matmul(x_q, w[..., None])[..., 0]
        r = expit(z) - yv
        return np.matmul(x_q.T, r[..., None])[..., 0] / n_samples + lam * w

    lam_fr = to_fraction(lam)

    def recipe(be, xv):
        if type(be) is not FixedBackend:
            raise NotImplementedError("blr's recipe runs on FixedBackend only")
        fmt = be.fmt
        if data_fmt is None or fmt != data_fmt:
            raise ValueError("blr fixed path needs the iterate in the data format")
        w = np.asarray(xv).T  # (n,), or (R, n) for R lanes from the (n, R) view
        # products x_ij * w_j, each rounded once, then exact row sums
        z = be.sum(be.mul(xm, w[..., None, :]), axis=-1)
        # logistic values in binary64, then one rounding each
        s = be.doubles(expit(z / fmt.scale))
        r = s - y_m  # exact: y is on every grid
        # products r_i * x_ij, each rounded once; the mean over samples rounds once
        g = be.mean(be.mul(r[..., None], xm), axis=-2)
        if lam:
            g = be.add(g, be.coef(lam_fr, w))
        return g.T

    hess_bound = float(np.linalg.eigvalsh(x_q.T @ x_q).max() / (4.0 * n_samples) + lam)

    return Objective(
        name="blr",
        n=n_features,
        f=f,
        grad=grad,
        lip_grad=hess_bound,
        recipe=recipe,
    )


_FACTORIES = {
    "quadratic": quadratic,
    "rosenbrock": rosenbrock,
    "himmelblau": himmelblau,
    "blr": blr,
}


def make_objective(name: str, **kwargs) -> Objective:
    """Factory by name: quadratic / rosenbrock / himmelblau / blr."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown objective {name!r}") from None
    return factory(**kwargs)
