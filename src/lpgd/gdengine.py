"""Instrumented gradient descent under emulated low-precision arithmetic.

One iteration of the emulated update is

    x_{k+1} = x_k - d_k,     d_k = round2(t * g_k),   g_k = rounded gradient

and the engine books the error against the exact-arithmetic step through

    d_k = t grad f(x_k) + t sigma1_k + sigma2_k
    sigma1_k = g_k - grad f(x_k)          (gradient recipe rounding)
    sigma2_k = d_k - t g_k                (update product rounding)

with grad f evaluated in binary64 at the low-precision iterate.  Coordinates
are classed by whether the exact update step clears the update grid:
|t g_k,i| >= u puts i in C1, below is C2; all-C1 is case 1, all-C2 case 2,
mixed case 3.  In fixed mode u is the mul format's spacing; in float mode it
is the gap of the iterate's binade, coordinate by coordinate.

Number systems, one private class each (`_Fixed`, `_LowFloat`, `_Reference`;
see `_System`), built once per run from the config: "fixed" (two's-complement
grids, working format for the gradient recipe, mul format for the update
product), "lowfloat" (a small binary float grid for everything, every op
rounds, the update subtraction rounds once), and "reference" (plain binary64,
no rounding, for baselines).  Each rounding system has one rounding code for
the recipe and the update alike: fixed point rounds the update t*g as a
`FixedBackend.coef` op onto the mul format, and lowfloat rounds x - t*g
through `lpfloat.fl_round`, as every `FloatBackend` op does.

Draw addressing: gradient-recipe ops use tags 0.. in callsite order; the
update product uses tag SIGMA2_TAG (1 << 20, far above any recipe).  Two
runs with the same seed replay identically; per-coordinate draws sit at
fixed positions in each op's batch.

For signed_sr_eps the update rounding is steered toward descent: in fixed
mode that is the sign of t*g, which is the sign of the value rounded since
t > 0, so the update rounds as sr_eps there; in float mode the rounded value
is x - t*g, so the favored direction is -sign(g).

Ensembles run in lockstep in every number system: the R seeds are R lanes
of one state, and each iteration steps every live lane once.  Draws do not
depend on the batch -- lane r's words for op (k, tag) come from
RandomStream(seed_r).generator(k, tag), in index order -- so a lane's
trajectory is bit for bit the run of its seed alone, and `run(cfg)` is the
one-lane case of the same engine.  One live fixed-point lane is its row of
mantissas as a list of Python ints, from x0 or from the batch's `select`
down to one lane, and its step runs on the ints end to end (the recipe, the
update rounding and x - d) with the lanes' law, words and errors, and
records one-row lists; the path follows from the number of live lanes
alone.  Lanes leave the batch one by one when they stop (stop_below_f,
stop_on_stagnation).  An exception ends the batch, and `run` reruns the
seeds one at a time to raise the first failing seed's exception, as a
sequential run would.  A run's record is the list of its
realized steps' dicts, joined column by column when the run ends (a run of
one-row lists becoming one array per column), so memory grows with the
steps taken, never with the iteration budget.  A step records
its new iterate's column (the mantissas x_m on fixed point, xs otherwise)
and only what the other columns cannot give (fixed point: the mantissas of
g and d; lowfloat: the floats of exact values, and the case labels, which
need the exact grid pairs; reference: its gradient, which is its update) and
does no binary64 work beyond that.  The other columns
follow once per run, over the rows of every lane: fixed point's xs from
x_m, f at every iterate in one `f` call, the binary64 gradient at every
pre-step iterate in one `eval_grad_reference` call, the other float columns
with the binary64 expressions of one step, and the case labels of fixed
point (one integer comparison over all rows of g_tilde_m) and reference
(all 0).  Each row is bitwise the value of that row alone.  The loop tests
only the configured stop criteria: f at the live lanes when stop_below_f is
set, and with stop_on_stagnation the zero-update streak and the gradient at
the lanes whose streak reaches the window, each on the same float rows with
the same calls as the record.  `stagnation_iter` is derived from the record
once per run, so a run with no stop criterion does no work per iteration
beyond its step and that step's record.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import SimpleNamespace
from typing import List, Optional, Sequence

import numpy as np

from . import lpfloat, rng, rounding
from .objectives import FixedBackend, Objective, eval_grad_reference
from .qnum import (
    FixedVec, QFormat, from_exact, make_format, parse_named, parse_rational, to_fraction,
    to_ratio,
)

SIGMA2_TAG = 1 << 20

_INT64_LIMIT = 1 << 63


def check_x0(x0) -> None:
    """ValueError unless x0 is one flat sequence of coordinates: text would
    split into its characters, and a scalar has none."""
    if np.ndim(x0) != 1:
        raise ValueError(f"x0 must be a list of coordinates, got {x0!r}")


@dataclass
class GDConfig:
    """Everything one emulated descent run needs."""

    objective: Objective
    t: Fraction
    x0: Sequence
    iterations: int
    seed: int = 0
    number_system: str = "fixed"
    working_fmt: Optional[QFormat] = None
    mul_fmt: Optional[QFormat] = None
    float_fmt: Optional[lpfloat.FloatFormat] = None
    sigma1_scheme: rounding.RoundScheme = field(
        default_factory=lambda: rounding.RoundScheme("rn")
    )
    sigma2_scheme: rounding.RoundScheme = field(
        default_factory=lambda: rounding.RoundScheme("rn")
    )
    stop_on_stagnation: bool = False
    stop_below_f: Optional[float] = None
    stagnation_window: int = 50

    def __post_init__(self) -> None:
        _check_run_fields(self, self.objective.n)

    @classmethod
    def check_fields(cls, **fields) -> None:
        """Raise the ValueError a GDConfig of these fields (all but objective
        and seed) would raise, naming the field, or one for an x0 entry off
        its grid or, on reference, past binary64: once per config, not on the
        per-seed copies `run` makes."""
        c = SimpleNamespace(seed=0, **fields)
        c.t = parse_named("t", c.t)
        c.sigma1_scheme = parse_named("sigma1", c.sigma1_scheme, rounding.parse_scheme, _SCHEMES)
        c.sigma2_scheme = parse_named("sigma2", c.sigma2_scheme, rounding.parse_scheme, _SCHEMES)
        _check_run_fields(c)
        grid = {"fixed": c.working_fmt, "lowfloat": c.float_fmt}.get(c.number_system)
        for text in c.x0:
            v = parse_named("x0 entry", text)
            if grid is not None and not lpfloat.is_representable(v, grid):
                raise ValueError(f"x0 entry {v} is not on the {grid} grid")
            if c.number_system == "reference":  # a reference run starts from its binary64 image
                try:
                    float(v)
                except OverflowError:
                    raise ValueError(f"x0 entry {text} is beyond the binary64 range") from None

    @property
    def u_mul(self) -> Fraction:
        """Spacing of the update grid (fixed mode)."""
        if self.mul_fmt is None:
            raise ValueError("u_mul is only defined in fixed mode")
        return self.mul_fmt.u


_SCHEMES = "rn, sr, sr_eps:<eps> or signed_sr_eps:<eps> with eps a rational in (0, 1)"


def _check_run_fields(c, n: Optional[int] = None) -> None:
    """GDConfig's checks, in place on c (a GDConfig, or any holder of its
    fields but the objective): each field is parsed to its type, and a
    malformed one raises a ValueError that names it.  x0's length is checked
    against n, the objective's dimension, when given."""
    c.t = parse_rational(c.t)
    if c.t <= 0:
        raise ValueError(f"step size must be positive, got {c.t}")
    for name in ("iterations", "stagnation_window", "seed"):
        value = getattr(c, name)
        try:
            if isinstance(value, bool):  # YAML's true would read as 1
                raise TypeError
            setattr(c, name, operator.index(value))
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not isinstance(c.stop_on_stagnation, bool):  # "false" is truthy
        raise ValueError(
            f"stop_on_stagnation must be true or false, got {c.stop_on_stagnation!r}"
        )
    if c.iterations < 0:
        raise ValueError("iterations must be >= 0")
    if c.stagnation_window < 1:
        raise ValueError("stagnation_window must be >= 1")
    if c.number_system not in _SYSTEMS:
        raise ValueError(f"unknown number system {c.number_system!r}")
    c.sigma1_scheme = rounding.parse_scheme(c.sigma1_scheme)
    c.sigma2_scheme = rounding.parse_scheme(c.sigma2_scheme)
    if isinstance(c.stop_below_f, bool):
        raise ValueError(f"stop_below_f must be a number, got {c.stop_below_f!r}")
    if c.stop_below_f is not None:
        try:
            c.stop_below_f = float(c.stop_below_f)
        except (TypeError, ValueError):
            raise ValueError(f"stop_below_f must be a number, got {c.stop_below_f!r}") from None
    if c.working_fmt is not None and not isinstance(c.working_fmt, QFormat):
        c.working_fmt = make_format(c.working_fmt)
    if c.mul_fmt is not None and not isinstance(c.mul_fmt, QFormat):
        c.mul_fmt = make_format(c.mul_fmt)
    if c.float_fmt is not None and not isinstance(c.float_fmt, lpfloat.FloatFormat):
        c.float_fmt = lpfloat.parse_float_format(c.float_fmt)
    check_x0(c.x0)
    if n is not None and len(c.x0) != n:
        raise ValueError(f"x0 has {len(c.x0)} coordinates, objective wants {n}")
    if c.number_system == "fixed":
        if c.working_fmt is None:
            raise ValueError("fixed mode needs working_fmt")
        if c.mul_fmt is None:
            c.mul_fmt = c.working_fmt
        if c.mul_fmt.qf > c.working_fmt.qf:
            raise ValueError(
                f"update grid {c.mul_fmt} is finer than working grid "
                f"{c.working_fmt}; the iterate update could not stay exact"
            )
    elif c.number_system == "lowfloat":
        if c.float_fmt is None:
            raise ValueError("lowfloat mode needs float_fmt")


@dataclass
class RunResult:
    """Full record of one run: trajectory, per-step errors, case labels.  x_m,
    g_tilde_m and d_m are fixed-point only; final_state is a FixedVec, a list
    of grid Fractions or a float row, by number system."""

    config: GDConfig
    fs: np.ndarray
    xs: np.ndarray
    g_exact: np.ndarray
    g_tilde: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    d: np.ndarray
    case: np.ndarray
    c2_mask: np.ndarray
    nonopp_violations: np.ndarray  # per-iteration count of sign flips
    x_m: Optional[np.ndarray] = None
    g_tilde_m: Optional[np.ndarray] = None
    d_m: Optional[np.ndarray] = None
    final_state: object = None
    stagnated: bool = False
    # k - window + 1 for the first step k that ends `window` steps with an
    # all-zero update (d_m on fixed point, d otherwise) while the norm of
    # g_exact[k] exceeds 10 sqrt(n) u (u: the update grid's spacing, or the
    # float format's unit roundoff); -1 if none.  Derived from the record.
    stagnation_iter: int = -1
    steps: int = 0

    @property
    def final_f(self) -> float:
        return float(self.fs[self.steps])

    @property
    def final_x(self) -> np.ndarray:
        return self.xs[self.steps]

    def iterations_below(self, threshold: float) -> Optional[int]:
        """First k with f(x_k) <= threshold, or None."""
        hits = np.flatnonzero(self.fs[: self.steps + 1] <= threshold)
        return int(hits[0]) if hits.size else None


# ---------------------------------------------------------------------------
# case classification and step pieces
# ---------------------------------------------------------------------------


def classify_case(g_tilde, t: Fraction, u) -> tuple:
    """(case, c2_mask): coordinate i is C2 when |t * g_i| < u_i.

    g_tilde is a FixedVec with one exact grid spacing u (fixed point's
    `finish`), or a sequence of exact values or integer ratios (n, d) with u
    per coordinate, exact values or ratios too (lowfloat's step), or one
    spacing for all.  A FixedVec compares exactly on integers,
    |g_m| * tn * u_den < td * u_num * scale, in int64 unless a side may leave
    it; (N, n) rows give an (N,) case array and an (N, n) mask, one (n,) row
    a case and an (n,) mask.  A sequence compares each coordinate on integers
    too, both sides as integer ratios.
    """
    if isinstance(g_tilde, FixedVec):
        uf, fmt = to_fraction(u), g_tilde.fmt
        lhs, rhs = t.numerator * uf.denominator, t.denominator * uf.numerator * fmt.scale
        m = np.atleast_2d(g_tilde.m)
        if -fmt.min_mantissa * lhs >= _INT64_LIMIT or rhs >= _INT64_LIMIT:
            m = m.astype(object)
        mask = np.abs(m) * lhs < rhs
        case = np.where(~mask.any(axis=1), 1, np.where(mask.all(axis=1), 2, 3))
        return (int(case[0]), mask[0]) if g_tilde.m.ndim == 1 else (case, mask)
    us = u if isinstance(u, (list, tuple, np.ndarray)) else [u] * len(g_tilde)
    tn, td = t.numerator, t.denominator
    c2 = []
    for g, ui in zip(g_tilde, us, strict=True):
        (gn, gd), (un, ud) = to_ratio(g), to_ratio(ui)
        # |t g| < u on integers: t and every denominator are positive
        c2.append(abs(gn) * tn * ud < td * gd * un)
    return (1 if not any(c2) else 2 if all(c2) else 3), np.array(c2, dtype=bool)


def check_nonopposite(g_tilde: np.ndarray, g_exact: np.ndarray):
    """Count coordinates where the rounded gradient flips the exact sign
    (per row for 2-D inputs)."""
    return (np.sign(g_tilde) * np.sign(g_exact) < 0).sum(axis=-1)


# ---------------------------------------------------------------------------
# number systems
# ---------------------------------------------------------------------------

# columns with a row per iterate, x0's included; the others have one per step
_ITERATE_COLUMNS = ("fs", "xs", "x_m")


class _System:
    """What one number system does differently, built once per run.

    `lanes(R)` is the state of R lanes at x0, `select` keeps some lanes and
    `lane(x, j)` is lane j's iterate as a one-seed run returns it.
    `floats(x)` are the lanes' binary64 rows.  `step(x, streams, k)` is one
    update of every lane, and it records the new iterates' column: "xs", or
    the mantissas "x_m" on fixed point.  Every recorded value leads with the
    lane axis: an array, or a list of one row per lane.  `iterates(x)` is
    that column's x0 row, the one iterate no step records.  `columns` maps
    what a step records, the iterate column included, to (dtype, one entry
    per coordinate?).  `finish(cols, pre)` derives the other columns,
    the sign flips aside, once per run over all rows, `pre` selecting the
    rows of the iterate columns that a step starts from: xs where a step
    does not record it, fs at every iterate, g_exact at the pre-step
    iterates where a step does not record it, the other float columns, and
    the `case` and `c2_mask` labels where a step does not record them.  Zero
    rows of the `streak_key` column make the stagnation streak, and `u_stag`
    is the grid spacing of the stagnation test.
    """

    streak_key = "d"
    u_stag = 0.0

    def __init__(self, cfg: GDConfig):
        self.cfg = cfg

    def select(self, x: np.ndarray, idx) -> np.ndarray:
        return x[idx]

    def lane(self, x, j: int):
        return self.select(x, j)

    def floats(self, x: np.ndarray) -> np.ndarray:
        return x

    def iterates(self, x) -> dict:
        return {"xs": self.floats(x)}

    def finish(self, cols: dict, pre: np.ndarray) -> None:
        """fs at every iterate and, unless a step records it, g_exact at the
        pre-step iterates: one call each over every lane's rows."""
        obj = self.cfg.objective
        cols["fs"] = np.asarray(obj.f(cols["xs"]), dtype=np.float64)
        if "g_exact" not in cols:
            cols["g_exact"] = eval_grad_reference(obj, cols["xs"][pre])


class _Fixed(_System):
    """Two's-complement grids, the recipe on the working format, the update
    product t * g rounded onto the mul format by a working-format
    `FixedBackend` at tag SIGMA2_TAG, as `coef` rounds any product.
    signed_sr_eps rounds there as sr_eps: t > 0, so the descent sign of
    t * g is the sign of the value rounded, the sign sr_eps reads.

    The state of R lanes is an (R, n) FixedVec of mantissas; one live lane's
    is its row as a list of Python ints, which `lanes(1)` and `select` down
    to one lane give.  A step of that list runs the recipe, the update
    rounding and x - d on the ints and records one-row lists, so a one-lane
    run builds arrays only for x0's row and for each column when it ends."""

    columns = dict.fromkeys(("x_m", "g_tilde_m", "d_m"), (np.int64, True))
    streak_key = "d_m"

    def __init__(self, cfg: GDConfig):
        # the config-only constants of the update: t as an integer ratio, its
        # scheme, the mul-to-working shift, whether d_m << shift may leave
        # int64 on lanes (once the mul format's integer bits plus the working
        # fraction bits exceed 62; one lane steps on Python ints) and u_mul,
        # and the backend that rounds the update, pointed at each step's lanes
        w, m = cfg.working_fmt, cfg.mul_fmt
        self.cfg, self.u = cfg, cfg.u_mul
        self.t = to_ratio(cfg.t)
        scheme = cfg.sigma2_scheme
        self.update = FixedBackend(
            w, replace(scheme, kind="sr_eps") if scheme.uses_given_sign else scheme
        )
        self.shift = w.qf - m.qf
        self.wide_step = m.qi + w.qf > 62
        self.u_stag = float(self.u)

    def lanes(self, count: int):
        fmt = self.cfg.working_fmt
        row = [from_exact(parse_rational(v), fmt) for v in self.cfg.x0]
        return row if count == 1 else FixedVec(np.tile(np.array(row, np.int64), (count, 1)), fmt)

    def select(self, x, idx):
        if type(x) is list:  # one lane: idx can only keep it
            return x
        m = x.m[idx]
        return m[0].tolist() if len(m) == 1 else FixedVec.of_checked(m, x.fmt)

    @staticmethod
    def _mantissas(x) -> np.ndarray:
        """The (R, n) int64 mantissas of either state."""
        return np.array([x], np.int64) if type(x) is list else x.m

    def lane(self, x, j: int) -> FixedVec:
        return FixedVec.of_checked(self._mantissas(x)[j], self.cfg.working_fmt)

    def floats(self, x) -> np.ndarray:
        return self._mantissas(x) / self.cfg.working_fmt.scale

    def iterates(self, x) -> dict:
        return {"x_m": self._mantissas(x)}

    def step(self, x, streams: list, k: int):
        cfg, be, fmt = self.cfg, self.update, self.cfg.working_fmt
        g = cfg.objective.grad_rounded_fixed(x, cfg.sigma1_scheme, streams, k, fmt)
        be.streams, be.k, be.tag = streams, k, SIGMA2_TAG
        if type(x) is list:  # one live lane: Python ints, no array op
            d = be.coef(self.t, g, cfg.mul_fmt)
            new = [xi - (di << self.shift) for xi, di in zip(x, d)]
            for v in new:
                if not fmt.min_mantissa <= v <= fmt.max_mantissa:
                    raise OverflowError(f"mantissa {v} outside {fmt}")
            return new, {"x_m": [new], "g_tilde_m": [g], "d_m": [d]}
        d_m = be.coef(self.t, g.m, cfg.mul_fmt)
        step = d_m.astype(object) if self.wide_step else d_m
        new_x = FixedVec(x.m - (step << self.shift), fmt)
        return new_x, {"x_m": new_x.m, "g_tilde_m": g.m, "d_m": d_m}

    def finish(self, cols: dict, pre: np.ndarray) -> None:
        """xs from the mantissas, then fs and g_exact, the other float
        columns elementwise as in one step, and the case labels of all rows
        in one integer comparison."""
        cfg, g_m = self.cfg, cols["g_tilde_m"]
        cols["xs"] = cols["x_m"] / cfg.working_fmt.scale
        super().finish(cols, pre)
        case, c2 = classify_case(FixedVec.of_checked(g_m, cfg.working_fmt), cfg.t, self.u)
        g, d = g_m / cfg.working_fmt.scale, cols["d_m"] / cfg.mul_fmt.scale
        cols.update(
            case=case.astype(np.uint8), c2_mask=c2, g_tilde=g, d=d,
            sigma1=g - cols["g_exact"], sigma2=d - float(cfg.t) * g,
        )


class _LowFloat(_System):
    """A small binary float grid, every recipe op rounded and the update
    x - t*g rounded once.  The state of R lanes is a list of R rows of grid
    pairs (M, E) of Python ints, each the value M * 2**E; `lane` gives one
    lane's iterate as Fractions.  The binary64 columns come from the ints by
    one correct rounding each, as float(Fraction) rounds, and a step builds
    its four (g_tilde, d, sigma2, xs) as one float array."""

    columns = {
        **dict.fromkeys(("xs", "g_tilde", "d", "sigma2"), (np.float64, True)),
        "case": (np.uint8, False), "c2_mask": (bool, True),
    }

    @property
    def u_stag(self) -> float:
        return float(self.cfg.float_fmt.unit_roundoff)

    def lanes(self, count: int) -> list:
        row = []
        for v in map(parse_rational, self.cfg.x0):
            if not lpfloat.is_representable(v, self.cfg.float_fmt):
                raise ValueError(f"x0 entry {v} is not on the {self.cfg.float_fmt} grid")
            row.append(lpfloat.to_pair(v))
        return [row] * count

    def select(self, x: list, idx) -> list:
        return [x[j] for j in idx]

    def lane(self, x: list, j: int) -> List[Fraction]:
        return [lpfloat.pair_fraction(m, e) for m, e in x[j]]

    def floats(self, x: list) -> np.ndarray:
        return np.array([[lpfloat.pair_float(m, e) for m, e in row] for row in x])

    def step(self, x: list, streams: list, k: int):
        """Each coordinate's values come from one pass on Python ints: the
        ratios that classify it, the rounded x - t*g, and its four binary64
        values; the float columns are one array per step."""
        cfg = self.cfg
        fmt, t, scheme = cfg.float_fmt, cfg.t, cfg.sigma2_scheme
        tn, td = t.numerator, t.denominator
        pair_ratio, pair_float = lpfloat.pair_ratio, lpfloat.pair_float
        g_t = [
            cfg.objective.grad_rounded_float(row, fmt, cfg.sigma1_scheme, stream, k)
            for row, stream in zip(x, streams)
        ]
        new_x, cases, c2s, floats = [], [], [], []
        for row, g_r, stream in zip(x, g_t, streams):
            new_row, g_ratios, u_ratios, row_floats = [], [], [], []
            for i, ((xm, xe), (gm, ge)) in enumerate(zip(row, g_r)):
                # C2 when |t*g_i| < u_i = 2**G_i, the grid spacing at x_i
                g_ratios.append(pair_ratio(gm, ge))
                u_ratios.append(pair_ratio(1, fmt.gap_exponent(xm, xe)))
                v_sign = (gm < 0) - (gm > 0)  # -sign(g): descent; only signed_sr_eps reads it
                # x - t*g = (td*xm*2**xe - tn*gm*2**ge) / td as one ratio n/d
                e = min(xe, ge)
                n, d = pair_ratio((td * xm << (xe - e)) - (tn * gm << (ge - e)), e)
                d *= td
                ym, ye = lpfloat.fl_round((n, d), fmt, scheme, stream, k, SIGMA2_TAG + i, v_sign)
                new_row.append((ym, ye))
                # d = x - y, and sigma2 = d - t*g = n/d - y
                e = min(xe, ye)
                yn, yd = pair_ratio(ym, ye)
                row_floats.append((
                    pair_float(gm, ge),
                    pair_float((xm << (xe - e)) - (ym << (ye - e)), e),
                    (n * yd - yn * d) / (d * yd),
                    pair_float(ym, ye),
                ))
            case, c2 = classify_case(g_ratios, t, u_ratios)
            new_x.append(new_row)
            cases.append(case)
            c2s.append(c2)
            floats.append(row_floats)
        cols = np.array(floats).transpose(2, 0, 1)
        return new_x, {
            "g_tilde": cols[0], "d": cols[1], "sigma2": cols[2], "xs": cols[3],
            "case": cases, "c2_mask": c2s,
        }

    def finish(self, cols: dict, pre: np.ndarray) -> None:
        super().finish(cols, pre)
        cols["sigma1"] = cols["g_tilde"] - cols["g_exact"]


class _Reference(_System):
    """Plain binary64 descent, no rounding: (R, n) float64 rows.  A step
    records its gradient, since the update is that gradient.

    A reference run ignores its seed, so every live lane holds the same row:
    a step updates the first and repeats the new row for every lane."""

    columns = dict.fromkeys(("xs", "g_exact", "d"), (np.float64, True))

    def lanes(self, count: int) -> np.ndarray:
        return np.tile([float(parse_rational(v)) for v in self.cfg.x0], (count, 1))

    def step(self, x: np.ndarray, streams: list, k: int):
        g_ref = eval_grad_reference(self.cfg.objective, x[:1])
        d = float(self.cfg.t) * g_ref
        lanes = len(x)
        new_x = np.repeat(x[:1] - d, lanes, axis=0)
        return new_x, {
            "xs": new_x, "g_exact": np.repeat(g_ref, lanes, axis=0),
            "d": np.repeat(d, lanes, axis=0),
        }

    def finish(self, cols: dict, pre: np.ndarray) -> None:
        """The rounded gradient is the exact one, with no error and case 0."""
        super().finish(cols, pre)
        g = cols["g_exact"]
        cols.update(
            g_tilde=g.copy(), sigma1=np.zeros_like(g), sigma2=np.zeros_like(g),
            case=np.zeros(len(g), np.uint8), c2_mask=np.zeros(g.shape, bool),
        )


_SYSTEMS = {"fixed": _Fixed, "lowfloat": _LowFloat, "reference": _Reference}


def gd_step(x_state, system: _System, streams: list, k: int):
    """One update of R lanes in `system`'s number system: x_state is their
    state, streams their RandomStreams.  Returns (new_state, step dict);
    every value in the dict has a leading lane axis.  The run keeps the
    dict's arrays and lists as its record until it ends, so no step writes
    into one after returning it: every step builds new ones."""
    return system.step(x_state, streams, k)


def run(cfg: GDConfig, seeds: Optional[Sequence[int]] = None):
    """Run the configured descent and record every iteration.

    `run(cfg)` is one run at cfg.seed.  `run(cfg, seeds)` is one run per
    seed (each with config `replace(cfg, seed=s)`), returned in seed order;
    the runs advance together in lockstep, whatever the number system.  A
    failing run raises, as running the seeds one after another would: when
    a batch of several seeds raises, each seed reruns alone until one raises
    its own exception (the batch's is raised if none does).
    """
    cfgs = [cfg] if seeds is None else [replace(cfg, seed=operator.index(s)) for s in seeds]
    try:
        results = _run_lanes(cfgs)
    except Exception:
        if len(cfgs) < 2:
            raise
        for c in cfgs:  # draws are addressed by seed, so a rerun replays its words
            _run_lanes([c])
        raise
    return results[0] if seeds is None else results


def run_ensemble(cfg: GDConfig, seeds: Sequence[int]) -> List[RunResult]:
    """Independent runs of the same config over the given seeds."""
    return run(cfg, seeds)


def _gradient_above(g_row: np.ndarray, bound: float) -> bool:
    """The stagnation test of one binary64 gradient row: its norm, one BLAS
    dot as `np.linalg.norm` takes it, exceeds bound (a nan norm does not)."""
    return bool(np.linalg.norm(g_row) > bound)


def _stagnation_iters(
    moved: np.ndarray, g_exact: np.ndarray, start: np.ndarray, window: int, bound: float
) -> np.ndarray:
    """Each lane's stagnation_iter from its step rows, lane r's rows being
    start[r]:start[r + 1] in step order: k - window + 1 for the first step k
    that ends a run of `window` steps with no movement (`moved` False) and
    whose pre-step gradient row in g_exact is above bound, else -1."""
    rows = np.arange(len(moved))
    # a row's streak counts back to the last row that moved, at most to its
    # lane's first row
    lane_head = np.repeat(start[:-1], np.diff(start))
    last_moved = np.maximum(np.maximum.accumulate(np.where(moved, rows, -1)), lane_head - 1)
    due = np.flatnonzero(rows - last_moved >= window)
    lane_due = np.searchsorted(due, start)
    out = np.full(len(start) - 1, -1, dtype=np.int64)
    for r in range(len(out)):
        for i in due[lane_due[r] : lane_due[r + 1]]:
            if _gradient_above(g_exact[i], bound):
                out[r] = i - start[r] - window + 1
                break
    return out


def _join(parts: list, dtype) -> np.ndarray:
    """One column from its parts in order: arrays, and lists of rows (one
    lane's, or lowfloat's per-lane labels), each run of consecutive lists
    becoming one array."""
    arrays, rows = [], []
    for part in parts:
        if type(part) is list:
            rows += part
            continue
        if rows:
            arrays.append(np.array(rows, dtype))
            rows = []
        arrays.append(part)
    if rows:
        arrays.append(np.array(rows, dtype))
    return np.concatenate(arrays)


def _run_lanes(cfgs: List[GDConfig]) -> List[RunResult]:
    """Runs of configs that differ only in seed, one lane each, in lockstep.

    The live lanes share one state and one `gd_step` per iteration, and a
    lane leaves when it stops.  Each iteration appends its live lanes and
    step dict to a list; when the run ends, each column of `system.columns`
    is one concatenation over that list, sorted by lane, the lanes' x0 rows
    heading the iterate columns, and `system.finish` derives the others.  An
    exception from any lane ends the batch; `run` finds the seed it belongs
    to.

    Each iteration steps, records, and tests only the configured stop
    criteria: f at the live lanes for stop_below_f, and for
    stop_on_stagnation the zero-update streaks and the gradient at the lanes
    whose streak reaches the window, a hit stopping its lane at once.
    `stagnation_iter` is derived from the record once per run, for every
    run, by the same norm test (`_stagnation_iters`).
    """
    if not cfgs:
        return []
    cfg = cfgs[0]
    obj = cfg.objective
    system = _SYSTEMS[cfg.number_system](cfg)
    window = cfg.stagnation_window
    check_f, check_stag = cfg.stop_below_f is not None, cfg.stop_on_stagnation
    stag_norm = 10.0 * np.sqrt(obj.n) * system.u_stag
    lanes = len(cfgs)

    # per live lane, in lane order: lane index, stream, iterate, zero-step streak
    live = np.arange(lanes)
    lane_streams = [rng.RandomStream(c.seed) for c in cfgs]
    x = system.lanes(lanes)
    x0_rows = system.iterates(x)
    streak = np.zeros(lanes, dtype=np.int64)
    final: list = [None] * lanes  # by lane index, kept when a lane leaves the batch
    steps = []  # (live lanes, step dict) per iteration

    below_at_x0 = check_f and obj.f(system.floats(x)[0]) <= cfg.stop_below_f
    for k in range(0 if below_at_x0 else cfg.iterations):
        x_pre = x if check_stag else None
        x, rec = gd_step(x, system, lane_streams, k)
        steps.append((live, rec))
        if not (check_f or check_stag):
            continue

        if check_f:
            stop = obj.f(rec["xs"] if "xs" in rec else system.floats(x)) <= cfg.stop_below_f
        else:
            stop = np.zeros(len(live), dtype=bool)
        if check_stag:
            streak = np.where(np.any(rec[system.streak_key], axis=1), 0, streak + 1)
            due = np.flatnonzero(streak >= window)
            if due.size:
                # the gradient at the step's start, as `finish` records it
                g = eval_grad_reference(obj, system.floats(system.select(x_pre, due)))
                for j, g_j in zip(due, g):
                    stop[j] |= _gradient_above(g_j, stag_norm)
        if stop.any():
            if stop.all():
                break
            for j in np.flatnonzero(stop):
                final[live[j]] = system.lane(x, j)
            idx = np.flatnonzero(~stop)
            live, streak = live[idx], streak[idx]
            lane_streams = [lane_streams[j] for j in idx]
            x = system.select(x, idx)

    for j, i in enumerate(live):
        final[i] = system.lane(x, j)

    # each lane's rows, in iteration order: step columns have one row per
    # step, iterate columns x0's row first and one row after each step
    step_lanes = np.concatenate([np.zeros(0, np.int64)] + [lv for lv, _ in steps])
    step_order = np.argsort(step_lanes, kind="stable")
    iterate_order = np.argsort(np.concatenate((np.arange(lanes), step_lanes)), kind="stable")
    start = np.concatenate(([0], np.cumsum(np.bincount(step_lanes, minlength=lanes))))
    last = start[1:] + np.arange(lanes)  # each lane's last iterate row
    pre = np.ones(last[-1] + 1, dtype=bool)
    pre[last] = False
    cols = {}
    for key, (dtype, per_coord) in system.columns.items():
        if key in _ITERATE_COLUMNS:
            head, order = x0_rows[key], iterate_order
        else:
            head, order = np.zeros((0, obj.n) if per_coord else (0,), dtype), step_order
        rows = _join([head] + [rec[key] for _, rec in steps], dtype)
        cols[key] = rows.astype(dtype, copy=False)[order]
    system.finish(cols, pre)
    cols["nonopp_violations"] = check_nonopposite(cols["g_tilde"], cols["g_exact"])
    stagnation_iter = _stagnation_iters(
        cols[system.streak_key].any(axis=1), cols["g_exact"], start, window, stag_norm
    )
    results = []
    for r, c in enumerate(cfgs):
        by_step, by_iterate = slice(start[r], start[r + 1]), slice(start[r] + r, last[r] + 1)
        results.append(
            RunResult(
                config=c,
                final_state=final[r],
                stagnated=bool(stagnation_iter[r] >= 0),
                stagnation_iter=int(stagnation_iter[r]),
                steps=int(start[r + 1] - start[r]),
                **{
                    key: col[by_iterate if key in _ITERATE_COLUMNS else by_step]
                    for key, col in cols.items()
                },
            )
        )
    return results
