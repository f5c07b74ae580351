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
one-lane case of the same engine.  A fixed-point step of one live lane runs
on Python ints end to end (the recipe, the update rounding and x - d) with
the lanes' law, words and errors; the path follows from the number of live
lanes alone.  Lanes leave the batch one by one when they stop (stop_below_f,
stop_on_stagnation).  An exception ends the batch, and `run` reruns the
seeds one at a time to raise the first failing seed's exception, as a
sequential run would.  A run's record is the list of its
realized steps' dicts, joined column by column when the run ends, so memory
grows with the steps taken, never with the iteration budget.  A step records
only what the other columns cannot give (fixed point: the mantissas;
lowfloat: the iterate's floats, the floats of exact values, and the case
labels, which need the exact grid pairs; reference: its gradient, which is
its update) and does no binary64 work beyond that.  The other columns
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
from typing import List, Optional, Sequence

import numpy as np

from . import lpfloat, rng, rounding
from .objectives import FixedBackend, Objective, eval_grad_reference
from .qnum import (
    FixedVec, QFormat, make_format, parse_rational, to_fraction, to_ratio, vec_from_exact,
)

SIGMA2_TAG = 1 << 20

_INT64_LIMIT = 1 << 63


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
        self.t = parse_rational(self.t)
        if self.t <= 0:
            raise ValueError(f"step size must be positive, got {self.t}")
        for name in ("iterations", "stagnation_window"):
            value = getattr(self, name)
            try:
                setattr(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.stagnation_window < 1:
            raise ValueError("stagnation_window must be >= 1")
        if self.number_system not in _SYSTEMS:
            raise ValueError(f"unknown number system {self.number_system!r}")
        self.sigma1_scheme = rounding.parse_scheme(self.sigma1_scheme)
        self.sigma2_scheme = rounding.parse_scheme(self.sigma2_scheme)
        if self.stop_below_f is not None:
            self.stop_below_f = float(self.stop_below_f)
        if self.working_fmt is not None and not isinstance(self.working_fmt, QFormat):
            self.working_fmt = make_format(self.working_fmt)
        if self.mul_fmt is not None and not isinstance(self.mul_fmt, QFormat):
            self.mul_fmt = make_format(self.mul_fmt)
        if self.float_fmt is not None and not isinstance(
            self.float_fmt, lpfloat.FloatFormat
        ):
            self.float_fmt = lpfloat.parse_float_format(self.float_fmt)
        if len(self.x0) != self.objective.n:
            raise ValueError(
                f"x0 has {len(self.x0)} coordinates, objective wants {self.objective.n}"
            )
        if self.number_system == "fixed":
            if self.working_fmt is None:
                raise ValueError("fixed mode needs working_fmt")
            if self.mul_fmt is None:
                self.mul_fmt = self.working_fmt
            if self.mul_fmt.qf > self.working_fmt.qf:
                raise ValueError(
                    f"update grid {self.mul_fmt} is finer than working grid "
                    f"{self.working_fmt}; the iterate update could not stay exact"
                )
        elif self.number_system == "lowfloat":
            if self.float_fmt is None:
                raise ValueError("lowfloat mode needs float_fmt")

    @property
    def u_mul(self) -> Fraction:
        """Spacing of the update grid (fixed mode)."""
        if self.mul_fmt is None:
            raise ValueError("u_mul is only defined in fixed mode")
        return self.mul_fmt.u


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
    `floats(x)` are the lanes' binary64 rows, and `iterates(x)` the column
    that records the lanes' iterates: "xs", or the mantissas "x_m" on fixed
    point.  `step(x, streams, k)` is one update of every lane.  `columns`
    maps what a step records, the iterate column included, to (dtype, one
    entry per coordinate?).  `finish(cols, pre)` derives the other columns,
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
    """Two's-complement grids: an (R, n) FixedVec of mantissas, the recipe on
    the working format, the update product t * g rounded onto the mul format
    by a working-format `FixedBackend` at tag SIGMA2_TAG, as `coef` rounds
    any product.  signed_sr_eps rounds there as sr_eps: t > 0, so the descent
    sign of t * g is the sign of the value rounded, the sign sr_eps reads."""

    columns = dict.fromkeys(("x_m", "g_tilde_m", "d_m"), (np.int64, True))
    streak_key = "d_m"

    def __init__(self, cfg: GDConfig):
        # the config-only constants of the update: its scheme, the
        # mul-to-working shift, whether d_m << shift may leave int64 on lanes
        # (once the mul format's integer bits plus the working fraction bits
        # exceed 62; one lane steps on Python ints) and u_mul, and the
        # backend that rounds the update, pointed at each step's lanes
        w, m = cfg.working_fmt, cfg.mul_fmt
        self.cfg, self.u = cfg, cfg.u_mul
        scheme = cfg.sigma2_scheme
        self.update = FixedBackend(
            w, replace(scheme, kind="sr_eps") if scheme.uses_given_sign else scheme
        )
        self.shift = w.qf - m.qf
        self.wide_step = m.qi + w.qf > 62
        self.u_stag = float(self.u)

    def lanes(self, count: int) -> FixedVec:
        x0 = vec_from_exact([parse_rational(v) for v in self.cfg.x0], self.cfg.working_fmt)
        return FixedVec(np.tile(x0.m, (count, 1)), x0.fmt)

    def select(self, x: FixedVec, idx) -> FixedVec:
        return FixedVec.of_checked(x.m[idx], x.fmt)

    def floats(self, x: FixedVec) -> np.ndarray:
        return x.to_floats()

    def iterates(self, x: FixedVec) -> dict:
        return {"x_m": x.m}

    def step(self, x: FixedVec, streams: list, k: int):
        cfg = self.cfg
        g_t = cfg.objective.grad_rounded_fixed(x, cfg.sigma1_scheme, streams, k)

        be = self.update
        be.streams, be.k, be.tag = streams, k, SIGMA2_TAG
        if len(x.m) == 1:  # one live lane: Python ints, no array op
            new_x, d_m = self._step_lane(x, be.coef(cfg.t, g_t.m[0].tolist(), cfg.mul_fmt))
        else:
            d_m = be.coef(cfg.t, g_t.m, cfg.mul_fmt)
            step = d_m.astype(object) if self.wide_step else d_m
            new_x = FixedVec(x.m - (step << self.shift), x.fmt)
        return new_x, {"g_tilde_m": g_t.m, "d_m": d_m}

    def _step_lane(self, x: FixedVec, d: list):
        """x - d for one live lane on Python ints, d its rounded update
        mantissas: (new iterate, (1, n) d_m)."""
        new = [xi - (di << self.shift) for xi, di in zip(x.m[0].tolist(), d)]
        if min(new, default=0) < x.fmt.min_mantissa or max(new, default=0) > x.fmt.max_mantissa:
            FixedVec(np.array([new], dtype=object), x.fmt)  # raises the range error
        return (
            FixedVec.of_checked(np.array([new], dtype=np.int64), x.fmt),
            np.array([d], dtype=np.int64),
        )

    def finish(self, cols: dict, pre: np.ndarray) -> None:
        """xs from the mantissas, then fs and g_exact, the other float
        columns elementwise as in one step, and the case labels of all rows
        in one integer comparison."""
        cfg, g_m = self.cfg, cols["g_tilde_m"]
        cols["xs"] = self.floats(FixedVec.of_checked(cols["x_m"], cfg.working_fmt))
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
    one correct rounding each, as float(Fraction) rounds."""

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
        cfg = self.cfg
        fmt, t, scheme = cfg.float_fmt, cfg.t, cfg.sigma2_scheme
        tn, td = t.numerator, t.denominator
        g_t = [
            cfg.objective.grad_rounded_float(row, fmt, cfg.sigma1_scheme, stream, k)
            for row, stream in zip(x, streams)
        ]
        # C2 when |t*g_i| < 2**G_i, the grid spacing at x_i, on integer ratios
        case, c2 = zip(*(
            classify_case(
                [lpfloat.pair_ratio(m, e) for m, e in g_r],
                t,
                [lpfloat.pair_ratio(1, fmt.gap_exponent(m, e)) for m, e in row],
            )
            for row, g_r in zip(x, g_t)
        ))
        new_x, out = [], np.empty((3, len(x), len(x[0])))  # out: g_tilde, d, sigma2
        for r, (row, g_r, stream) in enumerate(zip(x, g_t, streams)):
            new_row = []
            for i, ((xm, xe), (gm, ge)) in enumerate(zip(row, g_r)):
                v_sign = (gm < 0) - (gm > 0)  # -sign(g): descent; only signed_sr_eps reads it
                # x - t*g = (td*xm*2**xe - tn*gm*2**ge) / td as one ratio n/d
                e = min(xe, ge)
                n, d = lpfloat.pair_ratio((td * xm << (xe - e)) - (tn * gm << (ge - e)), e)
                d *= td
                ym, ye = lpfloat.fl_round((n, d), fmt, scheme, stream, k, SIGMA2_TAG + i, v_sign)
                new_row.append((ym, ye))
                # d = x - y, and sigma2 = d - t*g = n/d - y
                e = min(xe, ye)
                yn, yd = lpfloat.pair_ratio(ym, ye)
                out[:, r, i] = (
                    lpfloat.pair_float(gm, ge),
                    lpfloat.pair_float((xm << (xe - e)) - (ym << (ye - e)), e),
                    (n * yd - yn * d) / (d * yd),
                )
            new_x.append(new_row)
        return new_x, {
            "g_tilde": out[0], "d": out[1], "sigma2": out[2], "case": case, "c2_mask": c2,
        }

    def finish(self, cols: dict, pre: np.ndarray) -> None:
        super().finish(cols, pre)
        cols["sigma1"] = cols["g_tilde"] - cols["g_exact"]


class _Reference(_System):
    """Plain binary64 descent, no rounding: (R, n) float64 rows.  A step
    records its gradient, since the update is that gradient."""

    columns = dict.fromkeys(("xs", "g_exact", "d"), (np.float64, True))

    def lanes(self, count: int) -> np.ndarray:
        return np.tile([float(parse_rational(v)) for v in self.cfg.x0], (count, 1))

    def step(self, x: np.ndarray, streams: list, k: int):
        g_ref = eval_grad_reference(self.cfg.objective, x)
        d = float(self.cfg.t) * g_ref
        return x - d, {"g_exact": g_ref, "d": d}

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
    dict's arrays as its record until it ends, so no step writes into an
    array after returning it: every step builds new arrays."""
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
        rec.update(system.iterates(x))
        steps.append((live, rec))
        if not (check_f or check_stag):
            continue

        if check_f:
            stop = obj.f(rec["xs"] if "xs" in rec else system.floats(x)) <= cfg.stop_below_f
        else:
            stop = np.zeros(len(live), dtype=bool)
        if check_stag:
            streak = np.where(rec[system.streak_key].any(axis=1), 0, streak + 1)
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
        rows = np.concatenate([head] + [rec[key] for _, rec in steps])
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
