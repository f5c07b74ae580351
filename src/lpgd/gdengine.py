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
lowfloat: the floats of exact values, and the case labels, which need the
exact grid pairs); the remaining float columns follow once per run, with
the binary64 expressions of one step, and so do the case labels of fixed
point (one integer comparison over all rows of g_tilde_m) and reference
(all 0).
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

    def initial_state(self):
        system = _SYSTEMS[self.number_system](self)
        return system.lane(system.lanes(1), 0)


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

    g_tilde: a FixedVec, or a sequence of exact values or integer ratios
    (n, d); u: a scalar grid spacing or per-coordinate spacings, exact values
    or ratios.  A FixedVec with a scalar u compares exactly on integers,
    |g_m| * tn * u_den < td * u_num * scale, in int64 unless a side may leave
    it; (N, n) rows give an (N,) case array and an (N, n) mask, one (n,) row
    a case and an (n,) mask.  A sequence compares each coordinate on integers
    too, both sides as integer ratios.
    """
    if isinstance(g_tilde, FixedVec) and not isinstance(u, (list, tuple, np.ndarray)):
        uf, fmt = to_fraction(u), g_tilde.fmt
        lhs, rhs = t.numerator * uf.denominator, t.denominator * uf.numerator * fmt.scale
        m = np.atleast_2d(g_tilde.m)
        if -fmt.min_mantissa * lhs >= _INT64_LIMIT or rhs >= _INT64_LIMIT:
            m = m.astype(object)
        mask = np.abs(m) * lhs < rhs
        case = np.where(~mask.any(axis=1), 1, np.where(mask.all(axis=1), 2, 3))
        return (int(case[0]), mask[0]) if g_tilde.m.ndim == 1 else (case, mask)
    gv = g_tilde.to_fractions() if isinstance(g_tilde, FixedVec) else g_tilde
    us = u if isinstance(u, (list, tuple, np.ndarray)) else [u] * len(gv)
    tn, td = t.numerator, t.denominator
    c2 = []
    for g, ui in zip(gv, us, strict=True):
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


class _System:
    """What one number system does differently, built once per run.

    `lanes(R)` is the state of R lanes at x0, `select` keeps some lanes and
    `lane(x, j)` is lane j's iterate as a one-seed run returns it.
    `iterates(x)` are the columns that record the lanes' iterates: their
    binary64 rows "xs", and the mantissas "x_m" of fixed-point lanes.
    `step` is one update of every lane; `columns` maps what a step records
    to (dtype, one entry per coordinate?), and `finish` derives the other
    columns, the sign flips aside, once per run: the float columns, and the
    `case` and `c2_mask` labels where a step does not record them.  Zero
    rows of the `streak_key` column make the stagnation streak, and `u_stag`
    is the grid spacing of the stagnation test.
    """

    columns = {"fs": (np.float64, False), "xs": (np.float64, True), "g_exact": (np.float64, True)}
    streak_key = "d"
    u_stag = 0.0

    def __init__(self, cfg: GDConfig):
        self.cfg = cfg

    def select(self, x: np.ndarray, idx) -> np.ndarray:
        return x[idx]

    def lane(self, x, j: int):
        return self.select(x, j)

    def iterates(self, x: np.ndarray) -> dict:
        return {"xs": x}


class _Fixed(_System):
    """Two's-complement grids: an (R, n) FixedVec of mantissas, the recipe on
    the working format, the update product t * g rounded onto the mul format
    by a working-format `FixedBackend` at tag SIGMA2_TAG, as `coef` rounds
    any product.  signed_sr_eps rounds there as sr_eps: t > 0, so the descent
    sign of t * g is the sign of the value rounded, the sign sr_eps reads."""

    columns = {**_System.columns, **dict.fromkeys(("x_m", "g_tilde_m", "d_m"), (np.int64, True))}
    streak_key = "d_m"

    def __init__(self, cfg: GDConfig):
        # the config-only constants of the update: its scheme, the
        # mul-to-working shift, whether d_m << shift may leave int64 on lanes
        # (once the mul format's integer bits plus the working fraction bits
        # exceed 62; one lane steps on Python ints) and u_mul
        w, m = cfg.working_fmt, cfg.mul_fmt
        self.cfg, self.u = cfg, cfg.u_mul
        scheme = cfg.sigma2_scheme
        self.scheme = replace(scheme, kind="sr_eps") if scheme.uses_given_sign else scheme
        self.shift = w.qf - m.qf
        self.wide_step = m.qi + w.qf > 62
        self.u_stag = float(self.u)

    def lanes(self, count: int) -> FixedVec:
        x0 = vec_from_exact([parse_rational(v) for v in self.cfg.x0], self.cfg.working_fmt)
        return FixedVec(np.tile(x0.m, (count, 1)), x0.fmt)

    def select(self, x: FixedVec, idx) -> FixedVec:
        return FixedVec.of_checked(x.m[idx], x.fmt)

    def iterates(self, x: FixedVec) -> dict:
        return {"xs": x.to_floats(), "x_m": x.m}

    def step(self, x: FixedVec, xf: np.ndarray, streams: list, k: int):
        cfg = self.cfg
        g_t = cfg.objective.grad_rounded_fixed(x, cfg.sigma1_scheme, streams, k)
        g_ref = eval_grad_reference(cfg.objective, xf)

        be = FixedBackend(cfg.working_fmt, self.scheme, streams, k)
        be.tag = SIGMA2_TAG
        if len(x.m) == 1:  # one live lane: Python ints, no array op
            new_x, d_m = self._step_lane(x, be.coef(cfg.t, g_t.m[0].tolist(), cfg.mul_fmt))
        else:
            d_m = be.coef(cfg.t, g_t.m, cfg.mul_fmt)
            step = d_m.astype(object) if self.wide_step else d_m
            new_x = FixedVec(x.m - (step << self.shift), x.fmt)
        return new_x, {"g_tilde_m": g_t.m, "g_exact": g_ref, "d_m": d_m}

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

    def finish(self, cols: dict) -> None:
        """The float columns, from the mantissas, elementwise as in one step,
        and the case labels of all rows in one integer comparison."""
        cfg, g_m = self.cfg, cols["g_tilde_m"]
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
        **_System.columns, **dict.fromkeys(("g_tilde", "d", "sigma2"), (np.float64, True)),
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

    def iterates(self, x: list) -> dict:
        return {"xs": np.array([[lpfloat.pair_float(m, e) for m, e in row] for row in x])}

    def step(self, x: list, xf: np.ndarray, streams: list, k: int):
        cfg = self.cfg
        fmt, t, scheme = cfg.float_fmt, cfg.t, cfg.sigma2_scheme
        tn, td = t.numerator, t.denominator
        g_t = [
            cfg.objective.grad_rounded_float(row, fmt, cfg.sigma1_scheme, stream, k)
            for row, stream in zip(x, streams)
        ]
        g_ref = eval_grad_reference(cfg.objective, xf)
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
                v_sign = (gm < 0) - (gm > 0) if scheme.uses_given_sign else 0  # -sign(g): descent
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
            "g_tilde": out[0], "g_exact": g_ref, "d": out[1], "sigma2": out[2],
            "case": case, "c2_mask": c2,
        }

    def finish(self, cols: dict) -> None:
        cols["sigma1"] = cols["g_tilde"] - cols["g_exact"]


class _Reference(_System):
    """Plain binary64 descent, no rounding: (R, n) float64 rows."""

    columns = {**_System.columns, "d": (np.float64, True)}

    def lanes(self, count: int) -> np.ndarray:
        return np.tile([float(parse_rational(v)) for v in self.cfg.x0], (count, 1))

    def step(self, x: np.ndarray, xf: np.ndarray, streams: list, k: int):
        g_ref = eval_grad_reference(self.cfg.objective, xf)
        d = float(self.cfg.t) * g_ref
        return x - d, {"g_exact": g_ref, "d": d}

    def finish(self, cols: dict) -> None:
        """The rounded gradient is the exact one, with no error and case 0."""
        g = cols["g_exact"]
        cols.update(
            g_tilde=g.copy(), sigma1=np.zeros_like(g), sigma2=np.zeros_like(g),
            case=np.zeros(len(g), np.uint8), c2_mask=np.zeros(g.shape, bool),
        )


_SYSTEMS = {"fixed": _Fixed, "lowfloat": _LowFloat, "reference": _Reference}


def gd_step(x_state, x_floats: np.ndarray, system: _System, streams: list, k: int):
    """One update of R lanes in `system`'s number system: x_state is their
    state, x_floats its binary64 rows, streams their RandomStreams.  Returns
    (new_state, step dict); every value in the dict has a leading lane axis.
    The run keeps the dict's arrays as its record until it ends, so no step
    writes into an array after returning it: every step builds new arrays."""
    return system.step(x_state, x_floats, streams, k)


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


def _run_lanes(cfgs: List[GDConfig]) -> List[RunResult]:
    """Runs of configs that differ only in seed, one lane each, in lockstep.

    The live lanes share one state and one `gd_step` per iteration, and a
    lane leaves when it stops.  Each iteration appends its live lanes and
    step dict to a list; when the run ends, each column of `system.columns`
    is one concatenation over that list, sorted by lane.  An exception from
    any lane ends the batch; `run` finds the seed it belongs to.
    """
    if not cfgs:
        return []
    cfg = cfgs[0]
    obj = cfg.objective
    system = _SYSTEMS[cfg.number_system](cfg)
    window = cfg.stagnation_window
    below = np.nan if cfg.stop_below_f is None else cfg.stop_below_f
    stag_norm = 10.0 * np.sqrt(obj.n) * system.u_stag
    lanes = len(cfgs)

    # per live lane, in lane order: lane index, stream, iterate and its
    # binary64 row, zero-step streak
    live = np.arange(lanes)
    lane_streams = [rng.RandomStream(c.seed) for c in cfgs]
    x = system.lanes(lanes)
    x0_rows = system.iterates(x)
    xf = x0_rows["xs"]
    f0 = obj.f(xf[0])
    streak = np.zeros(lanes, dtype=np.int64)
    stagnation_iter = np.full(lanes, -1, dtype=np.int64)  # by lane index
    final: list = [None] * lanes  # by lane index, kept when a lane leaves the batch
    steps = []  # (live lanes, step dict) per iteration

    for k in range(0 if f0 <= below else cfg.iterations):
        x, rec = gd_step(x, xf, system, lane_streams, k)
        rec.update(system.iterates(x))
        xf = rec["xs"]
        rec["fs"] = np.array([obj.f(row) for row in xf], dtype=np.float64)
        steps.append((live, rec))

        moved = rec[system.streak_key].any(axis=1)
        streak = np.where(moved, 0, streak + 1)
        stop = rec["fs"] <= below
        if streak.max() >= window:
            for j in np.flatnonzero(streak >= window):
                if stagnation_iter[live[j]] < 0 and np.linalg.norm(rec["g_exact"][j]) > stag_norm:
                    stagnation_iter[live[j]] = k - window + 1
                    stop[j] |= cfg.stop_on_stagnation
        if stop.any():
            if stop.all():
                break
            for j in np.flatnonzero(stop):
                final[live[j]] = system.lane(x, j)
            idx = np.flatnonzero(~stop)
            live, xf, streak = live[idx], xf[idx], streak[idx]
            lane_streams = [lane_streams[j] for j in idx]
            x = system.select(x, idx)

    for j, i in enumerate(live):
        final[i] = system.lane(x, j)

    # each lane's rows, in iteration order
    lane_of_row = np.concatenate([np.zeros(0, np.int64)] + [lv for lv, _ in steps])
    order = np.argsort(lane_of_row, kind="stable")
    start = np.concatenate(([0], np.cumsum(np.bincount(lane_of_row, minlength=lanes))))
    cols = {}
    for key, (dtype, per_coord) in system.columns.items():
        empty = np.zeros((0, obj.n) if per_coord else (0,), dtype)
        rows = np.concatenate([empty] + [rec[key] for _, rec in steps])
        cols[key] = rows.astype(dtype, copy=False)[order]
    system.finish(cols)
    cols["nonopp_violations"] = check_nonopposite(cols["g_tilde"], cols["g_exact"])
    first = {"fs": np.array([f0]), **{key: col[:1] for key, col in x0_rows.items()}}
    results = []
    for r, c in enumerate(cfgs):
        run_rows = {key: col[start[r] : start[r + 1]] for key, col in cols.items()}
        for key, row in first.items():
            run_rows[key] = np.concatenate((row, run_rows[key]))
        results.append(
            RunResult(
                config=c,
                final_state=final[r],
                stagnated=bool(stagnation_iter[r] >= 0),
                stagnation_iter=int(stagnation_iter[r]),
                steps=int(start[r + 1] - start[r]),
                **run_rows,
            )
        )
    return results
