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

Number systems: "fixed" (two's-complement grids, working format for the
gradient recipe, mul format for the update product), "lowfloat" (a small
binary float grid for everything, every op rounds, the update subtraction
rounds once), and "reference" (plain binary64, no rounding, for baselines).

Draw addressing: gradient-recipe ops use tags 0.. in callsite order; the
update product uses tag SIGMA2_TAG (1 << 20, far above any recipe).  Two
runs with the same seed replay identically; per-coordinate draws sit at
fixed positions in each op's batch.

For signed_sr_eps the update rounding is steered toward descent: in fixed
mode that is the sign of t*g (same as sr_eps there); in float mode the
rounded value is x - t*g, so the favored direction is -sign(g).

Fixed-point ensembles run in lockstep: the R seeds are R lanes of (R, n)
int64 mantissa arrays, and each iteration runs the gradient recipe, the
case classification and the update rounding once over every live lane.
Draw addressing is unchanged -- lane r's words for op (k, tag) come from
RandomStream(seed_r).generator(k, tag), in index order -- so a lane's
trajectory is bit for bit the run of its seed alone, and `run(cfg)` is the
one-lane case of the same engine.  Lanes leave the batch one by one when they
stop (stop_below_f, stop_on_stagnation) or raise; a run's record is kept as
the rows of its realized steps, so memory grows with the steps taken, never
with the iteration budget.  Fixed-point steps record x_m, g_tilde_m, d_m,
g_exact, xs, fs, case and c2_mask; g_tilde, d, sigma1, sigma2 and
nonopp_violations follow once per run, with the binary64 expressions of one
step.  lowfloat and reference runs go one seed at a time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import lpfloat, rng, rounding
from .objectives import Objective, eval_grad_reference
from .qnum import FixedVec, QFormat, from_exact, make_format, parse_rational, to_fraction

SIGMA2_TAG = 1 << 20

_INT64_LIMIT = 1 << 63

NUMBER_SYSTEMS = ("fixed", "lowfloat", "reference")


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
        if self.number_system not in NUMBER_SYSTEMS:
            raise ValueError(f"unknown number system {self.number_system!r}")
        self.sigma1_scheme = rounding.parse_scheme(self.sigma1_scheme)
        self.sigma2_scheme = rounding.parse_scheme(self.sigma2_scheme)
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
        exact = [parse_rational(v) for v in self.x0]
        if self.number_system == "fixed":
            return FixedVec(
                np.array(
                    [from_exact(v, self.working_fmt).m for v in exact],
                    dtype=np.int64,
                ),
                self.working_fmt,
            )
        if self.number_system == "lowfloat":
            for v in exact:
                if not lpfloat.is_representable(v, self.float_fmt):
                    raise ValueError(f"x0 entry {v} is not on the {self.float_fmt} grid")
            return exact
        return np.asarray([float(v) for v in exact], dtype=np.float64)


@dataclass
class RunResult:
    """Full record of one run: trajectory, per-step errors, case labels.  A
    fixed-point run derives its float columns but g_exact, xs and fs at the
    end, from its mantissas (see the module docstring)."""

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

    @property
    def c2_count(self) -> np.ndarray:
        return self.c2_mask.sum(axis=1)

    def iterations_below(self, threshold: float) -> Optional[int]:
        """First k with f(x_k) <= threshold, or None."""
        hits = np.flatnonzero(self.fs[: self.steps + 1] <= threshold)
        return int(hits[0]) if hits.size else None


# ---------------------------------------------------------------------------
# case classification and step pieces
# ---------------------------------------------------------------------------


def classify_case(g_tilde, t: Fraction, u, bounds=None) -> tuple:
    """(case, c2_mask): coordinate i is C2 when |t * g_i| < u_i.

    g_tilde: a FixedVec or a sequence of exact values; u: a scalar grid
    spacing or per-coordinate spacings.  A FixedVec with a scalar u compares
    exactly on integers, |g_m| * tn * u_den < td * u_num * scale, and an
    (R, n) FixedVec of R lanes gives an (R,) case array and an (R, n) mask.
    `bounds` is `_c2_bounds(t, u, g_tilde.fmt)` when the caller has it.
    """
    if isinstance(g_tilde, FixedVec) and not isinstance(u, (list, tuple, np.ndarray)):
        lhs, rhs, wide = bounds or _c2_bounds(t, u, g_tilde.fmt)
        m = np.abs(g_tilde.m)
        mask = (m.astype(object) if wide else m) * lhs < rhs
        if mask.ndim == 1:
            return (1 if not mask.any() else 2 if mask.all() else 3), mask
        return np.where(~mask.any(axis=1), 1, np.where(mask.all(axis=1), 2, 3)), mask
    gv = g_tilde.to_fractions() if isinstance(g_tilde, FixedVec) else g_tilde
    us = u if isinstance(u, (list, tuple, np.ndarray)) else [u] * len(gv)
    c2 = []
    for g, ui in zip(gv, us):
        g, ui = to_fraction(g), to_fraction(ui)
        # |t g| < u on integers: t and every denominator are positive
        c2.append(abs(g.numerator) * t.numerator * ui.denominator
                  < t.denominator * g.denominator * ui.numerator)
    return (1 if not any(c2) else 2 if all(c2) else 3), np.array(c2, dtype=bool)


def _c2_bounds(t: Fraction, u, fmt: QFormat) -> tuple:
    """classify_case's integer sides tn * u_den and td * u_num * scale, and
    whether |g_m| times the first may leave int64."""
    uf = to_fraction(u)
    lhs, rhs = t.numerator * uf.denominator, t.denominator * uf.numerator * fmt.scale
    return lhs, rhs, -fmt.min_mantissa * lhs >= _INT64_LIMIT or rhs >= _INT64_LIMIT


def check_nonopposite(g_tilde: np.ndarray, g_exact: np.ndarray):
    """Count coordinates where the rounded gradient flips the exact sign
    (per row for 2-D inputs)."""
    return (np.sign(g_tilde) * np.sign(g_exact) < 0).sum(axis=-1)


def eval_grad_rounded(
    obj: Objective, x_state, cfg: GDConfig, stream, k: int
):
    """The rounded gradient at the iterate, per the configured number system."""
    if cfg.number_system == "fixed":
        return obj.grad_rounded_fixed(x_state, cfg.sigma1_scheme, stream, k)
    if cfg.number_system == "lowfloat":
        return obj.grad_rounded_float(
            x_state, cfg.float_fmt, cfg.sigma1_scheme, stream, k
        )
    return eval_grad_reference(obj, x_state)


def _float_gaps(x_state, fmt: lpfloat.FloatFormat) -> List[Fraction]:
    return [lpfloat.binade_gap(v, fmt) for v in x_state]


def _fixed_consts(cfg: GDConfig) -> tuple:
    """The config-only constants of a fixed-point update, once per run: tn,
    the sigma2 denominator td * s_w, the mul-to-working shift, whether g_m * tn
    or d_m << shift may leave int64 (the latter once the mul format's integer
    bits plus the working fraction bits exceed 62), u_mul and the C2 bounds."""
    w, m, t, u = cfg.working_fmt, cfg.mul_fmt, cfg.t, cfg.u_mul
    return (t.numerator, t.denominator * w.scale, w.qf - m.qf,
            -w.min_mantissa * t.numerator >= _INT64_LIMIT, m.qi + w.qf > 62,
            u, _c2_bounds(t, u, w))


def gd_step(x_state, cfg: GDConfig, stream, k: int, consts: Optional[tuple]):
    """One update.  Returns (new_state, step dict).

    Fixed mode steps R lanes at once: x_state is an (R, n) FixedVec, stream
    the list of the lanes' RandomStreams, and every array in the step dict
    has a leading lane axis: g_tilde_m, d_m, g_exact, case and c2_mask.
    `consts` is `_fixed_consts(cfg)` (None in the other modes).
    lowfloat and reference step one run: x_state is its iterate, stream its
    RandomStream, and the step dict holds every recorded column.
    """
    obj = cfg.objective
    t = cfg.t

    if cfg.number_system == "fixed":
        tn, den, shift, wide_num, wide_step, u, bounds = consts
        x: FixedVec = x_state
        g_t = eval_grad_rounded(obj, x, cfg, stream, k)
        g_ref = eval_grad_reference(obj, x.to_floats())
        case, c2 = classify_case(g_t, t, u, bounds)

        gens = (
            [s.generator(k, SIGMA2_TAG) for s in stream]
            if cfg.sigma2_scheme.is_random
            else None
        )
        v_sign = np.sign(g_t.m) if cfg.sigma2_scheme.uses_given_sign else 0
        # t * g at the working scale, exact; each lane's rounding path is
        # chosen from its own values inside round_ratio_vec
        num = (g_t.m.astype(object) if wide_num else g_t.m) * tn
        d_m = rounding.round_ratio_vec(num, den, cfg.mul_fmt, cfg.sigma2_scheme, gens, v_sign)
        step = d_m.astype(object) if wide_step else d_m
        new_x = FixedVec(x.m - (step << shift), x.fmt)
        return new_x, {
            "g_tilde_m": g_t.m, "g_exact": g_ref, "d_m": d_m, "case": case, "c2_mask": c2,
        }

    if cfg.number_system == "lowfloat":
        x = list(x_state)
        g_t = eval_grad_rounded(obj, x, cfg, stream, k)
        x_f = np.array([float(v) for v in x])
        g_ref = eval_grad_reference(obj, x_f)
        gaps = _float_gaps(x, cfg.float_fmt)
        case, c2 = classify_case(g_t, t, gaps)

        new_x, d_vals, s2_vals = [], [], []
        for i, (xi, gi) in enumerate(zip(x, g_t)):
            v_sign = -_fraction_sign(gi) if cfg.sigma2_scheme.uses_given_sign else 0
            tg = t * gi
            nxt = lpfloat.fl_sub_round(
                xi, tg, cfg.float_fmt, cfg.sigma2_scheme, stream, k, SIGMA2_TAG + i, v_sign
            )
            d = xi - nxt
            new_x.append(nxt)
            d_vals.append(d)
            s2_vals.append(d - tg)
        g_t_f = np.array([float(v) for v in g_t])
        return new_x, {
            "g_tilde": g_t_f,
            "g_tilde_m": None,
            "g_exact": g_ref,
            "d": np.array([float(v) for v in d_vals]),
            "d_m": None,
            "sigma1": g_t_f - g_ref,
            "sigma2": np.array([float(v) for v in s2_vals]),
            "case": case,
            "c2_mask": c2,
            "nonopp_violations": check_nonopposite(g_t_f, g_ref),
        }

    # reference mode: exact binary64 descent
    x = np.asarray(x_state, dtype=np.float64)
    g_ref = eval_grad_reference(obj, x)
    d = float(t) * g_ref
    new_x = x - d
    n = x.size
    return new_x, {
        "g_tilde": g_ref.copy(),
        "g_tilde_m": None,
        "g_exact": g_ref,
        "d": d,
        "d_m": None,
        "sigma1": np.zeros(n),
        "sigma2": np.zeros(n),
        "case": 0,
        "c2_mask": np.zeros(n, dtype=bool),
        "nonopp_violations": 0,
    }


def _fraction_sign(v) -> int:
    return (v > 0) - (v < 0)


def _state_floats(state, number_system: str) -> np.ndarray:
    if number_system == "fixed":
        return state.to_floats()
    if number_system == "lowfloat":
        return np.array([float(v) for v in state])
    return np.asarray(state, dtype=np.float64)


def run(cfg: GDConfig, seeds: Optional[Sequence[int]] = None):
    """Run the configured descent and record every iteration.

    `run(cfg)` is one run at cfg.seed.  `run(cfg, seeds)` is one run per
    seed (each with config `replace(cfg, seed=s)`), returned in seed order;
    fixed-point runs advance together in lockstep, lowfloat and reference
    runs one after another.  A failing run raises, as running the seeds one
    after another would: the exception of the first failing seed.
    """
    cfgs = [cfg] if seeds is None else [replace(cfg, seed=operator.index(s)) for s in seeds]
    if cfg.number_system == "fixed":
        results = _run_lanes(cfgs)
    else:
        results = [r for c in cfgs for r in _run_lanes([c])]
    return results[0] if seeds is None else results


def run_ensemble(cfg: GDConfig, seeds: Sequence[int]) -> List[RunResult]:
    """Independent runs of the same config over the given seeds."""
    return run(cfg, seeds)


def _advance(x, cfg: GDConfig, streams: list, k: int, consts):
    """One iteration of the live lanes: the update, then f at every new
    iterate ("xs" and "fs" get a leading lane axis in every mode)."""
    fixed = cfg.number_system == "fixed"
    new_x, rec = gd_step(x, cfg, streams if fixed else streams[0], k, consts)
    if fixed:
        rec["x_m"] = new_x.m
    rec["xs"] = np.reshape(_state_floats(new_x, cfg.number_system), (-1, cfg.objective.n))
    rec["fs"] = np.array([cfg.objective.f(row) for row in rec["xs"]], dtype=np.float64)
    return new_x, rec


class _StepRows:
    """The step records of all lanes, one row per lane and step, appended
    batch by batch into column buffers that double when full, so memory
    follows the steps taken rather than the iteration budget."""

    def __init__(self, fixed: bool, n: int):
        # step-dict key -> dtype, and whether it holds one entry per coordinate
        fields = {
            "fs": (np.float64, False), "xs": (np.float64, True), "g_exact": (np.float64, True),
            "case": (np.uint8, False), "c2_mask": (bool, True),
        }
        if fixed:  # the other float columns are derived at the end
            fields.update(x_m=(np.int64, True), g_tilde_m=(np.int64, True), d_m=(np.int64, True))
        else:
            fields.update(dict.fromkeys(("g_tilde", "sigma1", "sigma2", "d"), (np.float64, True)))
            fields.update(nonopp_violations=(np.int64, False))
        self.cols = {
            key: np.zeros((0, n) if per_coord else (0,), dtype=dtype)
            for key, (dtype, per_coord) in fields.items()
        }
        self.lane = np.zeros(0, dtype=np.int64)
        self.size = 0

    def append(self, lanes: np.ndarray, rec: dict) -> None:
        end = self.size + lanes.size
        if end > self.lane.size:
            cap = max(2 * self.lane.size, end, 64)
            self.lane = _grown(self.lane, cap, self.size)
            self.cols = {key: _grown(col, cap, self.size) for key, col in self.cols.items()}
        self.lane[self.size : end] = lanes
        for key, col in self.cols.items():
            col[self.size : end] = rec[key]
        self.size = end

    def last(self, key: str, count: int) -> np.ndarray:
        """The rows of the latest `count` appended."""
        return self.cols[key][self.size - count : self.size]


def _grown(col: np.ndarray, cap: int, size: int) -> np.ndarray:
    out = np.empty((cap,) + col.shape[1:], dtype=col.dtype)
    out[:size] = col[:size]
    return out


def _run_lanes(cfgs: List[GDConfig]) -> List[RunResult]:
    """Runs of configs that differ only in seed, one lane each, in lockstep.

    Fixed-point lanes share one (R, n) state; lowfloat and reference runs
    come one at a time.  The live lanes share one `_advance` per iteration.
    If it raises, the iteration is replayed lane by lane (the draws are
    addressed by seed, k and tag, so a replay draws exactly the same words);
    the lanes that raise again are dropped, and the first one's exception is
    raised at the end.
    """
    if not cfgs:
        return []
    cfg = cfgs[0]
    obj = cfg.objective
    fixed = cfg.number_system == "fixed"
    window = cfg.stagnation_window
    if fixed:
        u_stag = float(cfg.u_mul)
    elif cfg.number_system == "lowfloat":
        u_stag = float(cfg.float_fmt.unit_roundoff)
    else:
        u_stag = 0.0
    stag_norm = 10.0 * np.sqrt(obj.n) * u_stag
    consts = _fixed_consts(cfg) if fixed else None
    streams = [rng.RandomStream(c.seed) for c in cfgs]
    lanes = len(cfgs)

    state = cfg.initial_state()
    xs0 = _state_floats(state, cfg.number_system)
    f0 = obj.f(xs0)
    # per live lane, in lane order: lane index, stream, iterate, f, zero-step streak
    live = np.arange(lanes)
    lane_streams = list(streams)
    x = FixedVec(np.tile(state.m, (lanes, 1)), state.fmt) if fixed else state
    f = np.full(lanes, f0, dtype=np.float64)
    streak = np.zeros(lanes, dtype=np.int64)
    stagnation_iter = np.full(lanes, -1, dtype=np.int64)  # by lane index
    errors: Dict[int, Exception] = {}
    rows = _StepRows(fixed, obj.n)

    def select(idx):
        return (
            live[idx],
            [lane_streams[j] for j in idx],
            FixedVec(x.m[idx], x.fmt),
            f[idx],
            streak[idx],
        )

    for k in range(cfg.iterations):
        if cfg.stop_below_f is not None:
            keep = ~(f <= cfg.stop_below_f)
            if not keep.any():
                break
            if not keep.all():
                live, lane_streams, x, f, streak = select(np.flatnonzero(keep))
        try:
            new_x, rec = _advance(x, cfg, lane_streams, k, consts)
        except Exception as exc:
            if live.size == 1:
                errors[live[0]] = exc
                break
            done = []
            for j, i in enumerate(live):
                try:
                    one = FixedVec(x.m[j : j + 1], x.fmt)
                    done.append((j, _advance(one, cfg, [streams[i]], k, consts)[1]))
                except Exception as lane_exc:
                    errors[i] = lane_exc
            # runs after the first failing seed are never returned
            done = [(j, r) for j, r in done if live[j] < min(errors, default=lanes)]
            if not done:
                break
            live, lane_streams, x, f, streak = select([j for j, _ in done])
            rec = {key: np.concatenate([r[key] for _, r in done]) for key in done[0][1]}
            new_x = FixedVec(rec["x_m"], x.fmt)
        rows.append(live, rec)
        x, f = new_x, rec["fs"]

        moved = rows.last("d_m" if fixed else "d", live.size).any(axis=1)
        streak = np.where(moved, 0, streak + 1)
        if streak.max() >= window:
            g_exact = rows.last("g_exact", live.size)
            stop = np.zeros(live.size, dtype=bool)
            for j in np.flatnonzero(streak >= window):
                if stagnation_iter[live[j]] < 0 and np.linalg.norm(g_exact[j]) > stag_norm:
                    stagnation_iter[live[j]] = k - window + 1
                    stop[j] = cfg.stop_on_stagnation
            if stop.all():
                break
            if stop.any():
                live, lane_streams, x, f, streak = select(np.flatnonzero(~stop))

    if errors:
        raise errors[min(errors)]

    # each lane's rows, in iteration order
    lane_of_row = rows.lane[: rows.size]
    order = np.argsort(lane_of_row, kind="stable")
    steps = np.bincount(lane_of_row, minlength=lanes)
    start = np.concatenate(([0], np.cumsum(steps)))
    cols = {key: col[: rows.size][order] for key, col in rows.cols.items()}
    if fixed:  # the other float columns, from the mantissas, elementwise as in one step
        g, d = cols["g_tilde_m"] / state.fmt.scale, cols["d_m"] / cfg.mul_fmt.scale
        cols.update(g_tilde=g, d=d, sigma1=g - cols["g_exact"], sigma2=d - float(cfg.t) * g,
                    nonopp_violations=check_nonopposite(g, cols["g_exact"]))
        x_m0 = state.m[None, :]
    results = []
    for r, c in enumerate(cfgs):
        run_rows = {key: col[start[r] : start[r + 1]] for key, col in cols.items()}
        run_rows["fs"] = np.concatenate(([f0], run_rows["fs"]))
        run_rows["xs"] = np.concatenate((xs0[None, :], run_rows["xs"]))
        if fixed:
            run_rows["x_m"] = np.concatenate((x_m0, run_rows["x_m"]))
            x = FixedVec(run_rows["x_m"][-1], state.fmt)
        results.append(
            RunResult(
                config=c,
                final_state=x,
                stagnated=bool(stagnation_iter[r] >= 0),
                stagnation_iter=int(stagnation_iter[r]),
                steps=int(steps[r]),
                **run_rows,
            )
        )
    return results
