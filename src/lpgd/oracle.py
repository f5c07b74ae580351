"""Exact finite-case analyses paired with Monte Carlo consistency checks.

The rounding kernels are simple enough that small configurations can be
solved in closed form with Fractions: full output distributions of one or
two roundings, conditional second moments of the update, the quantization
bias of a gradient recipe, and the mean drift of a float update in the
near-stagnation regime.  One `round_distribution` serves fixed-point and
float grids alike, read off `rounding.law`.  Each exact result here comes
with an MC counterpart so a disagreement points at whichever side broke,
and the counterpart samples the code the exact side reads, at the same
(k, tag) addresses: the gradient pipeline is one recipe, enumerated on
`EnumBackend` and run on `FixedBackend`.

Convention for agreement checks (`_estimate`): a sample mean is consistent
when it sits within `SE_MULT` = 4 standard errors of the exact mean of the
law it was sampled from, the standard error taken from that law.  Only
`check_float_drift` gives a lean, -sign(g), to `round_distribution` and
the `lpfloat.fl_round` it samples; the other checks round at lean 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import lpfloat, rounding
from .objectives import FixedBackend, FractionBackend, Objective, enumerate_recipe
from .qnum import ExactReal, QFormat, to_fraction, to_ratio
from .rng import RandomStream

Dist = Dict[Fraction, Fraction]

SE_MULT = 4


@dataclass
class McEstimate:
    """A sample mean against its exact target."""

    mean: float
    se: float
    n: int
    expected: float

    @property
    def z(self) -> float:
        if self.se == 0:
            return 0.0 if self.mean == self.expected else math.inf
        return (self.mean - self.expected) / self.se

    @property
    def ok(self) -> bool:
        return abs(self.z) <= SE_MULT

    def __str__(self) -> str:
        return (
            f"mean={self.mean:.6g} expected={self.expected:.6g} "
            f"se={self.se:.2g} z={self.z:+.2f} n={self.n} "
            f"[{'ok' if self.ok else 'FAIL'}]"
        )


# ---------------------------------------------------------------------------
# exact distributions of one or two roundings
# ---------------------------------------------------------------------------


def round_distribution(
    x: ExactReal, fmt, scheme: rounding.RoundScheme, v_sign: int = 0
) -> Dist:
    """Exact two-point distribution of one rounding of x onto fmt's grid, a
    QFormat or an `lpfloat.FloatFormat` (`rounding.law`)."""
    q, g, t, cap = rounding.law(x, fmt, scheme, v_sign)
    unit = Fraction(2) ** g
    if t in (0, cap):
        return {(q + (t > 0)) * unit: Fraction(1)}
    p_up = Fraction(t, cap)
    return {q * unit: 1 - p_up, (q + 1) * unit: p_up}


def difference_distribution(da: Dist, db: Dist) -> Dist:
    """Distribution of A - B for independent A ~ da, B ~ db."""
    out: Dist = {}
    for va, pa in da.items():
        for vb, pb in db.items():
            key = va - vb
            out[key] = out.get(key, Fraction(0)) + pa * pb
    return out


def dist_mean(d: Dist) -> Fraction:
    return sum((v * p for v, p in d.items()), Fraction(0))


def dist_moment(d: Dist, order: int) -> Fraction:
    return sum((v**order * p for v, p in d.items()), Fraction(0))


def dist_variance(d: Dist) -> Fraction:
    m = dist_mean(d)
    return dist_moment(d, 2) - m * m


# ---------------------------------------------------------------------------
# MC checks of single roundings
# ---------------------------------------------------------------------------


def _check_sample_count(n: int, least: int = 1) -> None:
    """Raise a ValueError that names n unless n >= least: a mean needs one
    sample, a sample standard error two."""
    if n < least:
        raise ValueError(f"n = {n}: the estimate needs n >= {least}")


def _rounded_samples(
    x: ExactReal, fmt: QFormat, scheme: rounding.RoundScheme, n: int, seed: int
) -> np.ndarray:
    """n >= 1 independent roundings of x onto fmt, in binary64: one
    `round_ratio_vec` call on the words of (seed, 0, 0)."""
    _check_sample_count(n)
    num, den = to_ratio(x)
    gen = RandomStream(seed).generator(0, 0)
    # int64 when the numerator fits: one int64 kernel call
    m = rounding.round_ratio_vec(np.full(n, num), den, fmt, scheme, gen)
    return m / fmt.scale


def _estimate(dist: Dist, samples) -> McEstimate:
    """The mean of samples against the exact mean of dist, the law each
    sample follows, with the standard error of dist's exact variance; every
    caller has checked the sample count before sampling."""
    n = len(samples)
    return McEstimate(
        mean=float(np.mean(samples)),
        se=math.sqrt(float(dist_variance(dist)) / n),
        n=n,
        expected=float(dist_mean(dist)),
    )


def check_expectation(
    x: ExactReal,
    fmt: QFormat,
    scheme: rounding.RoundScheme,
    n: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Sample mean of round(x) against the exact expectation."""
    dist = round_distribution(x, fmt, scheme)
    return _estimate(dist, _rounded_samples(x, fmt, scheme, n, seed))


# ---------------------------------------------------------------------------
# conditional second moment of the update when |t g~| < u
# ---------------------------------------------------------------------------


def second_moment_small_step(
    v: ExactReal, fmt: QFormat, scheme: rounding.RoundScheme
) -> Tuple[Fraction, Fraction]:
    """(exact E[d^2], formula value) for d = round(v) with |v| < u.

    The formula is u|v| for plain stochastic rounding and u|v| + u^2 c for
    sr_eps, where c is eps while the perturbed probability stays interior
    and (u - |v|)/u once it clamps.  Exact zeros give 0.  signed_sr_eps
    rounds at lean 0 here, which is the plain sr law.
    """
    val = to_fraction(v)
    u = fmt.u
    if abs(val) >= u:
        raise ValueError(f"|v| = {val} is not below the grid spacing {u}")
    dist = round_distribution(val, fmt, scheme)
    exact = dist_moment(dist, 2)
    if val == 0:
        return exact, Fraction(0)
    if scheme.kind == "rn":
        raise ValueError("the small-step second-moment formula is stochastic-only")
    if scheme.eps is None or scheme.uses_given_sign:
        return exact, u * abs(val)
    # a clamped probability leaves one outcome
    c = scheme.eps if len(dist) == 2 else (u - abs(val)) / u
    return exact, u * abs(val) + u * u * c


def check_small_step_second_moment(
    v: ExactReal,
    fmt: QFormat,
    scheme: rounding.RoundScheme,
    n: int = 100_000,
    seed: int = 0,
) -> Tuple[Fraction, Fraction, McEstimate]:
    """Exact vs formula vs MC for E[d^2] in the small-step regime."""
    exact, formula = second_moment_small_step(v, fmt, scheme)
    dist = round_distribution(v, fmt, scheme)
    # |v| < u: the two neighbours are 0 and +-u, so their squares are distinct
    squares = {w * w: p for w, p in dist.items()}
    mc = _estimate(squares, _rounded_samples(v, fmt, scheme, n, seed) ** 2)
    return exact, formula, mc


# ---------------------------------------------------------------------------
# gradient quantization bias and how it scales with u
# ---------------------------------------------------------------------------


def exact_grad(obj: Objective, x: Sequence[ExactReal]) -> Tuple[Fraction, ...]:
    """The recipe's gradient in exact rational arithmetic (no rounding)."""
    if obj.recipe is None:
        raise ValueError(f"objective {obj.name} has no recipe")
    be = FractionBackend()
    out = obj.recipe(be, [to_fraction(v) for v in x])
    return tuple(to_fraction(v) for v in out)


def _quantized_recipe(obj: Objective, x: Sequence[ExactReal]):
    """The quantize-then-evaluate pipeline as one recipe: each coordinate
    x_i = n/d rounds onto the backend's format with the backend's own
    rounding step, then the objective's recipe runs on the rounded point."""
    if obj.recipe is None:
        raise ValueError(f"objective {obj.name} has no recipe")
    ratios = [to_ratio(v) for v in x]
    return lambda be: obj.recipe(be, [be._round_ratio(n, d) for n, d in ratios])


def exact_rounded_grad_mean(
    obj: Objective,
    x: Sequence[ExactReal],
    fmt: QFormat,
    scheme: rounding.RoundScheme,
) -> Tuple[Fraction, ...]:
    """Exact E[g~] of the full pipeline: quantize x, then the rounded recipe.
    Both stages use the same scheme and run as one rounding tree."""
    outs, probs = zip(*enumerate_recipe(_quantized_recipe(obj, x), fmt, scheme))
    return tuple(sum(v * p for v, p in zip(col, probs)) for col in zip(*outs))


def bias_scaling_curve(
    obj: Objective,
    x: Sequence[ExactReal],
    fmts: Sequence[QFormat],
    scheme: rounding.RoundScheme,
) -> List[Tuple[Fraction, Tuple[Fraction, ...]]]:
    """[(u, exact bias vector)] of the quantize-then-evaluate pipeline."""
    g_ref = exact_grad(obj, x)
    out = []
    for fmt in fmts:
        mean = exact_rounded_grad_mean(obj, x, fmt, scheme)
        bias = tuple(m - g for m, g in zip(mean, g_ref))
        out.append((fmt.u, bias))
    return out


def fit_log_slope(curve: Sequence[Tuple[Fraction, Tuple[Fraction, ...]]]) -> float:
    """Least-squares slope of log2 ||bias|| against log2 u."""
    xs, ys = [], []
    for u, bias in curve:
        norm = math.sqrt(sum(float(b) ** 2 for b in bias))
        if norm == 0:
            raise ValueError(f"bias vanished at u={u}; no slope to fit")
        xs.append(math.log2(float(u)))
        ys.append(math.log2(norm))
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def mc_rounded_grad_mean(
    obj: Objective,
    x: Sequence[ExactReal],
    fmt: QFormat,
    scheme: rounding.RoundScheme,
    n: int = 10_000,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """(mean, se) per coordinate of the quantize-then-evaluate pipeline.

    Sample rep runs `exact_rounded_grad_mean`'s recipe on a FixedBackend at
    iteration rep of RandomStream(seed), so it draws at the very (rep, tag)
    addresses whose branches the enumeration sums over.
    """
    _check_sample_count(n, least=2)
    pipeline = _quantized_recipe(obj, x)
    stream = RandomStream(seed)
    outs = [pipeline(FixedBackend(fmt, scheme, stream, rep, obj._consts)) for rep in range(n)]
    acc = np.array(outs, dtype=np.float64) / fmt.scale
    return acc.mean(axis=0), acc.std(axis=0, ddof=1) / math.sqrt(n)


# ---------------------------------------------------------------------------
# float update drift in the near-stagnation regime
# ---------------------------------------------------------------------------


@dataclass
class StagnationCheck:
    """One (gradient sign) branch of the float drift comparison."""

    scheme: rounding.RoundScheme
    step: Fraction        # t * g, the exact intended step
    exact_mean: Fraction  # E[d] from the two-point distribution
    formula: Fraction     # the closed form being verified
    mc: McEstimate

    @property
    def ok(self) -> bool:
        return self.exact_mean == self.formula and self.mc.ok


def check_float_drift(
    x: ExactReal,
    g: ExactReal,
    t: ExactReal,
    fmt: lpfloat.FloatFormat,
    scheme: rounding.RoundScheme,
    n: int = 20_000,
    seed: int = 0,
) -> StagnationCheck:
    """Verify the mean realized step of x <- fl(x - t g) on a float grid.

    Plain stochastic rounding must realize the intended step t g on
    average.  The signed eps variant (update direction -g) adds a drift of
    eps times the local grid gap, pushed in the descent direction:
    E[d] = t g + sign(g) eps gap, as long as the perturbed probability
    stays interior.
    """
    xv, gv, tv = to_fraction(x), to_fraction(g), to_fraction(t)
    step, sgn = tv * gv, (gv > 0) - (gv < 0)
    dist = round_distribution(xv - step, fmt, scheme, -sgn)
    if scheme.kind == "sr":
        formula = step
    elif scheme.kind == "signed_sr_eps":
        if len(dist) < 2:
            raise ValueError(
                "perturbed probability clamped; the interior drift formula "
                "does not apply at this (x, g, t, eps)"
            )
        formula = step + sgn * scheme.eps * (max(dist) - min(dist))
    else:
        raise ValueError(f"no drift formula for scheme {scheme}")

    _check_sample_count(n)
    stream = RandomStream(seed)
    steps = [
        float(xv - lpfloat.fl_round(xv - step, fmt, scheme, stream, rep, 0, -sgn))
        for rep in range(n)
    ]
    step_law = {xv - r: p for r, p in dist.items()}
    return StagnationCheck(
        scheme=scheme, step=step, exact_mean=dist_mean(step_law), formula=formula,
        mc=_estimate(step_law, steps),
    )
