"""Estimators for the convergence-rate factors and their envelopes.

Everything here consumes RunResult ensembles (or raw arrays) and produces
the per-iteration quantities the rate analysis is phrased in:

    r_i      (t sigma1_i + sigma2_i) / (t grad_i), per coordinate
    gamma    min_i (1 + r_i), the per-step contraction multiplier
    theta    min over nonzero g~_i of (2|g~_i| - L u) / |g~_i|
    rho      min_i n E[sigma2_i grad_i] / E[||grad||^2]
    alpha    sum over C2 coords of t (theta - 1) E[grad_i^2] / E[||grad||^2]
    beta, h  the effective eps of the update rounding when |t g~| < u

plus envelope builders that turn factor sequences into f-gap curves, and a
grid estimator for the (mu, L) constants entering those envelopes.

Expectations are ensemble means at fixed iteration index; preconditions
(case labels, |grad_i| >= |sigma1_i|) come along as validity masks rather
than being silently assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .gdengine import RunResult, fixed_update_scheme
from .objectives import Objective
from .rounding import up_weight


def _stack(runs: Sequence[RunResult], attr: str) -> np.ndarray:
    k = min(r.steps for r in runs)
    return np.stack([getattr(r, attr)[:k] for r in runs])


# ---------------------------------------------------------------------------
# factor estimators
# ---------------------------------------------------------------------------


def r_factors(runs: Sequence[RunResult]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-coordinate r = (t sigma1 + sigma2) / (t grad) and a validity mask.

    Valid entries sit in a case-1 iteration with |grad_i| >= |sigma1_i| and
    grad_i != 0 (the hypotheses under which r is range-bounded).
    """
    t = float(runs[0].config.t)
    s1 = _stack(runs, "sigma1")
    s2 = _stack(runs, "sigma2")
    g = _stack(runs, "g_exact")
    case = _stack(runs, "case")
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (t * s1 + s2) / (t * g)
    valid = (
        (case == 1)[:, :, None]
        & (np.abs(g) >= np.abs(s1))
        & (g != 0)
    )
    return r, valid


def gamma_of(runs: Sequence[RunResult]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-run, per-iteration gamma = min_i (1 + r_i); nan when invalid.

    An iteration is valid when every coordinate passes the r-factor
    preconditions.
    """
    r, valid = r_factors(runs)
    ok = valid.all(axis=2)
    gamma = np.where(ok, (1.0 + r).min(axis=2), np.nan)
    return gamma, ok


def theta_of(g_tilde: np.ndarray, L: float, u: float) -> np.ndarray:
    """theta = min over nonzero g~_i of (2|g~_i| - L u)/|g~_i|, nan if all zero.

    Applies along the last axis of g_tilde.
    """
    g = np.abs(np.asarray(g_tilde, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(g > 0, (2.0 * g - L * u) / g, np.inf)
    out = vals.min(axis=-1)
    return np.where(np.isfinite(out), out, np.nan)


def rho_of(runs: Sequence[RunResult]) -> np.ndarray:
    """rho_k = min_i n E[sigma2_i grad_i] / E[||grad||^2], ensemble means."""
    s2 = _stack(runs, "sigma2")
    g = _stack(runs, "g_exact")
    n = g.shape[2]
    num = n * (s2 * g).mean(axis=0)          # (K, n)
    den = (g * g).sum(axis=2).mean(axis=0)   # (K,)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = num.min(axis=1) / den
    return rho


def alpha_of(runs: Sequence[RunResult], theta: np.ndarray) -> np.ndarray:
    """alpha_k = sum_{i in C2} t (theta_k - 1) E[grad_i^2] / E[||grad||^2].

    C2 membership is per run; the numerator averages the masked squares.
    theta is a per-iteration series (e.g. a theta_of result reduced over
    runs).
    """
    t = float(runs[0].config.t)
    g = _stack(runs, "g_exact")
    c2 = _stack(runs, "c2_mask")
    num = (g * g * c2).sum(axis=2).mean(axis=0)  # (K,)
    den = (g * g).sum(axis=2).mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return t * (np.asarray(theta) - 1.0) * num / den


def beta_and_h_of(runs: Sequence[RunResult]) -> Tuple[np.ndarray, np.ndarray]:
    """(beta, h): the effective update-rounding eps on C2 coordinates.

    For each (iteration, coordinate), entries over the ensemble whose exact
    step |t g~_i| is below the update grid spacing contribute eps when the
    perturbed probability is interior, and omega = 1 - |t g~_i|/u when it
    clamped; h is that average, beta_k = min_i h_k,i.  The law is the
    engine's, under `fixed_update_scheme`.
    Exact-zero steps contribute 0 (no randomness left).  Entries outside C2
    are skipped; an (iteration, coordinate) with no C2 data is nan.
    """
    cfg = runs[0].config
    if cfg.number_system != "fixed":
        raise ValueError("beta/h reconstruction needs fixed-point runs")
    scheme = fixed_update_scheme(cfg)
    gm = _stack(runs, "g_tilde_m")
    c2 = _stack(runs, "c2_mask")
    # t g~ on the update grid sits at num/den, exactly (Python ints)
    num = gm.astype(object) * (cfg.t.numerator * cfg.mul_fmt.scale)
    den = cfg.t.denominator * cfg.working_fmt.scale
    r = num % den
    weight, cap = up_weight(num // den, r, den, scheme)
    omega = ((den - abs(num)) / den).astype(np.float64)  # 1 - |t g~|/u, correctly rounded
    eps = float(scheme.eps or 0)
    contrib = np.where(r == 0, 0.0, np.where((weight > 0) & (weight < cap), eps, omega))
    total = np.where(c2, contrib, 0.0).sum(axis=0)  # runs added in order
    count = c2.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(count > 0, total / count, np.nan)
    beta = np.full(h.shape[0], np.nan)
    has_data = np.isfinite(h).any(axis=1)
    beta[has_data] = np.nanmin(h[has_data], axis=1)
    return beta, h


def tau1_of(rho: np.ndarray) -> float:
    """Smallest rho over the window (enters the sr_eps envelope)."""
    return float(np.nanmin(rho))


def tau2_of(runs: Sequence[RunResult], beta: np.ndarray) -> float:
    """min_k beta_k u E[||grad||] / E[||grad||^2] over the window."""
    u = float(runs[0].config.u_mul)
    g = _stack(runs, "g_exact")
    norm1 = np.linalg.norm(g, axis=2).mean(axis=0)
    norm2 = (g * g).sum(axis=2).mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        series = np.asarray(beta) * u * norm1 / norm2
    return float(np.nanmin(series))


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def bound_envelope(f0_gap: float, factors: np.ndarray) -> np.ndarray:
    """Gap curve [f0_gap, f0_gap*prod(factors[:k])...], length len(factors)+1."""
    factors = np.asarray(factors, dtype=np.float64)
    out = np.empty(factors.size + 1)
    out[0] = f0_gap
    if factors.size:
        out[1:] = f0_gap * np.cumprod(factors)
    return out


def geometric_envelope(f0_gap: float, factor: float, k: int) -> np.ndarray:
    """f0_gap * factor**j for j = 0..k."""
    return f0_gap * np.power(float(factor), np.arange(k + 1))


def envelope_factors_gamma(t: float, mu: float, gamma: np.ndarray) -> np.ndarray:
    """Per-step factors (1 - t mu gamma_j) for the case-1 pathwise envelope."""
    return 1.0 - t * mu * np.asarray(gamma, dtype=np.float64)


def envelope_factors_case3(
    mu: float, t: float, alpha: np.ndarray, theta=None, tau2: float = 0.0
) -> np.ndarray:
    """Per-step factors (1 - mu (t + alpha_j [+ theta_j tau2]))."""
    extra = np.zeros_like(np.asarray(alpha, dtype=np.float64))
    if theta is not None and tau2:
        extra = np.asarray(theta, dtype=np.float64) * tau2
    return 1.0 - mu * (t + np.asarray(alpha, dtype=np.float64) + extra)


# ---------------------------------------------------------------------------
# PL / smoothness constants from a box
# ---------------------------------------------------------------------------


@dataclass
class PLEstimate:
    mu_hat: float
    l_hat: float
    n_points: int
    argmin_mu: np.ndarray
    f_star_used: float


def _grid_points(box, resolution: int, n: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    if n <= 2:
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)
    # tensor grids explode for n > 2: use axis-aligned lines through the
    # box center, which still sees every axis at full resolution
    center = np.array([(lo + hi) / 2 for lo, hi in box])
    pts = [center[None, :]]
    for a in range(n):
        line = np.tile(center, (resolution, 1))
        line[:, a] = axes[a]
        pts.append(line)
    return np.unique(np.concatenate(pts, axis=0), axis=0)


def estimate_pl_constants(
    obj: Objective, box, resolution: int = 101, f_star: Optional[float] = None
) -> PLEstimate:
    """Estimate the PL constant and gradient Lipschitz constant over a box.

    mu_hat = min ||grad f||^2 / (2 (f - f*)) over sampled points with
    f > f*; l_hat = max gradient difference quotient over axis-adjacent
    sample pairs.  f* defaults to the objective's known optimum, else the
    sampled minimum.
    """
    n = obj.n
    box = list(box)
    if len(box) != n:
        raise ValueError(f"box needs {n} (lo, hi) pairs")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    pts = _grid_points(box, resolution, n)
    fs = np.asarray(obj.f(pts), dtype=np.float64)
    gs = np.asarray(obj.grad(pts), dtype=np.float64)

    if f_star is None:
        f_star = obj.f_star if obj.f_star is not None else float(fs.min())

    gap = fs - f_star
    norm2 = (gs * gs).sum(axis=1)
    mask = gap > 1e-12 * np.maximum(1.0, np.abs(fs))
    if not mask.any():
        raise ValueError("no sample point sits above f*; enlarge the box")
    ratios = norm2[mask] / (2.0 * gap[mask])
    mu_hat = float(ratios.min())
    argmin_mu = pts[mask][int(np.argmin(ratios))]

    # smoothness: difference quotients along each axis between neighbors
    l_hat = 0.0
    if n <= 2:
        shape = (resolution,) * n
        g_grid = gs.reshape(shape + (n,))
        p_grid = pts.reshape(shape + (n,))
        for a in range(n):
            dg = np.diff(g_grid, axis=a)
            dx = np.diff(p_grid[..., a], axis=a)
            quot = np.linalg.norm(dg, axis=-1) / np.abs(dx)
            l_hat = max(l_hat, float(quot.max()))
    else:
        # neighbors along each center line
        order = np.lexsort(pts.T[::-1])
        sp = pts[order]
        sg = gs[order]
        diff_x = np.linalg.norm(np.diff(sp, axis=0), axis=1)
        diff_g = np.linalg.norm(np.diff(sg, axis=0), axis=1)
        near = diff_x > 0
        l_hat = float((diff_g[near] / diff_x[near]).max())

    return PLEstimate(
        mu_hat=mu_hat,
        l_hat=l_hat,
        n_points=len(pts),
        argmin_mu=argmin_mu,
        f_star_used=float(f_star),
    )
