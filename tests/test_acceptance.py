"""End-to-end acceptance suite: one test per headline claim.

Every test here states a frozen numeric target and a wall-clock budget and
asserts both.  The targets are the claims themselves, not tuned tolerances;
if one of these goes red the arithmetic changed, and the right fix is in the
kernels, never here.  Run with `pytest tests/test_acceptance.py -v` to get
one pass/fail line per claim.
"""

from __future__ import annotations

import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from lpgd.bounds import (
    estimate_pl_constants,
    gamma_of,
    geometric_envelope,
    r_factors,
    rho_of,
)
from lpgd.gdengine import GDConfig, run, run_ensemble
from lpgd.harness import load_config, run_experiment
from lpgd.lpfloat import parse_float_format
from lpgd.objectives import make_objective
from lpgd.oracle import (
    bias_scaling_curve,
    check_expectation,
    check_float_drift,
    difference_distribution,
    dist_mean,
    exact_rounded_grad_mean,
    fit_log_slope,
    mc_rounded_grad_mean,
    round_distribution,
    second_moment_small_step,
)
from lpgd.qnum import make_format
from lpgd.rounding import parse_scheme

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_01_two_rounding_difference_distribution_exact():
    """SR(0.24) - SR(0.26) on Q1.1 is exactly {+1/2, 0, -1/2} with
    probabilities 0.2304 / 0.4992 / 0.2704, in rational arithmetic."""
    t0 = time.perf_counter()
    q11 = make_format("Q1.1")
    sr = parse_scheme("sr")
    da = round_distribution(Fraction(24, 100), q11, sr)
    db = round_distribution(Fraction(26, 100), q11, sr)
    diff = difference_distribution(da, db)
    want = {
        Fraction(1, 2): Fraction(2304, 10000),
        Fraction(0): Fraction(4992, 10000),
        Fraction(-1, 2): Fraction(2704, 10000),
    }
    assert diff == want, diff
    assert sum(diff.values()) == 1
    assert time.perf_counter() - t0 < 1.0


def test_02_sr_unbiased_and_sr_eps_bias_on_grid():
    """E[SR(x)] = x and E[SR_eps(x)] = x + eps*u*sign(x) while the perturbed
    probability stays interior, exactly and under a 4-SE Monte-Carlo band
    (N = 1e5) on 50 points per format x {Q1.1, Q8.8, Q15.8} x eps."""
    t0 = time.perf_counter()
    sr = parse_scheme("sr")
    eps_schemes = [parse_scheme(f"sr_eps:{e}") for e in ("0.2", "0.4", "0.6")]
    seed = 7000
    for fmt_name in ("Q1.1", "Q8.8", "Q15.8"):
        fmt = make_format(fmt_name)
        u = fmt.u
        # 25 fractional offsets in [0.02, 0.38]*u mirrored to both signs:
        # the largest frac plus eps=0.6 stays below 1, so no sr_eps point
        # clamps and the bias law holds without case splits
        points = []
        for j in range(25):
            frac = Fraction(4 + 3 * j, 200) * u
            base = 0 if fmt_name == "Q1.1" else j % 5
            points.append(base + frac)
            points.append(-(base + frac))
        assert len(points) == 50
        for x in points:
            sgn = 1 if x > 0 else -1
            assert dist_mean(round_distribution(x, fmt, sr)) == x
            for sch in eps_schemes:
                mean = dist_mean(round_distribution(x, fmt, sch))
                assert mean == x + sch.eps * u * sgn, (fmt_name, float(x), sch)
            seed += 1
            est = check_expectation(x, fmt, sr, n=100_000, seed=seed)
            assert est.ok, (fmt_name, float(x), str(est))
        # the eps sweep reuses every 5th point; 1e5 draws per check keeps
        # the whole grid inside the time budget
        for sch in eps_schemes:
            for x in points[::5]:
                seed += 1
                est = check_expectation(x, fmt, sch, n=100_000, seed=seed)
                assert est.ok, (fmt_name, float(x), str(est))
    assert time.perf_counter() - t0 < 30.0


def _stack(runs, attr):
    return np.stack([getattr(r, attr) for r in runs])


def test_03_update_error_lemma_suite():
    """The per-step error laws hold over full 100-seed ensembles: rho_k stays
    under 2*t*eps on gradient-dominated steps, E[g.sigma2] is zero for SR and
    positive for SR_eps wherever |grad_i| >= |sigma1_i|, E[d^2] = u*|t*g~| on
    rounding-dominated coordinates, and gamma / r sit in [0,4] / [-1,3]."""
    t0 = time.perf_counter()
    obj = make_objective("quadratic", a_diag=[4, 1, "1/16"], x_star=[0, 0, 0])
    common = dict(
        objective=obj,
        t="1/32",
        x0=["1", "1", "1"],
        iterations=500,
        working_fmt="Q8.12",
        sigma1_scheme="sr",
    )
    runs_sr = run_ensemble(GDConfig(**common, sigma2_scheme="sr"), seeds=range(100))
    runs_se = run_ensemble(
        GDConfig(**common, sigma2_scheme="sr_eps:0.4"), seeds=range(100)
    )
    cfg = runs_sr[0].config
    t = float(cfg.t)
    u = float(cfg.u_mul)

    # --- rho_k <= 2 t eps on every step where the whole ensemble is
    # gradient-dominated (the inequality's hypothesis; once coordinates drop
    # below the grid the ratio legitimately escapes the bound)
    rho = rho_of(runs_se)
    case_se = _stack(runs_se, "case")
    in_scope = (case_se == 1).all(axis=0)
    # the slow 1/16 coordinate reaches the grid after ~45 iterations, which
    # is the window the inequality speaks about; guard against it vanishing
    assert in_scope.sum() >= 40, int(in_scope.sum())
    assert (rho[in_scope] <= 2 * t * 0.4 + 1e-12).all(), float(rho[in_scope].max())

    # --- E[g . sigma2]: zero within noise for SR, strictly positive for
    # SR_eps, both restricted to iterations with |grad_i| >= |sigma1_i|
    def pooled_dots(runs):
        g = _stack(runs, "g_exact")
        s1 = _stack(runs, "sigma1")
        s2 = _stack(runs, "sigma2")
        cond = (np.abs(g) >= np.abs(s1)).all(axis=2)
        return (g * s2).sum(axis=2)[cond]

    dots_sr = pooled_dots(runs_sr)
    assert dots_sr.size >= 10_000
    se_sr = dots_sr.std(ddof=1) / np.sqrt(dots_sr.size)
    assert abs(dots_sr.mean()) <= 4 * se_sr, (dots_sr.mean(), se_sr)

    dots_se = pooled_dots(runs_se)
    se_se = dots_se.std(ddof=1) / np.sqrt(dots_se.size)
    assert dots_se.mean() > 0
    assert dots_se.mean() > 4 * se_se, (dots_se.mean(), se_se)

    # --- conditional second moment on rounding-dominated coordinates: the
    # realized step d has E[d^2] = u * |t g~| under SR; pooled MC against the
    # per-entry target, plus the exact kernel law on a sample of entries
    c2 = _stack(runs_sr, "c2_mask")
    gt = _stack(runs_sr, "g_tilde")
    d = _stack(runs_sr, "d")
    pool_d = d[c2]
    pool_v = t * gt[c2]
    assert pool_d.size >= 1_000, int(pool_d.size)
    resid = pool_d**2 - u * np.abs(pool_v)
    se_resid = resid.std(ddof=1) / np.sqrt(resid.size)
    assert abs(resid.mean()) <= 4 * se_resid, (resid.mean(), se_resid)

    wscale = cfg.working_fmt.scale
    gt_m = _stack(runs_sr, "g_tilde_m")
    sr_scheme = parse_scheme("sr")
    for m in gt_m[c2][:40]:
        v = cfg.t * Fraction(int(m), wscale)
        exact, formula = second_moment_small_step(v, cfg.mul_fmt, sr_scheme)
        assert exact == formula == cfg.u_mul * abs(v)

    # --- gamma and r ranges wherever their preconditions hold
    for runs in (runs_sr, runs_se):
        r, valid = r_factors(runs)
        assert valid.any()
        r_ok = r[valid]
        assert r_ok.min() >= -1 - 1e-9 and r_ok.max() <= 3 + 1e-9, (
            float(r_ok.min()),
            float(r_ok.max()),
        )
        gam, ok = gamma_of(runs)
        g_ok = gam[ok]
        assert g_ok.min() >= -1e-9 and g_ok.max() <= 4 + 1e-9, (
            float(g_ok.min()),
            float(g_ok.max()),
        )
    assert time.perf_counter() - t0 < 120.0


def test_04_gradient_bias_scales_as_u_squared():
    """|E[sigma1]| of the rounded Rosenbrock recipe at the off-grid point
    (0.3, 0.7) falls with slope >= 1.7 in log-log over u in {2^-6, 2^-8,
    2^-10}.  The mean is enumerated exactly (at u = 2^-10 the per-run spread
    is ~u while the bias is ~u^2, so no feasible sample count resolves the
    slope by itself); a 1e4-run sampler is then held to the enumerated mean
    at 4 SE for every u."""
    t0 = time.perf_counter()
    ros = make_objective("rosenbrock")
    x = [Fraction(3, 10), Fraction(7, 10)]
    sr = parse_scheme("sr")
    fmts = [make_format((8, 6)), make_format((8, 8)), make_format((8, 10))]

    curve = bias_scaling_curve(ros, x, fmts, sr)
    slope = fit_log_slope(curve)
    assert slope >= 1.7, slope
    assert slope <= 2.5, slope

    for fmt in fmts:
        exact = np.array(
            [float(v) for v in exact_rounded_grad_mean(ros, x, fmt, sr)]
        )
        mean, se = mc_rounded_grad_mean(ros, x, fmt, sr, n=10_000, seed=40 + fmt.qf)
        z = np.abs(mean - exact) / se
        assert (z <= 4.0).all(), (fmt.qf, z)
    assert time.perf_counter() - t0 < 120.0


def test_05_quadratic_mean_stays_under_rate_envelope():
    """On the diagonal quadratic with L = 4, mu = 1/16 and t = 1/(8L), the
    100-seed mean optimality gap stays below 1.10x the geometric envelope
    (1 - t*mu)^k for all 500 iterations, and switching the update rounding to
    SR_eps(0.4) keeps the mean curve at or below the SR curve from iteration
    50 on."""
    t0 = time.perf_counter()
    obj = make_objective("quadratic", a_diag=[4, 1, "1/16"], x_star=[0, 0, 0])
    common = dict(
        objective=obj,
        t="1/32",
        x0=["1", "1", "1"],
        iterations=500,
        working_fmt="Q8.12",
        sigma1_scheme="sr",
    )
    runs_sr = run_ensemble(GDConfig(**common, sigma2_scheme="sr"), seeds=range(100))
    runs_se = run_ensemble(
        GDConfig(**common, sigma2_scheme="sr_eps:0.4"), seeds=range(100)
    )
    mean_sr = _stack(runs_sr, "fs").mean(axis=0)
    mean_se = _stack(runs_se, "fs").mean(axis=0)

    f0 = obj.f(np.array([1.0, 1.0, 1.0]))  # x0 is exactly representable
    env = geometric_envelope(f0, 1 - (1 / 32) * (1 / 16), 500)
    assert (mean_sr <= 1.10 * env).all(), float((mean_sr / env).max())

    after = slice(50, 501)
    assert (mean_se[after] <= mean_sr[after]).all()
    assert time.perf_counter() - t0 < 120.0


def test_06_himmelblau_hits_grid_minimum_exactly():
    """Q8.8, t = 0.012: every one of 30 SR runs started at (2.5, 1.5) lands
    exactly on the representable minimizer (3, 2); the RN run from the same
    start stagnates with ||grad|| still above 10*u; 30 SR runs started at
    (3.75, -1.75) end within 0.1 of the irrational minimizer without ever
    reaching it."""
    t0 = time.perf_counter()
    obj = make_objective("himmelblau")
    base = dict(
        objective=obj,
        t="0.012",
        x0=["2.5", "1.5"],
        iterations=1500,
        working_fmt="Q8.8",
        sigma1_scheme="sr",
        sigma2_scheme="sr",
    )
    target = np.array([3.0, 2.0])
    # (3, 2) is on the grid and the rounded gradient recipe is exactly zero
    # there, so a hit is absorbing and f == 0 stops the run early
    for s in range(30):
        res = run(GDConfig(**base, seed=s, stop_below_f=1e-28))
        assert (res.final_x == target).all(), (s, res.final_x)
        assert res.final_f == 0.0

    rn = run(
        GDConfig(
            **{**base, "sigma1_scheme": "rn", "sigma2_scheme": "rn"}, seed=0
        )
    )
    u = 2.0**-8
    assert rn.stagnated
    assert (rn.d[-50:] == 0).all()
    grad_norm = float(np.linalg.norm(obj.grad(rn.final_x)))
    assert grad_norm > 10 * u, grad_norm

    # the fourth minimizer has irrational coordinates, so no Q8.8 iterate
    # can ever equal it; distance > 0 is structural, <= 0.1 is the claim
    x4 = np.array([3.584428340330492, -1.848126526964404])
    for s in range(30):
        res = run(GDConfig(**{**base, "x0": ["3.75", "-1.75"]}, seed=s))
        dist = float(np.linalg.norm(res.final_x - x4))
        assert 0.0 < dist <= 0.1, (s, dist)
    assert time.perf_counter() - t0 < 60.0


def test_07_rosenbrock_scheme_ordering_and_reference_band():
    """Rosenbrock on working Q6.10 / update Q10.6 at t = 2^-10, 30 seeds:
    the mean objective at iteration 400 orders SR_eps(0.4) < SR_eps(0.2) <
    SR, the SR mean tracks the double-precision run within +/-30% there, and
    the SR_eps(0.4) mean at iteration 64 is already <= 0.5."""
    t0 = time.perf_counter()
    base = load_config(CONFIGS / "rosenbrock_sr.yaml")
    curves = {}
    for s2 in ("sr", "sr_eps:0.2", "sr_eps:0.4"):
        res = run_experiment(replace(base, sigma2=s2))
        curves[s2] = res.mean_f_curve()

    ref = run(
        GDConfig(
            objective=make_objective("rosenbrock"),
            t="2^-10",
            x0=["0", "0"],
            iterations=400,
            number_system="reference",
        )
    )
    assert curves["sr_eps:0.4"][400] < curves["sr_eps:0.2"][400] < curves["sr"][400]
    ratio = curves["sr"][400] / ref.fs[400]
    assert 0.7 <= ratio <= 1.3, ratio
    assert curves["sr_eps:0.4"][64] <= 0.5, curves["sr_eps:0.4"][64]
    assert time.perf_counter() - t0 < 180.0


def test_08_blr_stepsize_sensitivity():
    """Sweeping t over {0.1, 0.01, 2^-8} on the synthetic logistic problem
    (working Q15.8, update Q15.6): RN's final loss grows as t shrinks, SR's
    iterations-to-0.45 grow by >= 5x across the sweep, and SR_eps(0.6) keeps
    them within 2x."""
    t0 = time.perf_counter()
    base = load_config(CONFIGS / "blr_stepsize.yaml")
    ts = ("0.1", "0.01", "2^-8")

    def iters_to_threshold(spec):
        res = run_experiment(spec)
        below = [r.iterations_below(0.45) for r in res.runs]
        assert all(b is not None for b in below), below
        return float(np.mean(below)), res

    # nearest-even: once t*g~ drops below u/2 in every coordinate nothing
    # moves, so smaller t stalls at a higher loss (the two smallest t values
    # zero every step from the start and tie at f(x0))
    rn_finals = []
    for t in ts:
        spec = replace(
            base, t=t, sigma1="rn", sigma2="rn", stop_on_stagnation=True
        )
        rn_finals.append(float(run_experiment(spec).final_fs().mean()))
    assert rn_finals[0] < rn_finals[1] <= rn_finals[2], rn_finals

    sr_iters = [iters_to_threshold(replace(base, t=t))[0] for t in ts]
    assert sr_iters[2] >= 5.0 * sr_iters[0], sr_iters

    se_iters = [
        iters_to_threshold(replace(base, t=t, sigma2="sr_eps:0.6"))[0] for t in ts
    ]
    assert max(se_iters) <= 2.0 * min(se_iters), se_iters
    assert time.perf_counter() - t0 < 300.0


def test_09_float_drift_branch_formulas():
    """On the 3-significant-bit 8-bit float grid, the mean realized step of
    x <- fl(x - t*g) matches the branch formulas exactly and by Monte Carlo:
    SR realizes t*g; the signed variant adds eps times the local gap, pushed
    along the descent direction, with the gap taken from the binade the
    update lands in (1/8 below 1, 1/4 above)."""
    t0 = time.perf_counter()
    fp8 = parse_float_format("fp8e5")
    sr = parse_scheme("sr")
    signed = parse_scheme("signed_sr_eps:0.1")

    chk = check_float_drift(1, Fraction(1, 2), Fraction(1, 64), fp8, sr, seed=7)
    assert chk.ok
    assert chk.exact_mean == chk.formula == Fraction(1, 128)

    up = check_float_drift(1, Fraction(1, 2), Fraction(1, 64), fp8, signed, seed=8)
    assert up.ok
    assert up.exact_mean == up.formula == Fraction(13, 640)

    dn = check_float_drift(1, Fraction(-1, 2), Fraction(1, 64), fp8, signed, seed=9)
    assert dn.ok
    assert dn.exact_mean == dn.formula == Fraction(-21, 640)
    assert time.perf_counter() - t0 < 60.0


def test_10_pl_constant_estimator():
    """The box estimator recovers (L, mu) = (100, 1e-3) within 1% on the
    diagonal quadratic spanning those curvatures, and brackets mu for
    Rosenbrock over [0, 2]^2 on a 401^2 grid in [0.15, 0.5].  The Rosenbrock
    L_hat depends on where the difference quotient is taken, so it is
    reported, not pinned."""
    t0 = time.perf_counter()
    quad = make_objective(
        "quadratic", a_diag=["100", "10", "1", "1/10", "1/1000"]
    )
    est = estimate_pl_constants(quad, [(-1, 1)] * 5, resolution=101)
    assert abs(est.mu_hat - 1e-3) <= 0.01 * 1e-3, est.mu_hat
    assert abs(est.l_hat - 100.0) <= 1.0, est.l_hat

    ros = make_objective("rosenbrock")
    est2 = estimate_pl_constants(ros, [(0.0, 2.0), (0.0, 2.0)], resolution=401)
    assert 0.15 <= est2.mu_hat <= 0.5, est2.mu_hat
    assert np.isfinite(est2.l_hat) and est2.l_hat > 0
    print(f"rosenbrock box estimates: mu_hat={est2.mu_hat:.4f} l_hat={est2.l_hat:.1f}")
    assert time.perf_counter() - t0 < 120.0
