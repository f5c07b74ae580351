"""Tests for the rate-factor estimators, envelopes, and PL-constant fitting."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lpgd.bounds import (
    alpha_of,
    beta_and_h_of,
    bound_envelope,
    envelope_factors_case3,
    envelope_factors_gamma,
    estimate_pl_constants,
    gamma_of,
    geometric_envelope,
    r_factors,
    rho_of,
    tau1_of,
    tau2_of,
    theta_of,
)
from lpgd.gdengine import GDConfig, RunResult, run_ensemble
from lpgd.objectives import make_objective


def fabricated_run(t, g_exact, sigma1, sigma2, case, c2_mask=None, g_tilde_m=None, **cfg_over):
    """A RunResult whose per-iteration arrays are chosen by hand."""
    g_exact = np.asarray(g_exact, dtype=np.float64)
    k, n = g_exact.shape
    cfg_kwargs = dict(
        objective=make_objective("quadratic", a_diag=[1] * n),
        t=t,
        x0=["0"] * n,
        iterations=k,
        number_system="fixed",
        working_fmt="Q8.8",
        sigma1_scheme="sr",
        sigma2_scheme="sr",
    )
    cfg_kwargs.update(cfg_over)
    cfg = GDConfig(**cfg_kwargs)
    sigma1 = np.asarray(sigma1, dtype=np.float64)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    g_tilde = g_exact + sigma1
    d = float(cfg.t) * g_tilde + sigma2
    if c2_mask is None:
        c2_mask = np.zeros((k, n), dtype=bool)
    return RunResult(
        config=cfg,
        fs=np.zeros(k + 1),
        xs=np.zeros((k + 1, n)),
        g_exact=g_exact,
        g_tilde=g_tilde,
        sigma1=sigma1,
        sigma2=sigma2,
        d=d,
        case=np.asarray(case, dtype=np.uint8),
        c2_mask=np.asarray(c2_mask, dtype=bool),
        nonopp_violations=np.zeros(k, dtype=np.int64),
        g_tilde_m=None if g_tilde_m is None else np.asarray(g_tilde_m, dtype=np.int64),
        steps=k,
    )


class TestFactorEstimators:
    def test_r_and_gamma_hand_values(self):
        run_ = fabricated_run(
            t="1/2",
            g_exact=[[1.0, 2.0], [1.0, 1.0]],
            sigma1=[[0.5, 0.0], [2.0, 0.0]],
            sigma2=[[0.25, 0.0], [0.0, 0.0]],
            case=[1, 1],
        )
        r, valid = r_factors([run_])
        assert r[0, 0, 0] == pytest.approx(1.0)  # (0.25 + 0.25) / 0.5
        assert r[0, 0, 1] == 0.0
        assert valid[0, 0].all()
        assert not valid[0, 1, 0]  # |sigma1| exceeds |grad|
        gamma, ok = gamma_of([run_])
        assert gamma[0, 0] == pytest.approx(1.0)  # min(2.0, 1.0)
        assert ok[0, 0] and not ok[0, 1]
        assert np.isnan(gamma[0, 1])

    def test_gamma_requires_case1(self):
        run_ = fabricated_run(
            t="1/2",
            g_exact=[[1.0, 2.0]],
            sigma1=[[0.0, 0.0]],
            sigma2=[[0.0, 0.0]],
            case=[3],
        )
        gamma, ok = gamma_of([run_])
        assert not ok[0, 0] and np.isnan(gamma[0, 0])

    def test_theta_hand_values(self):
        got = theta_of(np.array([1.0, -2.0, 0.0]), L=4.0, u=0.125)
        assert got == pytest.approx(1.5)  # min((2 - 0.5)/1, (4 - 0.5)/2)
        assert np.isnan(theta_of(np.zeros(3), L=4.0, u=0.125))

    def test_theta_applies_along_last_axis(self):
        g = np.array([[[1.0, -2.0, 0.0]], [[4.0, 4.0, 4.0]]])
        got = theta_of(g, L=4.0, u=0.125)
        assert got.shape == (2, 1)
        assert got[0, 0] == pytest.approx(1.5)
        assert got[1, 0] == pytest.approx((8 - 0.5) / 4)

    def test_rho_hand_values(self):
        run_ = fabricated_run(
            t="1/2",
            g_exact=[[1.0, 2.0]],
            sigma1=[[0.0, 0.0]],
            sigma2=[[0.25, 0.0]],
            case=[1],
        )
        rho = rho_of([run_])
        # num per coord: 2 * [0.25, 0]; den 5; min is 0
        assert rho[0] == pytest.approx(0.0)

    def test_rho_averages_over_runs(self):
        mk = lambda s2: fabricated_run(
            t="1/2",
            g_exact=[[1.0, 2.0]],
            sigma1=[[0.0, 0.0]],
            sigma2=[s2],
            case=[1],
        )
        rho = rho_of([mk([0.25, 0.5]), mk([0.75, 0.5])])
        # mean sigma2 g per coord: [0.5, 1.0]; num = 2 * that; den = 5
        assert rho[0] == pytest.approx(0.2)

    def test_alpha_hand_values(self):
        run_ = fabricated_run(
            t="1/2",
            g_exact=[[1.0, 2.0], [1.0, 2.0]],
            sigma1=np.zeros((2, 2)),
            sigma2=np.zeros((2, 2)),
            case=[3, 1],
            c2_mask=[[False, True], [False, False]],
        )
        alpha = alpha_of([run_], theta=np.array([1.5, 1.5]))
        assert alpha[0] == pytest.approx(0.5 * 0.5 * 4.0 / 5.0)
        assert alpha[1] == 0.0

    def test_tau1_is_smallest_rho(self):
        assert tau1_of(np.array([0.5, np.nan, -0.25, 1.0])) == -0.25


def reference_h(runs):
    """h entry by entry, with the update-rounding law written out on Fractions
    and the engine's signs: sr_eps leans by sign(t g~), signed_sr_eps by
    sign(g~)."""
    cfg = runs[0].config
    scheme = cfg.sigma2_scheme
    eps = scheme.eps or Fraction(0)
    k_min = min(r.steps for r in runs)
    n = runs[0].g_exact.shape[1]
    total = np.zeros((k_min, n))
    count = np.zeros((k_min, n), dtype=np.int64)
    for run_ in runs:
        for k in range(k_min):
            for i in range(n):
                if not run_.c2_mask[k, i]:
                    continue
                g = int(run_.g_tilde_m[k, i])
                pos = cfg.t * g * cfg.mul_fmt.scale / cfg.working_fmt.scale  # in u_mul
                frac = pos - math.floor(pos)
                if frac == 0:
                    contrib = 0.0
                else:
                    if scheme.kind == "rn":
                        interior = False
                    elif scheme.kind == "sr":
                        interior = True
                    else:
                        s = pos if scheme.kind == "sr_eps" else g
                        interior = 0 < frac + ((s > 0) - (s < 0)) * eps < 1
                    contrib = float(eps) if interior else float(1 - abs(pos))
                total[k, i] += contrib
                count[k, i] += 1
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(count > 0, total / count, np.nan)


class TestBetaAndH:
    def test_interior_entries_contribute_eps(self):
        # t g~ = u/8 with eps 0.25: perturbed probability stays interior
        run_ = fabricated_run(
            t="1/64",
            g_exact=[[1 / 32.0]],
            sigma1=[[0.0]],
            sigma2=[[0.0]],
            case=[2],
            c2_mask=[[True]],
            g_tilde_m=[[8]],
            sigma2_scheme="sr_eps:0.25",
        )
        beta, h = beta_and_h_of([run_])
        assert h[0, 0] == pytest.approx(0.25)
        assert beta[0] == pytest.approx(0.25)

    def test_clamped_and_zero_entries(self):
        # coord 0: t g~ = +-0.9 u clamps the probability, contributes 1 - 0.9;
        # both eps schemes lean with the sign of t g~ here (signed_sr_eps takes
        # sign(g~) from the engine), so the lean always pushes past the clamp
        # coord 1: exact zero step contributes 0
        for scheme in ("sr_eps:0.25", "signed_sr_eps:0.25"):
            for g in (1, -1):
                run_ = fabricated_run(
                    t="9/10",
                    g_exact=[[g / 256.0, 0.0]],
                    sigma1=[[0.0, 0.0]],
                    sigma2=[[0.0, 0.0]],
                    case=[2],
                    c2_mask=[[True, True]],
                    g_tilde_m=[[g, 0]],
                    sigma2_scheme=scheme,
                )
                beta, h = beta_and_h_of([run_])
                assert h[0, 0] == pytest.approx(0.1), (scheme, g)
                assert h[0, 1] == 0.0
                assert beta[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("sigma2", ["rn", "sr", "sr_eps:0.4", "signed_sr_eps:1/3"])
    def test_matches_per_entry_reference(self, sigma2):
        cfg = GDConfig(
            objective=make_objective("quadratic", a_diag=[4, 1, "1/16"], x_star=[0, 0, 0]),
            t="1/32",
            x0=["1", "1", "1"],
            iterations=300,
            working_fmt="Q8.12",
            mul_fmt="Q8.6",
            sigma1_scheme="sr",
            sigma2_scheme=sigma2,
        )
        runs = run_ensemble(cfg, seeds=range(12))
        beta, h = beta_and_h_of(runs)
        want = reference_h(runs)
        assert np.isfinite(want).sum() > 100  # the ensemble reaches C2
        assert np.array_equal(h, want, equal_nan=True)
        assert beta.shape == (h.shape[0],)

    def test_no_c2_data_gives_nan(self):
        run_ = fabricated_run(
            t="1/64",
            g_exact=[[1.0]],
            sigma1=[[0.0]],
            sigma2=[[0.0]],
            case=[1],
            c2_mask=[[False]],
            g_tilde_m=[[256]],
            sigma2_scheme="sr_eps:0.25",
        )
        beta, h = beta_and_h_of([run_])
        assert np.isnan(h[0, 0]) and np.isnan(beta[0])

    def test_tau2_hand_value(self):
        run_ = fabricated_run(
            t="1/64",
            g_exact=[[3.0, 4.0]],
            sigma1=np.zeros((1, 2)),
            sigma2=np.zeros((1, 2)),
            case=[1],
        )
        got = tau2_of([run_], beta=np.array([0.2]))
        # 0.2 * u * 5 / 25 with u = 1/256
        assert got == pytest.approx(0.2 * (1 / 256.0) * 5.0 / 25.0)


class TestEnvelopes:
    def test_bound_envelope_cumulative_product(self):
        got = bound_envelope(2.0, np.array([0.5, 0.25]))
        assert got.tolist() == [2.0, 1.0, 0.25]

    def test_bound_envelope_no_factors(self):
        assert bound_envelope(3.0, np.array([])).tolist() == [3.0]

    def test_geometric_envelope(self):
        assert geometric_envelope(2.0, 0.5, 3).tolist() == [2.0, 1.0, 0.5, 0.25]

    def test_factor_builders(self):
        got = envelope_factors_gamma(0.1, 2.0, np.array([1.0, 2.0]))
        assert np.allclose(got, [0.8, 0.6])
        got = envelope_factors_case3(
            1.0, 0.1, np.array([0.1]), theta=np.array([2.0]), tau2=0.05
        )
        assert np.allclose(got, [0.7])
        # without tau2 the theta term drops out
        got = envelope_factors_case3(1.0, 0.1, np.array([0.1]))
        assert np.allclose(got, [0.8])


class TestPLEstimation:
    def test_exact_on_centered_diagonal_quadratic(self):
        obj = make_objective("quadratic", a_diag=[4, "1/4"], x_star=[0, 0])
        est = estimate_pl_constants(obj, [(-1, 1), (-1, 1)], resolution=41)
        assert est.mu_hat == pytest.approx(0.25, rel=1e-12)
        assert est.l_hat == pytest.approx(4.0, rel=1e-9)
        assert est.n_points == 41 * 41
        assert est.f_star_used == 0.0

    def test_axis_lines_for_higher_dimensions(self):
        obj = make_objective("quadratic", a_diag=[1, 2, 8], x_star=[0, 0, 0])
        est = estimate_pl_constants(obj, [(-1, 1)] * 3, resolution=21)
        assert est.mu_hat == pytest.approx(1.0, rel=1e-12)
        assert est.l_hat == pytest.approx(8.0, rel=1e-9)
        # three axis lines share the center point
        assert est.n_points == 3 * 21 - 2

    def test_explicit_f_star(self):
        obj = make_objective("quadratic", a_diag=[2], x_star=[0])
        est = estimate_pl_constants(obj, [(1, 2)], resolution=11, f_star=0.0)
        assert est.f_star_used == 0.0
        assert est.mu_hat == pytest.approx(2.0, rel=1e-12)

    def test_box_shape_validation(self):
        obj = make_objective("quadratic", a_diag=[1, 1])
        with pytest.raises(ValueError):
            estimate_pl_constants(obj, [(-1, 1)], resolution=5)
        with pytest.raises(ValueError):
            estimate_pl_constants(obj, [(-1, 1), (-1, 1)], resolution=1)

    def test_degenerate_box_raises(self):
        obj = make_objective("quadratic", a_diag=[1])
        with pytest.raises(ValueError):
            estimate_pl_constants(obj, [(0, 0)], resolution=3)
