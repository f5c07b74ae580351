"""Tests for the exact-distribution oracles and their MC cross-checks."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpgd.lpfloat import FloatFormat
from lpgd.objectives import enumerate_recipe, make_objective
from lpgd.oracle import (
    McEstimate,
    bias_scaling_curve,
    check_expectation,
    check_float_drift,
    check_small_step_second_moment,
    difference_distribution,
    dist_mean,
    dist_moment,
    dist_variance,
    exact_grad,
    exact_rounded_grad_mean,
    fit_log_slope,
    mc_rounded_grad_mean,
    round_distribution,
    second_moment_small_step,
)
from lpgd.qnum import QFormat
from lpgd.rounding import parse_scheme

Q88 = QFormat(8, 8)
SR = parse_scheme("sr")
RN = parse_scheme("rn")
FP8 = FloatFormat(3, 5)


class TestMcEstimate:
    def test_z_and_ok(self):
        est = McEstimate(mean=0.52, se=0.01, n=100, expected=0.5)
        assert est.z == pytest.approx(2.0)
        assert est.ok
        assert not McEstimate(mean=0.55, se=0.01, n=100, expected=0.5).ok

    def test_zero_se_exact_match(self):
        est = McEstimate(mean=0.5, se=0.0, n=10, expected=0.5)
        assert est.z == 0.0 and est.ok

    def test_zero_se_mismatch_is_infinite(self):
        est = McEstimate(mean=0.6, se=0.0, n=10, expected=0.5)
        assert est.z == math.inf and not est.ok

    def test_str_mentions_verdict(self):
        assert "[ok]" in str(McEstimate(mean=0.5, se=0.1, n=4, expected=0.5))


class TestFixedDistributions:
    def test_sr_two_point_law(self):
        # 0.3 on Q8.8 sits 0.8 u above 76/256
        d = round_distribution(Fraction(3, 10), Q88, SR)
        assert d == {Fraction(76, 256): Fraction(1, 5), Fraction(77, 256): Fraction(4, 5)}
        assert dist_mean(d) == Fraction(3, 10)

    def test_rn_tie_goes_even(self):
        d = round_distribution(Fraction(153, 512), Q88, RN)  # 76.5 / 256
        assert d == {Fraction(76, 256): Fraction(1)}

    def test_clamped_eps_is_deterministic(self):
        d = round_distribution(Fraction(3, 10), Q88, parse_scheme("sr_eps:0.25"))
        assert d == {Fraction(77, 256): Fraction(1)}

    def test_on_grid_is_identity(self):
        d = round_distribution(Fraction(19, 64), Q88, SR)
        assert d == {Fraction(19, 64): Fraction(1)}

    def test_upper_neighbor_out_of_range_raises(self):
        with pytest.raises(OverflowError):
            round_distribution(Q88.max_value + Fraction(1, 1000), Q88, SR)

    def test_moments(self):
        d = {Fraction(0): Fraction(1, 2), Fraction(1): Fraction(1, 2)}
        assert dist_mean(d) == Fraction(1, 2)
        assert dist_moment(d, 2) == Fraction(1, 2)
        assert dist_variance(d) == Fraction(1, 4)

    def test_difference_distribution(self):
        d = {Fraction(0): Fraction(1, 2), Fraction(1): Fraction(1, 2)}
        diff = difference_distribution(d, d)
        assert diff == {
            Fraction(-1): Fraction(1, 4),
            Fraction(0): Fraction(1, 2),
            Fraction(1): Fraction(1, 4),
        }
        assert dist_mean(diff) == 0


class TestFloatDistributions:
    def test_two_point_law_on_binade(self):
        d = round_distribution(Fraction(11, 10), FP8, SR)
        assert d == {Fraction(1): Fraction(3, 5), Fraction(5, 4): Fraction(2, 5)}

    def test_representable_is_point_mass(self):
        d = round_distribution(Fraction(5, 4), FP8, SR)
        assert d == {Fraction(5, 4): Fraction(1)}


class TestMcAgainstExact:
    def test_sr_expectation_check_passes(self):
        est = check_expectation(Fraction(3, 10), Q88, SR, n=20_000, seed=1)
        assert est.ok
        assert est.expected == pytest.approx(0.3)

    def test_expectation_check_past_int64(self):
        # the numerator 2^70 + 1 passes int64: the samples round on Python ints
        x = Fraction(2**70 + 1, 2**72)
        est = check_expectation(x, QFormat(12, 8), parse_scheme("sr_eps:0.4"), n=20_000)
        assert est.ok

    def test_expectation_deterministic_scheme(self):
        # rn: every sample is 77/256, the nearest grid point to 3/10
        est = check_expectation(Fraction(3, 10), Q88, RN, n=50)
        assert est.mean == est.expected == 77 / 256 and est.se == 0


class TestSampleCount:
    """Too few samples raise a ValueError that names n, before any empty
    mean warns or a sum divides by zero."""

    def test_expectation_needs_a_sample(self):
        with pytest.raises(ValueError, match="n = 0"):
            check_expectation(Fraction(3, 10), Q88, SR, n=0)

    def test_float_drift_needs_a_sample(self):
        with pytest.raises(ValueError, match="n = 0"):
            check_float_drift(1, Fraction(1, 2), Fraction(1, 64), FP8, SR, n=0)

    @pytest.mark.parametrize("check", [
        lambda n: check_expectation(Fraction(3, 10), Q88, SR, n=n),
        lambda n: check_small_step_second_moment(Q88.u / 5, Q88, SR, n=n),
        lambda n: check_float_drift(1, Fraction(1, 2), Fraction(1, 64), FP8, SR, n=n),
    ], ids=["expectation", "small_step_second_moment", "float_drift"])
    def test_negative_count_is_named(self, check):
        with pytest.raises(ValueError, match="n = -1"):
            check(-1)

    def test_pipeline_standard_error_needs_two_samples(self):
        obj = make_objective("himmelblau")
        with pytest.raises(ValueError, match="n = 1"):
            mc_rounded_grad_mean(obj, [Fraction(3, 10), Fraction(7, 10)], QFormat(7, 3), SR, n=1)


class TestSmallStepSecondMoment:
    def test_sr_formula_matches_exactly(self):
        u = Q88.u
        exact, formula = second_moment_small_step(u / 5, Q88, SR)
        assert exact == formula == u * u / 5

    def test_eps_interior_branch(self):
        u = Q88.u
        scheme = parse_scheme("sr_eps:0.25")
        exact, formula = second_moment_small_step(u / 5, Q88, scheme)
        assert exact == formula == Fraction(45, 100) * u * u

    def test_eps_clamped_branch(self):
        u = Q88.u
        scheme = parse_scheme("sr_eps:0.25")
        exact, formula = second_moment_small_step(u * Fraction(9, 10), Q88, scheme)
        assert exact == formula == u * u

    def test_signed_eps_rounds_at_lean_zero(self):
        # with no lean, signed_sr_eps follows the plain sr law: E[d^2] = u|v|
        u = Q88.u
        scheme = parse_scheme("signed_sr_eps:0.2")
        for v in (u / 5, -u / 5):
            exact, formula = second_moment_small_step(v, Q88, scheme)
            assert exact == formula == u * u / 5
        exact, formula, mc = check_small_step_second_moment(u / 5, Q88, scheme, n=20_000, seed=3)
        assert exact == formula == u * u / 5
        assert mc.ok

    def test_zero_step(self):
        exact, formula = second_moment_small_step(0, Q88, SR)
        assert exact == formula == 0

    def test_rn_has_no_formula(self):
        with pytest.raises(ValueError):
            second_moment_small_step(Q88.u / 5, Q88, RN)

    def test_large_value_rejected(self):
        with pytest.raises(ValueError):
            second_moment_small_step(Q88.u, Q88, SR)

    def test_mc_route_agrees(self):
        exact, formula, mc = check_small_step_second_moment(
            Q88.u / 5, Q88, SR, n=20_000, seed=3
        )
        assert exact == formula
        assert mc.ok


class TestPipelineBias:
    def test_exact_grad_matches_analytic(self):
        obj = make_objective("himmelblau")
        g = exact_grad(obj, [Fraction(5, 2), Fraction(3, 2)])
        ref = obj.grad(np.array([2.5, 1.5]))
        assert [float(v) for v in g] == ref.tolist()

    def test_no_recipe_raises(self):
        obj = replace(make_objective("rosenbrock"), recipe=None)
        for fn in (
            exact_grad,
            lambda o, x: exact_rounded_grad_mean(o, x, Q88, SR),
            lambda o, x: mc_rounded_grad_mean(o, x, Q88, SR, n=2),
        ):
            with pytest.raises(ValueError, match="objective rosenbrock has no recipe"):
                fn(obj, [Fraction(3, 10), Fraction(7, 10)])

    def test_linear_recipe_has_zero_bias(self):
        # sub and integer coef are exact, the input quantization is SR:
        # the whole pipeline is unbiased, exactly
        obj = make_objective("quadratic", a_diag=[3], x_star=[0])
        mean = exact_rounded_grad_mean(obj, [Fraction(3, 10)], Q88, SR)
        assert mean == (Fraction(9, 10),)

    def test_zero_bias_curve_has_no_slope(self):
        obj = make_objective("quadratic", a_diag=[3], x_star=[0])
        curve = bias_scaling_curve(
            obj, [Fraction(3, 10)], [QFormat(8, 4), QFormat(8, 6)], SR
        )
        with pytest.raises(ValueError):
            fit_log_slope(curve)

    def test_nonlinear_bias_scales_like_u_squared(self):
        obj = make_objective("himmelblau")
        x = [Fraction(3, 10), Fraction(7, 10)]
        fmts = [QFormat(7, 3), QFormat(7, 4), QFormat(7, 5)]
        curve = bias_scaling_curve(obj, x, fmts, SR)
        slope = fit_log_slope(curve)
        assert 1.6 <= slope <= 2.4

    def test_sampled_mean_takes_an_input_that_rounds_back_inside(self):
        # x_0 lies past Q2.4's top, 1/4 of a grid step, so rn rounds it down
        # onto max_value: both means round it as the engine's kernels do
        obj = make_objective("quadratic", a_diag=[1, 1])
        fmt = QFormat(2, 4)
        x = [fmt.max_value + Fraction(1, 64), Fraction(1, 3)]
        assert exact_rounded_grad_mean(obj, x, fmt, RN) == (Fraction(31, 16), Fraction(5, 16))
        mean, se = mc_rounded_grad_mean(obj, x, fmt, RN, n=20)
        assert mean.tolist() == [31 / 16, 5 / 16] and se.tolist() == [0.0, 0.0]

    def test_mc_pipeline_agrees_with_enumeration(self):
        x = [Fraction(3, 10), Fraction(7, 10)]
        # the biased case has forced up-roundings inside the recipe
        for name, fmt, scheme in [
            ("himmelblau", QFormat(7, 3), SR),
            ("rosenbrock", QFormat(8, 6), parse_scheme("sr_eps:0.4")),
        ]:
            obj = make_objective(name)
            expected = exact_rounded_grad_mean(obj, x, fmt, scheme)
            mean, se = mc_rounded_grad_mean(obj, x, fmt, scheme, n=3_000, seed=2)
            z = (mean - np.array([float(v) for v in expected])) / se
            assert (np.abs(z) <= 4).all(), (name, z)


# ---------------------------------------------------------------------------
# the pipeline mean against its corner-by-corner form
# ---------------------------------------------------------------------------


def _corner_by_corner_grad_mean(obj, x, fmt, scheme):
    """E[g~] as the product law of the input roundings, then one recipe
    tree per input corner, weighted by the corner's probability."""
    per_coord = []
    for xi in x:
        d = round_distribution(xi, fmt, scheme)
        per_coord.append([(int(v * fmt.scale), p) for v, p in d.items()])
    total = None
    for combo in itertools.product(*per_coord):
        ms = [m for m, _ in combo]
        pc = math.prod(p for _, p in combo)
        mean_c = None
        for outputs, pl in enumerate_recipe(lambda be: obj.recipe(be, list(ms)), fmt, scheme):
            scaled = [v * pl for v in outputs]
            mean_c = scaled if mean_c is None else [a + b for a, b in zip(mean_c, scaled)]
        contrib = [v * pc for v in mean_c]
        total = contrib if total is None else [a + b for a, b in zip(total, contrib)]
    return tuple(total)


_PIPELINE_OBJECTIVES = {
    "quadratic": make_objective("quadratic", a_diag=["1/3", "5/4"], x_star=["1/2", "-1"]),
    "rosenbrock": make_objective("rosenbrock"),
    "himmelblau": make_objective("himmelblau"),
}


@st.composite
def _pipeline_case(draw):
    """An objective, a Q format with 2-6 fraction bits and a point inside its
    range, mostly |x| <= 1, with coordinates on and off the grid.  A
    coordinate anywhere in the range mostly overflows inside the recipe."""
    fmt = QFormat(draw(st.integers(5, 10)), draw(st.integers(2, 6)))
    name = draw(st.sampled_from(sorted(_PIPELINE_OBJECTIVES)))
    x = []
    for _ in range(2):
        den = draw(st.sampled_from([1, 3, 10, fmt.scale, 4 * fmt.scale]))
        lo, hi = int(fmt.min_value * den), int(fmt.max_value * den)
        wide = draw(st.integers(0, 4)) == 0
        x.append(Fraction(draw(st.integers(lo, hi) if wide else st.integers(-den, den)), den))
    return name, x, fmt


@given(
    case=_pipeline_case(),
    spec=st.sampled_from(["rn", "sr", "sr_eps:0.4", "sr_eps:1/3", "signed_sr_eps:0.25"]),
)
@settings(max_examples=200, deadline=None)
def test_pipeline_mean_matches_corner_by_corner(case, spec):
    name, x, fmt = case
    obj, scheme = _PIPELINE_OBJECTIVES[name], parse_scheme(spec)

    def outcome(fn):
        try:
            return fn(obj, x, fmt, scheme)
        except (OverflowError, ValueError, AssertionError) as exc:
            return type(exc)

    got = outcome(exact_rounded_grad_mean)
    assert got == outcome(_corner_by_corner_grad_mean), (name, x, fmt, spec)
    assert isinstance(got, type) or all(type(v) is Fraction for v in got)


@given(
    case=_pipeline_case(),
    spec=st.sampled_from(["rn", "sr", "sr_eps:0.4", "sr_eps:1/3", "signed_sr_eps:0.25"]),
)
@settings(max_examples=200, deadline=None)
def test_sampled_mean_accepts_what_the_exact_mean_accepts(case, spec):
    # every sample takes one branch of the enumerated tree, so a tree with
    # no overflowing leaf has no overflowing sample; rn has one leaf
    name, x, fmt = case
    obj, scheme = _PIPELINE_OBJECTIVES[name], parse_scheme(spec)
    try:
        exact = exact_rounded_grad_mean(obj, x, fmt, scheme)
    except OverflowError:
        return
    mean, se = mc_rounded_grad_mean(obj, x, fmt, scheme, n=20)
    if scheme.kind == "rn":
        assert mean.tolist() == [float(v) for v in exact] and se.tolist() == [0.0, 0.0]


class TestFloatDrift:
    def test_sr_realizes_intended_step(self):
        chk = check_float_drift(1, Fraction(1, 2), Fraction(1, 64), FP8, SR, n=4_000)
        assert chk.exact_mean == chk.formula == Fraction(1, 128)
        assert chk.ok

    def test_signed_drift_positive_gradient(self):
        scheme = parse_scheme("signed_sr_eps:0.1")
        chk = check_float_drift(1, Fraction(1, 2), Fraction(1, 64), FP8, scheme, n=4_000)
        assert chk.exact_mean == chk.formula == Fraction(13, 640)
        assert chk.ok

    def test_signed_drift_negative_gradient(self):
        scheme = parse_scheme("signed_sr_eps:0.1")
        chk = check_float_drift(1, Fraction(-1, 2), Fraction(1, 64), FP8, scheme, n=4_000)
        assert chk.exact_mean == chk.formula == Fraction(-21, 640)
        assert chk.ok

    def test_clamped_probability_rejected(self):
        scheme = parse_scheme("signed_sr_eps:0.95")
        with pytest.raises(ValueError):
            check_float_drift(1, Fraction(1, 2), Fraction(1, 64), FP8, scheme, n=10)

    def test_no_formula_for_rn(self):
        with pytest.raises(ValueError):
            check_float_drift(1, Fraction(1, 2), Fraction(1, 64), FP8, RN, n=10)

    def test_update_mean_for_on_grid_step(self):
        # x - t g lands on the grid: the mean realized step is exact
        chk = check_float_drift(1, 16, Fraction(1, 64), FP8, SR, n=10)
        assert chk.exact_mean == Fraction(1, 4) and chk.mc.mean == 0.25
