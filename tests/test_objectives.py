"""Tests for the objective zoo and its low-precision gradient recipes."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpgd import lpfloat
from lpgd.gdengine import GDConfig, run
from lpgd.objectives import (
    FixedBackend,
    FloatBackend,
    FractionBackend,
    enumerate_recipe,
    eval_grad_reference,
    make_objective,
)
from lpgd.oracle import round_distribution
from lpgd.qnum import FixedVec, QFormat, from_exact
from lpgd.rng import RandomStream
from lpgd.rounding import parse_scheme

RN = parse_scheme("rn")
SR = parse_scheme("sr")


def _vec(xs, fmt):
    """A FixedVec of values that sit on fmt's grid."""
    return FixedVec(np.array([from_exact(x, fmt) for x in xs], dtype=np.int64), fmt)


def central_diff(obj, x, h=1e-5):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (obj.f(x + e) - obj.f(x - e)) / (2 * h)
    return g


FD_POINTS = {
    "quadratic": [[0.3, -1.2], [2.0, 0.5]],
    "rosenbrock": [[0.0, 0.0], [0.9, 1.1], [-0.4, 0.2]],
    "himmelblau": [[2.5, 1.5], [0.0, 0.0], [-3.0, 3.0]],
}


def _blr_small():
    rng_ = np.random.default_rng(3)
    x_data = rng_.normal(size=(30, 3))
    y = (rng_.random(30) < 0.5).astype(int)
    return make_objective("blr", x_data=x_data, y=y, data_fmt=QFormat(8, 8), reg=0.01)


ROW_OBJECTIVES = {
    "quadratic": lambda: make_objective(
        "quadratic", a_diag=["3", "1/10", "1/1000"], x_star=["1/3", "-2", "0.7"]
    ),
    "rosenbrock": lambda: make_objective("rosenbrock"),
    "himmelblau": lambda: make_objective("himmelblau"),
    "blr": _blr_small,
}
_ROW_OBJ = {name: make() for name, make in ROW_OBJECTIVES.items()}


@st.composite
def _rows(draw, n: int):
    """0-24 rows, past numpy's 8-element switch to its SIMD loops, of
    arbitrary doubles (inf and nan included) or values on a Q8.8 grid.
    Every nan of one example carries one payload, drawn with it: rows keep
    no promise on payload bits between nans that differ (see `Objective`)."""
    grid = st.integers(-(2**15), 2**15 - 1).map(lambda m: m / 256)
    value = st.one_of(st.floats(width=64), grid)
    count = draw(st.integers(0, 24))
    x = np.array([[draw(value) for _ in range(n)] for _ in range(count)]).reshape(count, n)
    bits = 0x7FF8 << 48 | draw(st.integers(0, 2**51 - 1)) | draw(st.booleans()) << 63
    x[np.isnan(x)] = np.array([bits], dtype=np.uint64).view(np.float64)[0]
    return x


class TestRowsEqualPoints:
    """f and grad on rows (N, n) give, row for row, the bits of one point."""

    @pytest.mark.parametrize("name", sorted(ROW_OBJECTIVES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_are_bitwise_the_points(self, name, data):
        obj = _ROW_OBJ[name]
        x = data.draw(_rows(obj.n))
        with np.errstate(all="ignore"):  # overflow is recorded as inf, not raised
            f_rows, g_rows = obj.f(x), obj.grad(x)
            f_pts = [obj.f(row) for row in x]
            g_pts = [obj.grad(row) for row in x]
            g_ref = eval_grad_reference(obj, x)
        assert all(type(v) is float for v in f_pts)
        assert f_rows.dtype == g_rows.dtype == np.float64
        assert f_rows.shape == (len(x),) and g_rows.shape == x.shape
        assert f_rows.tobytes() == np.array(f_pts, dtype=np.float64).tobytes()
        assert g_rows.tobytes() == np.array(g_pts, dtype=np.float64).reshape(x.shape).tobytes()
        assert g_ref.tobytes() == g_rows.tobytes()

    @pytest.mark.parametrize("name", ["rosenbrock", "himmelblau"])
    def test_squares_round_as_python_floats(self, name):
        # Python's float ** 2 goes through C pow, which on some doubles gives
        # the other neighbour of the square than x * x does
        obj = _ROW_OBJ[name]
        x = np.random.default_rng(5).normal(scale=1e3, size=(20_000, 2))
        want = [
            (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2 if name == "rosenbrock"
            else (a * a + b - 11.0) ** 2 + (a + b * b - 7.0) ** 2
            for a, b in x.tolist()
        ]
        assert obj.f(x).tobytes() == np.array(want).tobytes()

    def test_overflow_is_inf_without_a_warning(self):
        # binary64 as Python floats compute it: no raise from ** 2, no warning
        x = np.array([[1e200, 1.0], [1.0, 1.0]])
        for name in ("rosenbrock", "himmelblau"):
            obj = _ROW_OBJ[name]
            assert obj.f(x)[0] == np.inf and np.isfinite(obj.f(x)[1])
            assert np.isinf(obj.grad(x)[0]).any()


class TestAnalyticGradients:
    @pytest.mark.parametrize("name", sorted(FD_POINTS))
    def test_grad_matches_finite_differences(self, name):
        kwargs = {"a_diag": [2.0, 0.5]} if name == "quadratic" else {}
        obj = make_objective(name, **kwargs)
        for x in FD_POINTS[name]:
            fd = central_diff(obj, x)
            g = eval_grad_reference(obj, x)
            assert np.allclose(g, fd, rtol=1e-5, atol=1e-6), (name, x)

    def test_blr_grad_matches_finite_differences(self):
        rng_ = np.random.default_rng(0)
        x_data = rng_.normal(size=(40, 3))
        y = (rng_.random(40) < 0.5).astype(int)
        obj = make_objective("blr", x_data=x_data, y=y, reg=0.01)
        w = np.array([0.2, -0.1, 0.4])
        assert np.allclose(eval_grad_reference(obj, w), central_diff(obj, w), rtol=1e-5)

    def test_known_minima(self):
        rb = make_objective("rosenbrock")
        assert rb.f(np.array([1.0, 1.0])) == 0.0
        assert np.allclose(eval_grad_reference(rb, [1.0, 1.0]), 0.0)
        hb = make_objective("himmelblau")
        for m in hb.minima:
            assert abs(hb.f(np.asarray(m))) < 1e-20
        q = make_objective("quadratic", a_diag=[4, 1], x_star=[1, -2])
        assert q.f(np.array([1.0, -2.0])) == 0.0
        assert q.lip_grad == 4.0 and q.pl_mu == 1.0

    def test_quadratic_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            make_objective("quadratic", a_diag=[1, 0])

    @pytest.mark.parametrize(
        "kwargs, name",
        [(dict(a_diag=["1/0"]), "a_diag"), (dict(a_diag=["1"], x_star=["1/0"]), "x_star")],
        ids=["a_diag", "x_star"],
    )
    def test_quadratic_zero_denominator_is_a_value_error(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} entry must be a rational number, got '1/0'$"):
            make_objective("quadratic", **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(a_diag=["1", "x"]), "a_diag entry must be a rational number, got 'x'"),
            (dict(a_diag=["1"], x_star=[None]), "x_star entry must be a rational number, got None"),
        ],
        ids=["a_diag", "x_star"],
    )
    def test_quadratic_entry_errors_name_their_argument(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_objective("quadratic", **kwargs)

    @pytest.mark.parametrize("x_star", [["1"], ["1", "2", "3"]], ids=["short", "long"])
    def test_quadratic_x_star_length_must_match_a_diag(self, x_star):
        with pytest.raises(ValueError, match=f"x_star has length {len(x_star)}, a_diag has length 2"):
            make_objective("quadratic", a_diag=["1", "2"], x_star=x_star)

    def test_quadratic_reads_powers_of_two(self):
        q = make_objective("quadratic", a_diag=["2^-4"], x_star=["-2^-3"])
        assert q.f(np.array([-0.125])) == 0.0
        assert eval_grad_reference(q, [0.875]).tolist() == [0.0625]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_objective("rastrigin")


class TestRecipeBackends:
    @pytest.mark.parametrize("name", sorted(FD_POINTS))
    def test_double_backend_reproduces_analytic_grad(self, name):
        kwargs = {"a_diag": [2.0, 0.5]} if name == "quadratic" else {}
        obj = make_objective(name, **kwargs)
        for x in FD_POINTS[name]:
            out = obj.recipe(FractionBackend(), [Fraction(v) for v in x])
            got = [float(v) for v in out]
            assert np.allclose(got, eval_grad_reference(obj, x), rtol=1e-12), (name, x)

    def test_fraction_backend_is_exact(self):
        obj = make_objective("himmelblau")
        x = [Fraction(5, 2), Fraction(3, 2)]
        g1, g2 = obj.recipe(FractionBackend(), x)
        x1, x2 = x
        b = x1 * x1 + x2 - 11
        e = x1 + x2 * x2 - 7
        assert g1 == 4 * x1 * b + 2 * e
        assert g2 == 2 * b + 4 * x2 * e

    def test_fixed_backend_exact_when_everything_on_grid(self):
        # integer point, integer intermediates: no rounding at all
        obj = make_objective("himmelblau")
        fmt = QFormat(10, 4)
        x = _vec([1, 2], fmt)
        g = obj.grad_rounded_fixed(x, RN, None, 0)
        assert g.to_fractions() == [Fraction(-36), Fraction(-32)]

    def test_fixed_backend_integer_coef_never_rounds(self):
        be = FixedBackend(QFormat(8, 8), SR, None, 0)  # no stream on purpose
        assert be.coef(4, 33) == 132

    def test_fixed_backend_stochastic_op_needs_streams(self):
        be = FixedBackend(QFormat(8, 8), SR)
        with pytest.raises(ValueError, match="stochastic scheme needs a RandomStream"):
            be.mul(3, 5)

    def test_no_recipe_raises(self):
        obj = replace(make_objective("rosenbrock"), recipe=None)
        fmt = QFormat(8, 8)
        with pytest.raises(NotImplementedError, match="rosenbrock has no low-precision recipe"):
            obj.grad_rounded_fixed(_vec([1, 2], fmt), RN, None, 0)
        with pytest.raises(NotImplementedError, match="rosenbrock has no scalar recipe"):
            obj.grad_rounded_float([(1, 0), (2, 0)], lpfloat.parse_float_format("fp16e5"),
                                   RN, None, 0)

    def test_fixed_backend_fractional_coef_rounds_once(self):
        be = FixedBackend(QFormat(8, 8), RN)
        # (1/3) * 33/256 = 11/256 exactly on grid
        assert be.coef(Fraction(1, 3), 33) == 11
        # (1/3) * 32/256 = 32/768, nearest mantissa is 11 (32/3 = 10.67)
        assert be.coef(Fraction(1, 3), 32) == 11

    def test_fixed_backend_add_overflow_is_hard(self):
        be = FixedBackend(QFormat(4, 4), RN)
        with pytest.raises(OverflowError):
            be.add(120, 120)

    def test_fixed_backend_sums_past_int64_exactly(self):
        # four top mantissas of Q32.31 add up to 2**64 - 4, which int64 would
        # wrap to -4, inside the format
        be = FixedBackend(QFormat(32, 31), RN)
        top = np.full((2, 4), be.fmt.max_mantissa)
        with pytest.raises(OverflowError):
            be.sum(top, axis=-1)
        assert be.mean(top, axis=-1).tolist() == [be.fmt.max_mantissa] * 2
        assert be.tag == 1  # the sum takes no tag, the mean's rounding one

    def test_float_recipe_on_binary64_matches_analytic(self):
        obj = make_objective("quadratic", a_diag=["2", "1/2"], x_star=["1", "0"])
        from lpgd.lpfloat import pair_float, parse_float_format, to_pair

        # the iterate as grid pairs: the binary64 values 0.3 and -1.2, exactly
        out = obj.grad_rounded_float(
            [to_pair(0.3), to_pair(-1.2)], parse_float_format("binary64"), RN, None, 0
        )
        # every quantity is dyadic-exact in binary64 except 0.3-1 and the
        # products; compare against float math
        ref = eval_grad_reference(obj, [0.3, -1.2])
        assert np.allclose([pair_float(*v) for v in out], ref, rtol=1e-15)


class TestConstantTable:
    def test_float_constant_rounds_once_per_format(self):
        table = {}
        fp8, fp16 = lpfloat.parse_float_format("fp8e5"), lpfloat.parse_float_format("fp16e5")
        c = Fraction(1, 3)
        be8, be16 = FloatBackend(fp8, SR, consts=table), FloatBackend(fp16, SR, consts=table)
        want8, want16 = (lpfloat.fl_round((1, 3), f, RN) for f in (fp8, fp16))
        assert want8 != want16
        assert be8.const(c) == be8.const(c) == want8
        assert be16.const(c) == want16  # a table entry holds for one format only
        assert be8.const(c) == want8
        assert be8.tag == be16.tag == 0  # no tag, no draw (no stream is given)

    def test_float_constant_outside_the_format_raises_every_time(self):
        be = FloatBackend(lpfloat.parse_float_format("fp8e5"), RN)
        for _ in range(2):
            with pytest.raises(OverflowError):
                be.const(10**9)

    def test_lowfloat_rosenbrock_rounds_its_constant_on_the_first_step_only(
        self, monkeypatch
    ):
        # per step: 8 recipe roundings and 2 update roundings; the constant 1
        # rounds once per objective
        calls = []
        fl_round = lpfloat.fl_round

        def counted(*args, **kwargs):
            calls.append(args[0])
            return fl_round(*args, **kwargs)

        monkeypatch.setattr(lpfloat, "fl_round", counted)
        for iterations in (1, 6):
            calls.clear()
            cfg = GDConfig(
                objective=make_objective("rosenbrock"), t="2^-10", x0=["0", "0"],
                iterations=iterations, number_system="lowfloat", float_fmt="fp16e5",
                sigma1_scheme="sr", sigma2_scheme="sr_eps:0.4",
            )
            assert run(cfg, [3])[0].steps == iterations
            assert len(calls) == 11 + 10 * (iterations - 1)


class TestEnumeration:
    def test_single_leaf_when_nothing_rounds(self):
        obj = make_objective("himmelblau")
        fmt = QFormat(10, 4)
        x_m = [fmt.scale, 2 * fmt.scale]
        leaves = enumerate_recipe(lambda be: obj.recipe(be, x_m), fmt, SR)
        assert len(leaves) == 1
        (values, p) = leaves[0]
        assert p == 1 and values == (Fraction(-36), Fraction(-32))

    def test_mean_of_single_rounding_is_exact_value(self):
        # quadratic: sub is exact, one rounding in coef, SR unbiased
        obj = make_objective("quadratic", a_diag=[Fraction(1, 16)], x_star=["0"])
        fmt = QFormat(8, 4)
        x_m = [3]  # 3/16; (1/16)(3/16) = 3/256, off the 1/16 grid
        leaves = enumerate_recipe(lambda be: obj.recipe(be, x_m), fmt, SR)
        assert len(leaves) == 2
        mean = sum(v[0] * p for v, p in leaves)
        assert mean == Fraction(3, 256)

    @pytest.mark.parametrize("spec", ["rn", "sr", "sr_eps:0.4"])
    def test_enumeration_agrees_with_sampled_backend(self, spec):
        # dual route: exact branch tree vs the live rounding kernel
        scheme = parse_scheme(spec)
        obj = make_objective("himmelblau")
        fmt = QFormat(8, 2)
        x = _vec([Fraction(9, 4), Fraction(7, 4)], fmt)
        x_m = [int(m) for m in x.m]
        leaves = enumerate_recipe(lambda be: obj.recipe(be, x_m), fmt, scheme)
        assert sum(p for _, p in leaves) == 1
        n = 4000
        stream = RandomStream(17)
        samples = [obj.grad_rounded_fixed(x, scheme, stream, k) for k in range(n)]
        if not scheme.is_random:
            # one leaf, and every sample is it
            assert len(leaves) == 1
            assert all(g.to_fractions() == list(leaves[0][0]) for g in samples)
            return
        mean0 = sum(v[0] * p for v, p in leaves)
        var0 = sum((v[0] - mean0) ** 2 * p for v, p in leaves)
        se = float(var0 / n) ** 0.5
        mean = np.mean([g.m[0] / fmt.scale for g in samples])
        assert abs(mean - float(mean0)) <= 4 * se

    def test_signed_sr_eps_in_a_recipe_has_the_sr_law(self):
        # recipe ops pass no sign, so the eps term drops out of the law
        obj = make_objective("quadratic", a_diag=["3/4", "5/8", "7/16"], x_star=[0, 0, 0])
        fmt, x_m = QFormat(4, 2), [3, -5, 7]

        def law(spec):
            out = {}
            scheme = parse_scheme(spec)
            for values, p in enumerate_recipe(lambda be: obj.recipe(be, x_m), fmt, scheme):
                out[values] = out.get(values, 0) + p
            return out

        assert len(law("sr")) > 1
        assert law("signed_sr_eps:1/3") == law("sr") != law("sr_eps:1/3")

    @pytest.mark.parametrize("spec", ["rn", "sr_eps:0.4"])
    def test_forced_up_rounding_is_one_leaf(self, spec):
        # (3/4)(1/4) sits 3/4 of the way up its Q4.2 cell: rn and the clamped
        # sr_eps both round it up for certain, so nothing branches
        leaves = enumerate_recipe(
            lambda be: [be.coef(Fraction(3, 4), 1)], QFormat(4, 2), parse_scheme(spec)
        )
        assert leaves == [((Fraction(1, 4),), Fraction(1))]


    @pytest.mark.parametrize("spec", ["rn", "sr", "sr_eps:0.4"])
    @pytest.mark.parametrize("t", ["1/32", "3/250", "7/3"])
    def test_update_enumerates_onto_the_mul_format(self, spec, t):
        # the engine's update t * g: coef onto the mul format Q10.6 from a
        # working-format Q6.10 backend, whose leaves read mul mantissas << 4
        work, mul = QFormat(6, 10), QFormat(10, 6)
        scheme, t = parse_scheme(spec), Fraction(t)
        for g_m in (-5000, -37, 0, 999, 12345):
            leaves = enumerate_recipe(lambda be: [be.coef(t, g_m, mul) << 4], work, scheme)
            got = {value: p for (value,), p in leaves}
            assert got == round_distribution(t * Fraction(g_m, work.scale), mul, scheme)

    @pytest.mark.parametrize("spec", ["rn", "sr", "sr_eps:0.4"])
    def test_one_lane_update_branches_element_by_element(self, spec):
        # the engine's one-lane update coef(t, g_list, mul): one tag for the
        # list, then one branch per element in index order, so the leaves are
        # the product of the per-element laws, the first element outermost
        work, mul = QFormat(8, 12), QFormat(8, 8)
        scheme, t = parse_scheme(spec), Fraction(1, 32)
        g_m = [-5000, 37, 0, 12345, 16]
        tags = []

        def recipe(be):
            d = be.coef(t, g_m, mul)
            tags.append(be.tag)
            return [di << 4 for di in d]

        leaves = enumerate_recipe(recipe, work, scheme)
        laws = [round_distribution(t * Fraction(m, work.scale), mul, scheme) for m in g_m]
        want = [
            (tuple(v for v, _ in combo), math.prod(p for _, p in combo))
            for combo in itertools.product(*(law.items() for law in laws))
        ]
        assert leaves == want
        assert set(tags) == {1}


class TestBlr:
    def _tiny(self):
        x_data = np.array(
            [[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1]], dtype=np.float64
        )
        y = np.array([1, 0, 1, 0])
        return x_data, y

    def test_label_validation(self):
        x_data, _ = self._tiny()
        with pytest.raises(ValueError):
            make_objective("blr", x_data=x_data, y=np.array([1, 0, 2, 0]))

    def test_binary_features_survive_quantization(self):
        x_data, y = self._tiny()
        fmt = QFormat(15, 8)
        obj = make_objective("blr", x_data=x_data, y=y, data_fmt=fmt)
        # at w = 0 the rounded path is exact: z = 0, the logistic value 1/2,
        # the residuals and their products with 0/1 features, and the mean
        # over 4 samples all sit on the Q15.8 grid
        w = _vec([0, 0, 0], fmt)
        g = obj.grad_rounded_fixed(w, RN, None, 0)
        ref = eval_grad_reference(obj, [0.0, 0.0, 0.0])
        assert [float(v) for v in g.to_fractions()] == ref.tolist()

    def test_fixed_path_requires_data_format(self):
        x_data, y = self._tiny()
        obj = make_objective("blr", x_data=x_data, y=y, data_fmt=QFormat(15, 8))
        w = _vec([0, 0, 0], QFormat(15, 6))
        with pytest.raises(ValueError):
            obj.grad_rounded_fixed(w, RN, None, 0)
        obj_no_fmt = make_objective("blr", x_data=x_data, y=y)
        with pytest.raises(ValueError):
            obj_no_fmt.grad_rounded_fixed(
                _vec([0, 0, 0], QFormat(15, 8)), RN, None, 0
            )

    @pytest.mark.parametrize("spec", ["rn", "sr", "sr_eps:0.4"])
    def test_wide_format_gradient_is_exact(self, spec):
        # Q8.40: x_ij * w_j and r_i * x_ij * 2^40 need ~2^96 and ~2^120, far
        # past int64, so the products and their roundings run on Python ints;
        # the products used to wrap and give 0 for -1/4 at w = 0
        x_data, y = self._tiny()
        fmt = QFormat(8, 40)
        scheme = parse_scheme(spec)
        obj = make_objective("blr", x_data=x_data, y=y, data_fmt=fmt)
        # at w = 0 every rounding is on the grid: binary64's gradient exactly
        g = obj.grad_rounded_fixed(_vec([0, 0, 0], fmt), scheme, RandomStream(3), 0)
        assert g.to_fractions() == [Fraction(-1, 4), 0, Fraction(1, 8)]
        assert eval_grad_reference(obj, [0.0, 0.0, 0.0]).tolist() == [-0.25, 0.0, 0.125]
        # elsewhere the logistic values round once onto 2^-40, and the rest is
        # exact up to the mean's one rounding: within one grid step of binary64
        w = _vec([Fraction(1, 2), Fraction(-1, 4), Fraction(1)], fmt)
        ref = eval_grad_reference(obj, [0.5, -0.25, 1.0])
        one = obj.grad_rounded_fixed(w, scheme, RandomStream(3), 0)
        for v, r in zip(one.to_fractions(), ref.tolist()):
            assert abs(v - Fraction(r)) < fmt.u
        # two lanes: lane 0 on the same stream rounds as the one-lane call
        lanes = FixedVec(np.array([w.m, -w.m]), fmt)
        both = obj.grad_rounded_fixed(lanes, scheme, [RandomStream(3), RandomStream(4)], 0)
        assert both.m[0].tolist() == one.m.tolist()

    def test_no_scalar_recipe(self):
        x_data, y = self._tiny()
        obj = make_objective("blr", x_data=x_data, y=y, data_fmt=QFormat(15, 8))
        from lpgd.lpfloat import parse_float_format

        with pytest.raises(NotImplementedError):
            obj.grad_rounded_float([(0, 0)] * 3, parse_float_format("fp8e5"), SR, None, 0)

    def test_stochastic_path_replays_by_seed(self):
        x_data, y = self._tiny()
        fmt = QFormat(15, 8)
        obj = make_objective("blr", x_data=x_data, y=y, data_fmt=fmt)
        w = _vec([Fraction(1, 4), Fraction(-1, 2), Fraction(3, 4)], fmt)
        a = obj.grad_rounded_fixed(w, SR, RandomStream(5), 7)
        b = obj.grad_rounded_fixed(w, SR, RandomStream(5), 7)
        assert a.m.tolist() == b.m.tolist()
        # other seeds draw other words: some of them round differently
        others = {
            tuple(obj.grad_rounded_fixed(w, SR, RandomStream(s), 7).m.tolist())
            for s in range(6, 14)
        }
        assert others - {tuple(a.m.tolist())}
        # the rounded gradient stays within one grid step of the reference
        ref = eval_grad_reference(obj, w.m / fmt.scale)
        assert np.all(np.abs(a.m / fmt.scale - ref) < 16 * float(fmt.u))

    @pytest.mark.parametrize("reg", [0.25, 0.01])
    @pytest.mark.parametrize("spec", ["rn", "sr", "sr_eps:0.4"])
    def test_rounded_regularizer_tracks_binary64(self, reg, spec):
        # reg * w_j rounds once onto the grid; 0.01 has a 53-bit binary64
        # numerator, so at |w| >= 8 its product with a Q15.8 mantissa leaves
        # int64.  One lane or two, the rounded gradient stays within a few
        # grid steps of the binary64 one.
        fmt = QFormat(15, 8)
        x_data = np.random.default_rng(3).uniform(-1, 1, size=(16, 4))
        obj = make_objective("blr", x_data=x_data, y=np.arange(16) % 2, data_fmt=fmt, reg=reg)
        scheme = parse_scheme(spec)
        ws = [[8, -8, 100, 0], [-12, 9, 8, -30]]
        lanes = obj.grad_rounded_fixed(
            FixedVec(np.array(ws) * fmt.scale, fmt), scheme, [RandomStream(s) for s in (0, 1)], 5
        )
        for r, w in enumerate(ws):
            x = _vec(w, fmt)
            ref = eval_grad_reference(obj, x.m / fmt.scale)
            one = obj.grad_rounded_fixed(x, scheme, RandomStream(r), 5)
            assert one.m.tolist() == lanes.m[r].tolist()
            assert np.abs(one.m / fmt.scale - ref).max() <= 4 * float(fmt.u)

    def test_regularizer_enters_gradient(self):
        x_data, y = self._tiny()
        obj = make_objective("blr", x_data=x_data, y=y, reg=0.5)
        g = eval_grad_reference(obj, [1.0, 0.0, 0.0])
        g0 = eval_grad_reference(
            make_objective("blr", x_data=x_data, y=y), [1.0, 0.0, 0.0]
        )
        assert np.allclose(g - g0, [0.5, 0.0, 0.0])


@given(
    x1=st.integers(min_value=-12, max_value=12),
    x2=st.integers(min_value=-12, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_himmelblau_recipe_exact_at_integer_points(x1, x2):
    obj = make_objective("himmelblau")
    out = obj.recipe(FractionBackend(), [Fraction(x1), Fraction(x2)])
    ref = eval_grad_reference(obj, [float(x1), float(x2)])
    assert [float(v) for v in out] == ref.tolist()


# ---------------------------------------------------------------------------
# blr lanes: one batched call against one call per lane
# ---------------------------------------------------------------------------

_BLR_FMT = QFormat(15, 8)
_BLR_DATA = np.random.default_rng(11).uniform(-2, 2, size=(12, 3))
_BLR_Y = (np.arange(12) % 3 == 0).astype(int)


class _RecordingStream(RandomStream):
    """A RandomStream that keeps every word source it hands out."""

    def __init__(self, seed):
        super().__init__(seed)
        self.handed = []

    def generator(self, k, tag):
        g = super().generator(k, tag)
        self.handed.append(((k, tag), g))
        return g

    def positions(self):
        """Each address drawn from, with the next word its source would give:
        equal next words mean equal words used."""
        return [(addr, g.integers(0, 1 << 64, 1, np.uint64).tolist()) for addr, g in self.handed]


@given(
    w=st.lists(
        st.lists(st.integers(min_value=-(1 << 14), max_value=1 << 14), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    ),
    seeds=st.lists(st.integers(min_value=0, max_value=2**40), min_size=4, max_size=4),
    spec=st.sampled_from(["rn", "sr", "sr_eps:0.4"]),
    reg=st.sampled_from([0.0, 0.25]),
    k=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_blr_lanes_round_as_one_lane_calls(w, seeds, spec, reg, k):
    obj = make_objective("blr", x_data=_BLR_DATA, y=_BLR_Y, data_fmt=_BLR_FMT, reg=reg)
    scheme = parse_scheme(spec)
    rows = np.array(w, dtype=np.int64)
    lanes = [_RecordingStream(s) for s in seeds[: len(rows)]]
    batched = obj.grad_rounded_fixed(FixedVec(rows, _BLR_FMT), scheme, lanes, k)
    for r, row in enumerate(rows):
        alone = _RecordingStream(seeds[r])
        one = obj.grad_rounded_fixed(FixedVec(row, _BLR_FMT), scheme, alone, k)
        assert batched.m[r].tolist() == one.m.tolist()
        assert lanes[r].positions() == alone.positions()
