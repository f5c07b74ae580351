"""Tests for the instrumented low-precision gradient descent engine."""

import hashlib
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpgd import gdengine
from lpgd.gdengine import SIGMA2_TAG, GDConfig, _Fixed, classify_case, run, run_ensemble
from lpgd.harness import load_config, run_experiment, synthetic_blr_dataset
from lpgd.lpfloat import FloatFormat
from lpgd.objectives import make_objective
from lpgd.qnum import FixedVec, QFormat
from lpgd.rng import RandomStream
from lpgd.rounding import RoundScheme

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def quad_config(**over):
    base = dict(
        objective=make_objective("quadratic", a_diag=[1], x_star=[0]),
        t="1/4",
        x0=["1"],
        iterations=8,
        number_system="fixed",
        working_fmt="Q8.8",
        sigma1_scheme="rn",
        sigma2_scheme="rn",
    )
    base.update(over)
    return GDConfig(**base)


class TestConfig:
    def test_string_fields_are_parsed(self):
        cfg = quad_config(working_fmt="Q8.8", mul_fmt="Q8.6", t="2^-10")
        assert cfg.working_fmt == QFormat(8, 8)
        assert cfg.mul_fmt == QFormat(8, 6)
        assert cfg.t == Fraction(1, 1024)
        assert cfg.u_mul == Fraction(1, 64)

    def test_mul_fmt_defaults_to_working(self):
        cfg = quad_config()
        assert cfg.mul_fmt == cfg.working_fmt

    def test_finer_update_grid_rejected(self):
        # the iterate update x - d must stay exact on the working grid
        with pytest.raises(ValueError):
            quad_config(working_fmt="Q8.6", mul_fmt="Q8.8")

    def test_fixed_mode_needs_working_fmt(self):
        with pytest.raises(ValueError):
            quad_config(working_fmt=None)

    def test_float_mode_config(self):
        cfg = quad_config(
            number_system="lowfloat", working_fmt=None, float_fmt="fp8e5", x0=["1"]
        )
        assert cfg.float_fmt.total_bits == 8
        with pytest.raises(ValueError):
            cfg.u_mul

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            quad_config(t="0")

    def test_zero_denominator_step_is_a_value_error(self):
        with pytest.raises(ValueError, match="'1/0'"):
            quad_config(t="1/0")

    def test_x0_length_must_match(self):
        with pytest.raises(ValueError):
            quad_config(x0=["1", "2"])

    @pytest.mark.parametrize(
        "x0", ["12", "1", 1, Fraction(1, 2), [["1", "2"]]],
        ids=["text", "char", "int", "fraction", "nested"],
    )
    def test_text_or_scalar_x0_rejected(self, x0):
        # "12" used to run from (1, 2), one coordinate per character
        obj = make_objective("quadratic", a_diag=[1, 1], x_star=[0, 0])
        with pytest.raises(ValueError, match="x0 must be a list of coordinates"):
            quad_config(objective=obj, x0=x0)

    def test_off_grid_x0_rejected(self):
        with pytest.raises(ValueError, match="not on the Q8.8 grid"):
            run(quad_config(x0=["1/3"]))
        with pytest.raises(ValueError, match="not on the fp8e5 grid"):
            run(
                quad_config(
                    number_system="lowfloat",
                    working_fmt=None,
                    float_fmt="fp8e5",
                    x0=["33/32"],
                )
            )

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError, match="iterations must be >= 0"):
            quad_config(iterations=-1)

    def test_float_mode_needs_float_fmt(self):
        with pytest.raises(ValueError, match="lowfloat mode needs float_fmt"):
            quad_config(number_system="lowfloat", working_fmt=None)

    def test_unknown_number_system(self):
        with pytest.raises(ValueError):
            quad_config(number_system="posit")

    @pytest.mark.parametrize("field", ["iterations", "stagnation_window"])
    def test_counts_must_be_integers(self, field):
        # 2.5 steps would die in range() mid-run; a 2.5-step window would
        # flag stagnation at a truncated k - 2.5 + 1
        with pytest.raises(ValueError, match=field):
            quad_config(**{field: 2.5})
        cfg = quad_config(**{field: np.int64(5)})
        assert type(getattr(cfg, field)) is int and getattr(cfg, field) == 5

    @pytest.mark.parametrize("window", [0, -3])
    def test_stagnation_window_below_one_rejected(self, window):
        # window 0 would flag stagnation after any step, -3 before the run starts
        with pytest.raises(ValueError, match="stagnation_window"):
            quad_config(stagnation_window=window)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("field", ["iterations", "stagnation_window", "seed", "stop_below_f"])
    def test_bools_are_not_numbers(self, field, value):
        # iterations=True used to run 1 step, stop_below_f=True to stop at f <= 1.0
        with pytest.raises(ValueError, match=f"^{field} must be"):
            quad_config(**{field: value})

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None], ids=repr)
    def test_stop_on_stagnation_must_be_a_bool(self, value):
        # a quoted YAML "false" is a non-empty string: it turned stagnation stops on
        with pytest.raises(ValueError, match="^stop_on_stagnation must be true or false"):
            quad_config(stop_on_stagnation=value)


class TestClassify:
    def test_all_three_cases(self):
        t = Fraction(1, 4)
        u = Fraction(1, 256)
        case, mask = classify_case([Fraction(1), Fraction(1)], t, u)
        assert case == 1 and not mask.any()
        case, mask = classify_case([Fraction(1, 512), Fraction(1, 512)], t, u)
        assert case == 2 and mask.all()
        case, mask = classify_case([Fraction(1), Fraction(1, 512)], t, u)
        assert case == 3 and mask.tolist() == [False, True]

    def test_boundary_is_not_c2(self):
        # |t g| == u clears the grid: strict inequality for C2
        case, mask = classify_case([Fraction(1, 64)], Fraction(1, 4), Fraction(1, 256))
        assert case == 1 and not mask[0]

    def test_per_coordinate_spacings(self):
        case, mask = classify_case(
            [Fraction(1, 2), Fraction(1, 2)],
            Fraction(1, 4),
            [Fraction(1, 16), Fraction(1, 2)],
        )
        assert case == 3 and mask.tolist() == [False, True]

    def test_spacings_must_match_the_gradient(self):
        # zip would drop the third coordinate and call the run case 3
        with pytest.raises(ValueError):
            classify_case(
                [Fraction(1), Fraction(1), Fraction(1, 512)],
                Fraction(1, 4),
                [Fraction(1, 256), Fraction(1, 256)],
            )

    @given(
        rows=st.lists(
            st.lists(st.integers(-(2**61), 2**61), min_size=3, max_size=3), min_size=1, max_size=4
        ),
        qf=st.sampled_from([0, 8, 30, 60]),
        t=st.fractions(min_value=Fraction(1, 10**6), max_value=10**6),
        u=st.fractions(min_value=Fraction(1, 2**70), max_value=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_integer_compare_matches_fractions(self, rows, qf, t, u):
        fmt = QFormat(63 - qf, qf)
        m = np.array(rows, dtype=np.int64)
        case, mask = classify_case(FixedVec(m, fmt), t, u)
        for r, row in enumerate(m):
            want_case, want_mask = classify_case([Fraction(int(v), fmt.scale) for v in row], t, u)
            assert case[r] == want_case
            assert mask[r].tolist() == want_mask.tolist()
        one_case, one_mask = classify_case(FixedVec(m[0], fmt), t, u)
        assert one_case == case[0] and one_mask.tolist() == mask[0].tolist()


class TestFixedRun:
    def test_exact_first_step(self):
        # a = 1, x0 = 1, t = 1/4: gradient and update product both on grid
        res = run(quad_config())
        assert res.d[0, 0] == 0.25
        assert res.sigma1[0, 0] == 0.0
        assert res.sigma2[0, 0] == 0.0
        assert res.xs[1, 0] == 0.75
        # x_k = (3/4)^k holds while the iterate's mantissa keeps dividing by
        # four; 81/256 at k = 4 is the last such point
        assert np.array_equal(res.xs[:5, 0], 0.75 ** np.arange(5))
        assert res.xs[5, 0] != 0.75**5

    def test_decomposition_identity(self):
        cfg = quad_config(
            objective=make_objective("rosenbrock"),
            x0=["0", "0"],
            working_fmt="Q6.10",
            mul_fmt="Q10.6",
            t="2^-10",
            iterations=30,
            sigma1_scheme="sr",
            sigma2_scheme="sr",
            seed=3,
        )
        res = run(cfg)
        t = float(cfg.t)
        lhs = res.d
        rhs = t * res.g_exact + t * res.sigma1 + res.sigma2
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)
        # sigma1 is the recipe error by definition
        assert np.array_equal(res.sigma1, res.g_tilde - res.g_exact)

    def test_mantissa_update_identity(self):
        cfg = quad_config(
            objective=make_objective("himmelblau"),
            x0=["5/2", "3/2"],
            working_fmt="Q8.8",
            mul_fmt="Q8.6",
            t="3/250",
            iterations=40,
            sigma1_scheme="sr",
            sigma2_scheme="sr",
            seed=11,
        )
        res = run(cfg)
        shift = cfg.working_fmt.qf - cfg.mul_fmt.qf
        for k in range(res.steps):
            assert np.array_equal(
                res.x_m[k + 1], res.x_m[k] - (res.d_m[k] << shift)
            ), k

    def test_sigma2_reconstruction_from_mantissas(self):
        cfg = quad_config(
            objective=make_objective("himmelblau"),
            x0=["5/2", "3/2"],
            t="3/250",
            iterations=25,
            sigma1_scheme="sr",
            sigma2_scheme="sr",
            seed=2,
        )
        res = run(cfg)
        t = cfg.t
        s_w = cfg.working_fmt.scale
        s_m = cfg.mul_fmt.scale
        for k in range(res.steps):
            for i in range(2):
                exact = Fraction(int(res.d_m[k, i]), s_m) - t * Fraction(
                    int(res.g_tilde_m[k, i]), s_w
                )
                assert abs(res.sigma2[k, i] - float(exact)) < 1e-15

    def test_case2_steps_are_single_grid_points(self):
        # tiny iterate: every coordinate is below the update grid
        cfg = quad_config(
            x0=["1/128"],
            t="1/8",
            iterations=10,
            sigma1_scheme="sr",
            sigma2_scheme="sr",
            seed=9,
        )
        res = run(cfg)
        assert (res.case == 2).all()
        assert set(np.unique(res.d_m)) <= {-1, 0, 1}

    def test_case_labels_on_mixed_point(self):
        cfg = quad_config(
            objective=make_objective("quadratic", a_diag=[1, 1], x_star=[0, 0]),
            x0=["1", "1/256"],
            t="1/4",
            iterations=1,
        )
        res = run(cfg)
        assert res.case[0] == 3
        assert res.c2_mask[0].tolist() == [False, True]

    def test_replay_and_divergence(self):
        cfg = quad_config(
            objective=make_objective("rosenbrock"),
            x0=["0", "0"],
            working_fmt="Q6.10",
            mul_fmt="Q10.6",
            t="2^-10",
            iterations=50,
            sigma1_scheme="sr",
            sigma2_scheme="sr",
            seed=21,
        )
        a, b = run(cfg), run(cfg)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.d_m, b.d_m)
        runs = run_ensemble(cfg, seeds=[21, 22])
        assert np.array_equal(runs[0].xs, a.xs)
        assert not np.array_equal(runs[1].xs, a.xs)

    def test_stagnation_detection(self):
        # g = 1/16 > 10 u, but t g = 1/1024 rounds to zero every step
        cfg = quad_config(
            x0=["1/16"],
            t="1/64",
            iterations=20,
            stagnation_window=5,
            stop_on_stagnation=True,
        )
        res = run(cfg)
        assert res.stagnated
        assert res.stagnation_iter == 0
        assert res.steps == 5
        assert (res.d == 0).all()

    def test_no_stagnation_flag_when_gradient_is_small(self):
        # d stays zero but the true gradient is inside the dead zone
        cfg = quad_config(
            x0=["1/128"],
            t="1/64",
            iterations=20,
            stagnation_window=5,
        )
        res = run(cfg)
        assert (res.d == 0).all()
        assert not res.stagnated

    def test_stop_below_f(self):
        cfg = quad_config(iterations=200, stop_below_f=1e-3)
        res = run(cfg)
        assert res.steps < 200
        assert res.final_f <= 1e-3
        assert res.iterations_below(1e-3) == res.steps

    def test_overflow_is_hard(self):
        cfg = quad_config(
            working_fmt="Q4.4",
            x0=["4"],
            t="4",
            iterations=3,
        )
        with pytest.raises(OverflowError):
            run(cfg)

    def test_update_step_beyond_int64_is_an_overflow(self):
        # d = 2^22 * 100 in Q40.20 shifted onto the Q8.40 grid is 2^69-ish:
        # int64 used to wrap it to 0 and leave x unchanged without a word
        cfg = quad_config(
            x0=["100"], t="2^22", iterations=1, working_fmt="Q8.40", mul_fmt="Q40.20"
        )
        with pytest.raises(OverflowError, match="outside Q8.40"):
            run(cfg)

    def test_nonopposite_counter(self):
        cfg = quad_config(
            objective=make_objective("rosenbrock"),
            x0=["1/2", "1/2"],
            t="2^-8",
            iterations=30,
            sigma1_scheme="sr",
            sigma2_scheme="sr",
            seed=1,
        )
        res = run(cfg)
        flips = (np.sign(res.g_tilde) * np.sign(res.g_exact) < 0).sum(axis=1)
        assert np.array_equal(res.nonopp_violations, flips)


def runs_and_words(cfg, seeds, monkeypatch):
    """run_ensemble(cfg, seeds), and the words drawn at each (seed, k, tag)."""
    made = []
    generator = RandomStream.generator

    def counted(stream, k, tag):
        gen = generator(stream, k, tag)
        made.append((stream.seed, k, tag, gen))
        return gen

    with monkeypatch.context() as m:
        m.setattr(RandomStream, "generator", counted)
        runs = run_ensemble(cfg, seeds)
    return runs, sorted((s, k, tag, gen._used) for s, k, tag, gen in made)


class TestSignedUpdate:
    @pytest.mark.parametrize("working, mul", [("Q8.12", None), ("Q6.10", "Q10.6")])
    @pytest.mark.parametrize("seeds", [[3], [0, 1, 2, 3]])
    def test_signed_sr_eps_update_is_sr_eps(self, working, mul, seeds, monkeypatch):
        # t > 0: the update's descent sign is the sign of t * g, as sr_eps reads it
        cfg = _quad3(
            x0=["1", "-3/4", "5/8"], iterations=60, working_fmt=working, mul_fmt=mul,
            sigma2_scheme="signed_sr_eps:1/3",
        )
        signed, signed_words = runs_and_words(cfg, seeds, monkeypatch)
        plain, plain_words = runs_and_words(
            replace(cfg, sigma2_scheme="sr_eps:1/3"), seeds, monkeypatch
        )
        for a, b in zip(signed, plain):
            assert np.array_equal(a.x_m, b.x_m) and np.array_equal(a.d_m, b.d_m)
            assert (a.d_m < 0).any() and (a.d_m > 0).any()
        assert signed_words == plain_words
        assert any(tag == SIGMA2_TAG and used for _, _, tag, used in signed_words)


class TestFloatRun:
    def test_small_step_sticks_to_grid(self):
        cfg = quad_config(
            number_system="lowfloat",
            working_fmt=None,
            float_fmt="fp8e5",
            x0=["1"],
            t="1/64",
            iterations=3,
            sigma1_scheme="rn",
            sigma2_scheme="rn",
        )
        res = run(cfg)
        # x - t g = 63/64 rounds back to 1 under nearest: a zero step in C2
        assert res.case[0] == 2
        assert res.d[0, 0] == 0.0
        assert res.xs[1, 0] == 1.0

    def test_sr_run_moves_and_replays(self):
        cfg = quad_config(
            number_system="lowfloat",
            working_fmt=None,
            float_fmt="fp8e5",
            x0=["1"],
            t="1/64",
            iterations=40,
            sigma1_scheme="sr",
            sigma2_scheme="sr",
            seed=4,
        )
        a, b = run(cfg), run(cfg)
        assert np.array_equal(a.xs, b.xs)
        assert (a.d != 0).any()
        # every iterate sits on the fp8e5 grid: mantissa checks via neighbors
        from lpgd.lpfloat import is_representable, parse_float_format

        fmt = parse_float_format("fp8e5")
        assert all(is_representable(Fraction(v).limit_denominator(1 << 40), fmt) or v == 0 for v in a.xs[:, 0])

    def test_signed_scheme_runs(self):
        cfg = quad_config(
            number_system="lowfloat",
            working_fmt=None,
            float_fmt="fp8e5",
            x0=["1"],
            t="1/64",
            iterations=20,
            sigma1_scheme="sr",
            sigma2_scheme="signed_sr_eps:0.1",
            seed=8,
        )
        res = run(cfg)
        assert res.steps == 20
        assert np.isfinite(res.fs).all()


class TestReferenceRun:
    def test_matches_closed_form(self):
        cfg = quad_config(
            number_system="reference", working_fmt=None, x0=["1"], t="1/4", iterations=6
        )
        res = run(cfg)
        assert np.allclose(res.xs[:, 0], 0.75 ** np.arange(7))
        assert (res.sigma1 == 0).all() and (res.sigma2 == 0).all()
        assert (res.case == 0).all()


def _two_coord(system, **over):
    fmts = {
        "fixed": dict(working_fmt="Q8.8"),
        "lowfloat": dict(working_fmt=None, float_fmt="fp8e5"),
        "reference": dict(working_fmt=None),
    }
    return quad_config(
        objective=make_objective("quadratic", a_diag=[1, 4], x_star=[0, 0]),
        x0=["1", "-1/2"], number_system=system, sigma1_scheme="sr", sigma2_scheme="sr",
        **fmts[system], **over,
    )


class TestStepRecord:
    """A run keeps each step dict as its record and joins the columns once,
    so every step value must be lane-leading in the column's shape."""

    @pytest.mark.parametrize("name", ["fixed", "lowfloat", "reference"])
    def test_step_values_lead_with_the_lane_axis(self, name):
        # one fixed-point lane steps on Python ints and records one-row lists
        system = gdengine._SYSTEMS[name](_two_coord(name))
        for lanes in (3, 1):
            x = system.lanes(lanes)
            streams = [RandomStream(s) for s in range(lanes)]
            _, rec = gdengine.gd_step(x, system, streams, 0)
            for key, (_, per_coord) in system.columns.items():
                if key in rec:
                    assert np.shape(rec[key]) == ((lanes, 2) if per_coord else (lanes,)), key

    @pytest.mark.parametrize("system", ["fixed", "lowfloat", "reference"])
    @pytest.mark.parametrize("how", [dict(iterations=0), dict(stop_below_f=1.25)])
    def test_zero_step_runs_keep_column_dtypes_and_shapes(self, system, how):
        cfg = _two_coord(system, **how)  # f(x0) = 1/2 + 4/8 = 1
        # the case labels come from `finish` on fixed point and reference
        columns = {
            **gdengine._SYSTEMS[system].columns,
            "case": (np.uint8, False), "c2_mask": (bool, True),
        }
        for res in run(cfg, seeds=[0, 1]):
            assert res.steps == 0
            for key in ("fs", "xs") + (("x_m",) if system == "fixed" else ()):
                assert len(getattr(res, key)) == 1, key
            for key, (dtype, per_coord) in columns.items():
                if key not in ("fs", "xs", "x_m"):
                    col = getattr(res, key)
                    assert col.dtype == dtype and col.shape == ((0, 2) if per_coord else (0,)), key
            for key in ("g_tilde", "sigma1", "sigma2", "d", "nonopp_violations"):
                assert len(getattr(res, key)) == 0, key


class TestCaseLabels:
    """Fixed point labels every row once per run from the recorded mantissas."""

    def test_one_classification_per_run(self, monkeypatch):
        calls, classify = [], gdengine.classify_case
        monkeypatch.setattr(
            gdengine, "classify_case", lambda *a: calls.append(1) or classify(*a)
        )
        runs = run(_quad3(iterations=40), seeds=[0, 1, 2])
        assert len(calls) == 1 and [r.steps for r in runs] == [40] * 3

    @pytest.mark.parametrize(
        "cfg",
        [
            GDConfig(
                objective=make_objective("himmelblau"), t="3/250", x0=["5/2", "3/2"],
                iterations=8, working_fmt="Q7.56", mul_fmt="Q8.55",
                sigma1_scheme="sr", sigma2_scheme="sr",
            ),
            _two_coord("fixed", iterations=30),
        ],
        ids=["Q7.56-wide", "Q8.8"],
    )
    def test_labels_match_the_sequence_path(self, cfg):
        scale = cfg.working_fmt.scale
        for res in run(cfg, seeds=[3, 0, 7]):
            assert res.case.dtype == np.uint8 and res.case.shape == (res.steps,)
            for k, row in enumerate(res.g_tilde_m):
                case, mask = classify_case([Fraction(int(v), scale) for v in row], cfg.t, cfg.u_mul)
                assert res.case[k] == case and res.c2_mask[k].tolist() == mask.tolist()


def _counted(obj, calls: list):
    """obj with f and grad recording (name, shape of the argument) per call."""
    f, grad = obj.f, obj.grad
    obj.f = lambda x: calls.append(("f", np.shape(x))) or f(x)
    obj.grad = lambda x: calls.append(("grad", np.shape(x))) or grad(x)
    return obj


class TestBinary64Columns:
    """A rounding step does no binary64 work that no lane's next step reads:
    xs, fs and g_exact follow once per run, over the rows of every lane."""

    @pytest.mark.parametrize("system", ["fixed", "lowfloat"])
    def test_one_f_and_one_grad_call_per_run(self, system):
        calls = []
        cfg = _two_coord(system, iterations=40)
        cfg = replace(cfg, objective=_counted(cfg.objective, calls))
        runs = run(cfg, seeds=[0, 1, 2])
        assert [r.steps for r in runs] == [40] * 3
        assert calls == [("f", (3 * 41, 2)), ("grad", (3 * 40, 2))]
        calls.clear()
        assert run(replace(cfg, seed=1)).steps == 40
        assert calls == [("f", (41, 2)), ("grad", (40, 2))]

    def test_a_reference_ensemble_steps_one_row(self):
        # a reference run draws no word, so its seeds share one lane: the
        # loop evaluates the gradient there once per step and f once over
        # that lane's rows, whatever R is
        calls = []
        cfg = _quad3(number_system="reference", working_fmt=None, iterations=20)
        cfg = replace(cfg, objective=_counted(cfg.objective, calls))
        runs = run(cfg, seeds=[0, 1, 2])
        assert [r.steps for r in runs] == [20] * 3
        assert calls == [("grad", (1, 3))] * 20 + [("f", (21, 3))]

    @pytest.mark.parametrize("stop", [{}, dict(stop_below_f=0.3)], ids=["to-the-end", "stop-below-f"])
    def test_each_reference_lane_is_its_one_seed_run(self, stop):
        cfg = _rosen_fp16(number_system="reference", float_fmt=None, iterations=450, **stop)
        runs = run(cfg, seeds=[4, 0, 9])
        for seed, res in zip([4, 0, 9], runs):
            assert digest_records([res]) == digest_records([run(replace(cfg, seed=seed))])

    def test_stop_below_f_evaluates_f_on_the_live_lanes(self):
        calls = []
        cfg = _quad3(iterations=300, stop_below_f=1e-2)
        cfg = replace(cfg, objective=_counted(cfg.objective, calls))
        runs = run(cfg, seeds=[0, 1, 2])
        steps = [r.steps for r in runs]
        assert max(steps) < 300 and all(r.final_f <= 1e-2 for r in runs)
        # f at x0, then at the live lanes' new iterates after every step;
        # the recorded columns: f at every row and grad at every pre-step row
        assert calls[0] == ("f", (3,))
        assert calls[1:-2] == [("f", (sum(s > k for s in steps), 3)) for k in range(max(steps))]
        assert calls[-2:] == [("f", (sum(steps) + 3, 3)), ("grad", (sum(steps), 3))]

    def test_stagnation_is_derived_from_the_record(self):
        # g = 1/16 > 10 u, but t g = 1/1024 rounds to zero every step: with
        # no stop criterion the loop evaluates neither f nor the gradient
        calls = []
        cfg = quad_config(x0=["1/16"], t="1/64", iterations=20, stagnation_window=5)
        cfg = replace(cfg, objective=_counted(cfg.objective, calls))
        res = run(cfg)
        assert (res.steps, res.stagnated, res.stagnation_iter) == (20, True, 0)
        assert calls == [("f", (21, 1)), ("grad", (20, 1))]

    def test_stagnation_reads_the_recorded_gradient(self):
        for over in (
            # the config of TestLockstepEnsembles.test_lanes_stagnate_independently
            dict(x0=["13/256"], t="1/32"),
            # t g = x / 4096 against fp16e5's gap of 1/1024 below x0 = 1: each
            # update is zero with chance about 3/4
            dict(x0=["1"], t="2^-12", number_system="lowfloat", working_fmt=None,
                 float_fmt="fp16e5"),
            # some lanes stop below f before a streak reaches the window
            dict(x0=["13/256"], t="1/32", stop_below_f=1e-3),
        ):
            self._assert_stagnation_reads_the_record(quad_config(
                iterations=60, sigma1_scheme="rn", sigma2_scheme="sr", stagnation_window=4, **over
            ))

    @staticmethod
    def _assert_stagnation_reads_the_record(cfg):
        seeds = list(range(10))
        kept = run_ensemble(cfg, seeds)
        stopped = run_ensemble(replace(cfg, stop_on_stagnation=True), seeds)
        flagged = [r.stagnation_iter for r in kept if r.stagnated]
        assert len(set(flagged)) > 1 and len(flagged) < len(seeds)
        fixed = cfg.number_system == "fixed"
        u = float(cfg.u_mul if fixed else cfg.float_fmt.unit_roundoff)
        window = cfg.stagnation_window
        for a, b in zip(kept, stopped):
            assert (a.stagnated, a.stagnation_iter) == (b.stagnated, b.stagnation_iter)
            if not a.stagnated:
                assert b.steps == a.steps
                assert a.steps == 60 or (cfg.stop_below_f is not None and a.final_f <= cfg.stop_below_f)
                continue
            k = a.stagnation_iter + window - 1
            assert not (a.d_m if fixed else a.d)[a.stagnation_iter : k + 1].any()
            assert np.linalg.norm(a.g_exact[k]) > 10.0 * u  # n = 1
            assert b.steps == k + 1 and np.array_equal(b.g_exact, a.g_exact[: k + 1])


def digest_runs(runs) -> str:
    """sha256 of the replayable record of an ensemble: every run's iterate,
    step and rounded-gradient mantissas (exact binary64 values on lowfloat
    runs), with their dtypes and shapes."""
    h = hashlib.sha256()
    for r in runs:
        arrays = (r.x_m, r.d_m, r.g_tilde_m) if r.x_m is not None else (r.xs, r.d, r.g_tilde)
        for a in arrays:
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _rosen_fp16(**over):
    base = dict(
        objective=make_objective("rosenbrock"),
        t="2^-10",
        x0=["0", "0"],
        iterations=400,
        number_system="lowfloat",
        float_fmt="fp16e5",
        sigma1_scheme="sr",
        sigma2_scheme="sr",
    )
    base.update(over)
    return GDConfig(**base)


def _fp8_quadratic(**over):
    # fp8e5 with a non-dyadic step and coefficient (so non-dyadic draw
    # denominators), a negative coordinate that decays through the
    # subnormals to zero, and steps that round up onto binade tops
    base = dict(
        objective=make_objective("quadratic", a_diag=["1/10", 1, 3], x_star=[0, 0, 0]),
        t="0.1",
        x0=["7", "-2^-11", "0.75"],
        iterations=150,
        number_system="lowfloat",
        float_fmt="fp8e5",
    )
    base.update(over)
    return GDConfig(**base)


class TestGoldenDigests:
    """Trajectories frozen from the per-seed engine, before ensembles ran in
    lockstep; any change to a draw, a rounding or a stopping rule moves them."""

    @pytest.mark.parametrize(
        "name, want",
        [
            ("blr_stepsize.yaml", "52e6c756c1acbd2f1c53bae2d9d6ea4748fd9cab7e241ab21cefb702fc785024"),
            ("himmelblau_exact.yaml", "d38c4770e89b5405bc2cdffccb78c70a5189e06370fdeaf5aaab07a35b82bcd1"),
            ("rosenbrock_sr.yaml", "cae7a3adfde44d886ebdfe089bcbe7a978ad15128127bf7d381b641c817f55b3"),
        ],
    )
    def test_bundled_config(self, name, want):
        result = run_experiment(load_config(CONFIGS / name))
        assert digest_runs(result.runs) == want

    @pytest.mark.parametrize(
        "sigma2, want",
        [
            ("sr", "8f9a2d3348286c5b8e85ad0b3ab8be04b0b428354186d51db344aeb8bbe67c30"),
            ("sr_eps:0.4", "2bafc70851231d92e958f33cf91b3838886848f7fc387d99c2f70302cb8ff03f"),
        ],
    )
    def test_quadratic_100_seed_ensemble(self, sigma2, want):
        # the ensembles of acceptance tests 03 and 05
        cfg = GDConfig(
            objective=make_objective("quadratic", a_diag=[4, 1, "1/16"], x_star=[0, 0, 0]),
            t="1/32",
            x0=["1", "1", "1"],
            iterations=500,
            working_fmt="Q8.12",
            sigma1_scheme="sr",
            sigma2_scheme=sigma2,
        )
        assert digest_runs(run_ensemble(cfg, seeds=range(100))) == want

    @pytest.mark.parametrize(
        "sigma2, want",
        [
            ("sr", "b7036f08e03249c1647f0411113770efe64583d1de2eae6ae339d178dd1a3744"),
            ("sr_eps:0.4", "24b55a963075314dbf7c27600399c5df79ca488c804e8562e3a54ea287e9931f"),
            ("signed_sr_eps:0.1", "6bf6fa4ebd76defce8cce337e54bb4ca801831cda8a2f06d837c5f007168f87e"),
        ],
    )
    def test_lowfloat_rosenbrock(self, sigma2, want):
        cfg = _rosen_fp16(sigma2_scheme=sigma2)
        assert digest_runs(run_ensemble(cfg, seeds=range(3))) == want

    @pytest.mark.parametrize(
        "sigma1, sigma2, want",
        [
            ("rn", "sr", "595b53a0f09f06516b53673be3fa2e1388b07f1cac987f09c5e2be7a4210f221"),
            ("sr_eps:0.4", "sr", "13b020d206ad33a6c4995bd26e5a8e77c0839c0b5c489bbcc1c0c791d0b40dde"),
            ("sr", "signed_sr_eps:0.1", "dbe6ecccc54919ac40a83b1d825f3e10888f6601bfa0e9f173573fc2a5d66ab2"),
        ],
    )
    def test_lowfloat_quadratic_fp8(self, sigma1, sigma2, want):
        cfg = _fp8_quadratic(sigma1_scheme=sigma1, sigma2_scheme=sigma2)
        assert digest_runs(run_ensemble(cfg, seeds=range(4))) == want

    @pytest.mark.parametrize(
        "working, mul, sigma1, seeds, iterations, want",
        [
            # int64 rows, update steered by sign(g~)
            ("Q8.12", "Q8.6", "rn", 20, 500, "11f551cddcebacd5c1e1f00b9bbdca632ed90b0f5116d76bc981c8c9c3178e09"),
            # object rows: every draw goes through bernoulli_ratio
            ("Q8.40", "Q8.40", "sr", 5, 200, "28298e21a8b98ff382e2bbc751f1aeb12fc0ae790a77dee935f6b45b07b08e3d"),
        ],
    )
    def test_quadratic_signed_eps(self, working, mul, sigma1, seeds, iterations, want):
        cfg = GDConfig(
            objective=make_objective("quadratic", a_diag=[4, 1, "1/16"], x_star=[0, 0, 0]),
            t="1/32",
            x0=["1", "1", "1"],
            iterations=iterations,
            working_fmt=working,
            mul_fmt=mul,
            sigma1_scheme=sigma1,
            sigma2_scheme="signed_sr_eps:1/3",
        )
        assert digest_runs(run_ensemble(cfg, seeds=range(seeds))) == want


_RECORD_ARRAYS = (
    "fs", "xs", "g_exact", "g_tilde", "sigma1", "sigma2", "d", "case", "c2_mask",
    "nonopp_violations", "x_m", "g_tilde_m", "d_m",
)


def digest_records(runs) -> str:
    """sha256 of everything a run records: every RunResult array (float
    columns included) with its dtype and shape, a `name:None` marker for a
    column the number system does not record, the step count, the stagnation
    outcome and the final state.  A fixed-point run's final state is its last
    x_m row, so it is checked against that row instead of hashed."""
    h = hashlib.sha256()
    for r in runs:
        for name in _RECORD_ARRAYS:
            a = getattr(r, name)
            if a is None:
                h.update(f"{name}:None".encode())
                continue
            a = np.ascontiguousarray(a)
            h.update(f"{name}{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        h.update(f"{r.steps}/{r.stagnated}/{r.stagnation_iter}".encode())
        state = r.final_state
        if r.x_m is not None:
            assert isinstance(state, FixedVec) and np.array_equal(state.m, r.x_m[-1])
        elif isinstance(state, np.ndarray):  # reference: a float row
            h.update(f"final_state{state.dtype.str}{state.shape}".encode() + state.tobytes())
        else:  # lowfloat: grid values
            assert isinstance(state, list) and all(isinstance(v, Fraction) for v in state)
            h.update(f"final_state:{[(v.numerator, v.denominator) for v in state]}".encode())
    return h.hexdigest()


def _quad3(**over):
    base = dict(
        objective=make_objective("quadratic", a_diag=[4, 1, "1/16"], x_star=[0, 0, 0]),
        t="1/32",
        x0=["1", "1", "1"],
        iterations=500,
        working_fmt="Q8.12",
        sigma1_scheme="sr",
        sigma2_scheme="sr",
    )
    base.update(over)
    return GDConfig(**base)


class TestFullRecordDigests:
    """Every recorded column and the final state: fixed-point runs frozen
    before the float columns were derived once per run instead of once per
    iteration, lowfloat and reference runs before they joined the lockstep
    loop.  The mantissa goldens above would not see a changed float column."""

    @pytest.mark.parametrize(
        "sigma2, want",
        [
            ("sr", "8949aacb7f9b4f2243b88f88326b03c41b65bd065b7b2f8ddb1046d0be53ebb1"),
            ("sr_eps:0.4", "5fd56c4a534805763b542aac1904d9428a1dc9af723cc2e1b9532aac9c4c55f1"),
        ],
    )
    def test_quadratic_100_seed_ensemble(self, sigma2, want):
        cfg = _quad3(sigma2_scheme=sigma2)
        assert digest_records(run_ensemble(cfg, seeds=range(100))) == want

    @pytest.mark.parametrize(
        "over, want",
        [
            (dict(seed=7), "2a87ddb387b6c265ce4dce949ef10105c4550773b1edd34ee18bc16333498ace"),
            # update steered by sign(g~) onto a coarser grid
            (
                dict(seed=3, mul_fmt="Q8.6", sigma2_scheme="signed_sr_eps:1/3"),
                "5ca7f48b1ad75869acaee4bfe008f0a07b363a58462ec4a6fbccda3fad5227de",
            ),
            # object rows: every draw goes through bernoulli_ratio
            (
                dict(seed=5, working_fmt="Q8.40", iterations=200),
                "1925cb190bc16d41e85fd425a26f10df5330253ba0cb903f0df3a52715fbd497",
            ),
        ],
    )
    def test_one_seed_quadratic(self, over, want):
        assert digest_records([run(_quad3(**over))]) == want

    @pytest.mark.parametrize(
        "over, seeds, want",
        [
            # int64 rows (`_round_rows`)
            (dict(), 3, "aa28fd8f8a4523aa43830cff5c5a3d06594a2528663172e216c43a6afd372118"),
            # one lane: the gradient recipe rounds on Python ints (`_round_list`)
            (dict(), 1, "6a486e12b6444bc6933282bc68806709a8d8258277fd5b420b233db18949f3b9"),
            # object rows: every draw goes through bernoulli_ratio
            (
                dict(working_fmt="Q8.40", mul_fmt="Q8.40"), 2,
                "681cb2df7b3bdfab1220e54b0edf299ed3005cc1cf35c2d088c24e6724a74373",
            ),
        ],
    )
    def test_quadratic_signed_eps_sigma1(self, over, seeds, want):
        # the gradient recipe passes no sign: signed_sr_eps leans by s = 0
        cfg = _quad3(
            **{"mul_fmt": "Q8.6", "iterations": 60, "sigma1_scheme": "signed_sr_eps:1/3", **over}
        )
        assert digest_records(run_ensemble(cfg, seeds=range(seeds))) == want

    def test_float_eps_runs_as_its_exact_value(self):
        # a float eps is read at its binary64 value, and 0.25 is exactly 1/4
        def digest(scheme):
            cfg = _quad3(sigma1_scheme=scheme, iterations=40)
            return digest_records(run_ensemble(cfg, seeds=range(2)))

        assert digest(RoundScheme("sr_eps", 0.25)) == digest("sr_eps:1/4")

    def test_blr_signed_eps_sigma1(self):
        # the logistic values round through `round_doubles_vec` with lean 0
        ds = synthetic_blr_dataset(n_samples=40, n_features=3, seed=7)
        cfg = GDConfig(
            objective=make_objective("blr", x_data=ds.x, y=ds.y, data_fmt=QFormat(8, 8)),
            t="1/4",
            x0=["0", "0", "0"],
            iterations=15,
            working_fmt="Q8.8",
            sigma1_scheme="signed_sr_eps:0.25",
            sigma2_scheme="sr",
        )
        want = "a1e903b54162c9502dc25a672971577100cae7bc3c69e77981c31891c23aae72"
        assert digest_records(run_ensemble(cfg, seeds=range(2))) == want

    @pytest.mark.parametrize(
        "name, want",
        [
            ("blr_stepsize.yaml", "f961af8767ee97011ee4480215bade7f1c4cfc28079a92fdc5a57a4c759eb78a"),
            ("himmelblau_exact.yaml", "29ed780875cb3cc7be2a2c67afe92687e3dafc0baed025f0084e64a39114625c"),
            ("rosenbrock_fp16.yaml", "4a35a75df83adb514c23c69776033d52a728c4777f5e94886814ab499835035d"),
        ],
    )
    def test_bundled_config(self, name, want):
        result = run_experiment(load_config(CONFIGS / name))
        assert digest_records(result.runs) == want

    @pytest.mark.parametrize(
        "over, want",
        [
            # one seed: the gradient recipe runs on Python-int iterates
            (dict(seeds=[4]), "4486a2078547fdc28f231440fb3b4fb80a449e0011047f50a3dcf0a1b2e7d4d3"),
            (
                dict(sigma1="sr_eps:0.4", seeds=[0, 1, 2]),
                "08fbcc0ec4d49addd255691230aec691a47ba3bc4efded9f008d1558b8a9e981",
            ),
            (dict(sigma1="rn", seeds=[0, 1]), "bd2285d3cc96304544a09558e06c8e974fb61a3527cf67a9add1aed0a8cd6276"),
        ],
    )
    def test_blr(self, over, want):
        spec = replace(
            load_config(CONFIGS / "blr_stepsize.yaml"), iterations=100, stop_below_f=None, **over
        )
        assert digest_records(run_experiment(spec).runs) == want

    @pytest.mark.parametrize(
        "sigma1, sigma2, want",
        [
            ("rn", "sr", "869a9a47d73e00328448671f5f613594a729662ea696ca55a3287faaeb956348"),
            ("sr_eps:0.4", "sr", "b0d643d5f89bb5e96025f82252816a3ea2c23a0b152437944f1d0f8695203e57"),
            ("sr", "signed_sr_eps:0.1", "ed98a296cb483e202dafa3472580e95d39fd831589fb218f4ddc92883fe7d205"),
        ],
    )
    def test_lowfloat_quadratic_fp8(self, sigma1, sigma2, want):
        cfg = _fp8_quadratic(sigma1_scheme=sigma1, sigma2_scheme=sigma2)
        assert digest_records(run_ensemble(cfg, seeds=range(4))) == want

    def test_lowfloat_quadratic_60_bit_significands(self):
        # grid values reach 60-bit significands, which binary64 cannot hold:
        # the float columns must come from one correct rounding of each
        # exact value, where fp8e5 and fp16e5 values are all exact in binary64
        cfg = _fp8_quadratic(
            float_fmt=FloatFormat(60, 4), x0=["7", "-2^-5", "0.75"], iterations=60,
            sigma2_scheme="sr_eps:0.4",
        )
        runs = run_ensemble(cfg, seeds=[0, 1])
        assert max(v.numerator.bit_length() for r in runs for v in r.final_state) == 60
        want = "1473bbe295f87d6091696b5ad7988526e03fa1a4c659022206c169b9c3ccd67e"
        assert digest_records(runs) == want

    @pytest.mark.parametrize(
        "over, seeds, steps, want",
        [
            (dict(stop_below_f=0.5), 3, [200, 199, 199], "44c75d3067e42f9b3cf56daa6b0e6576ae70e10853e4a6ab06968580916d48a1"),
            # zero updates from tiny steps at (1/2, 1/2), while |grad f| is large
            (
                dict(t="2^-20", x0=["1/2", "1/2"], sigma1_scheme="rn", sigma2_scheme="sr_eps:0.1",
                     stagnation_window=5, stop_on_stagnation=True),
                4, [7, 16, 22, 5], "eb358af22d72be3097ce2c3157d5712b7e637b9189090df3af9876e6677df5c1",
            ),
        ],
    )
    def test_lowfloat_rosenbrock_stops(self, over, seeds, steps, want):
        runs = run_ensemble(_rosen_fp16(**over), seeds=range(seeds))
        assert [r.steps for r in runs] == steps
        assert digest_records(runs) == want

    def test_reference_quadratic(self):
        runs = run_ensemble(_quad3(number_system="reference", working_fmt=None), seeds=range(3))
        assert digest_records(runs) == "408800378ee8380d287132e84fac385fca35942d75397c0ec45efa6580569e46"

    def test_reference_rosenbrock_stops_below_f(self):
        cfg = _rosen_fp16(number_system="reference", float_fmt=None, iterations=1000, stop_below_f=0.3)
        [res] = run_ensemble(cfg, seeds=[0])
        assert res.steps == 406
        assert digest_records([res]) == "ec71c61ea3df9b35d6818523a365cff3f73467ade96f0720e281f1d0e579df26"

    def test_stagnating_lanes(self):
        # sr updates of mean 4|g_i| grid points onto Q8.8 with t = 1/64: a
        # 4-step zero streak comes while |g| is still above 10 sqrt(n) u, at
        # a step set by each lane's draws
        cfg = _quad3(
            t="1/64",
            x0=["1/32", "1/8", "2"],
            iterations=300,
            mul_fmt="Q8.8",
            stagnation_window=4,
            stop_on_stagnation=True,
        )
        runs = run_ensemble(cfg, seeds=range(8))
        assert all(r.stagnated for r in runs) and len({r.steps for r in runs}) > 1
        assert digest_records(runs) == "c1bd47e71cf06dc786ce69c97d3d2b00e7a80de3bf960f6395e624d569260905"


# every reference run, and rn/rn in the rounding systems: no run draws a word
_DRAW_FREE = {
    "reference": lambda **o: _quad3(number_system="reference", working_fmt=None, **o),
    "fixed": lambda **o: _quad3(sigma1_scheme="rn", sigma2_scheme="rn", **o),
    "lowfloat": lambda **o: _rosen_fp16(sigma1_scheme="rn", sigma2_scheme="rn", **o),
}


@pytest.mark.parametrize("system", sorted(_DRAW_FREE))
class TestDrawFreeEnsembles:
    """Seeds address draws and nothing else: an ensemble that draws no word
    is its one-seed run for every seed, each result under its own config."""

    SEEDS = [4, 0, 9]

    def test_each_seed_is_its_one_seed_run(self, system):
        cfg = _DRAW_FREE[system](iterations=120, stop_below_f=1e-3)
        for seed, res in zip(self.SEEDS, run(cfg, seeds=self.SEEDS)):
            assert res.config == replace(cfg, seed=seed)
            assert digest_records([res]) == digest_records([run(replace(cfg, seed=seed))])

    def test_the_objective_sees_one_lane(self, system):
        calls = []
        cfg = _DRAW_FREE[system](iterations=60, stop_below_f=1e-3)
        cfg = replace(cfg, objective=_counted(cfg.objective, calls))
        run(replace(cfg, seed=4))
        alone = calls.copy()
        calls.clear()
        runs = run(cfg, seeds=self.SEEDS)
        assert calls == alone
        # f at one row per step for stop_below_f, and once over one lane's rows
        n, steps = cfg.objective.n, runs[0].steps
        assert calls.count(("f", (1, n))) == steps > 0 and ("f", (steps + 1, n)) in calls

    def test_each_seed_owns_its_record(self, system):
        runs = run(_DRAW_FREE[system](iterations=30), seeds=self.SEEDS)
        want = [digest_records([r]) for r in runs]
        for name in _RECORD_ARRAYS:
            a = getattr(runs[0], name)
            if a is not None:
                a[...] = 0
        state = runs[0].final_state
        if isinstance(state, list):
            state[:] = [Fraction(0)] * len(state)
        else:
            (state.m if isinstance(state, FixedVec) else state)[...] = 0
        assert [digest_records([r]) for r in runs[1:]] == want[1:]

    @pytest.mark.parametrize("seed", [2**64, -1, True])
    def test_bad_seeds_raise_as_in_a_drawing_ensemble(self, system, seed):
        with pytest.raises(ValueError) as drawing:
            run(_quad3(iterations=3), seeds=[0, seed])
        with pytest.raises(ValueError) as draw_free:
            run(_DRAW_FREE[system](iterations=3), seeds=[0, seed])
        assert str(draw_free.value) == str(drawing.value)


# ---------------------------------------------------------------------------
# lockstep ensembles against one-seed runs
# ---------------------------------------------------------------------------

def outcome_of_sequential(cfg, seeds):
    """What running the seeds one after another gives: the results, or the
    (type, message) of the first seed whose run raises."""
    out = []
    for s in seeds:
        try:
            out.append(run(replace(cfg, seed=s)))
        except Exception as exc:
            return type(exc), str(exc)
    return out


def outcome_of_ensemble(cfg, seeds):
    try:
        return run_ensemble(cfg, seeds)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_outcome(cfg, seeds):
    want = outcome_of_sequential(cfg, seeds)
    got = outcome_of_ensemble(cfg, seeds)
    if isinstance(want, tuple):
        assert want[0] in (OverflowError, ValueError), want  # the engine's hard errors
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert len(got) == len(want)
    for s, a, b in zip(seeds, got, want):
        assert a.config.seed == b.config.seed == s
        for name in _RECORD_ARRAYS:
            x, y = getattr(a, name), getattr(b, name)
            if x is None or y is None:  # mantissa columns of lowfloat and reference runs
                assert x is y is None and cfg.number_system != "fixed", (s, name)
                continue
            assert x.dtype == y.dtype and x.shape == y.shape, (s, name)
            assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), (s, name)
        assert (a.steps, a.stagnated, a.stagnation_iter) == (b.steps, b.stagnated, b.stagnation_iter)
        assert_same_final_state(cfg, a, b)


def assert_same_final_state(cfg, a, b):
    """Both runs end at the same iterate, of the type the number system
    returns, and it is the iterate of the last recorded row."""
    sa, sb = a.final_state, b.final_state
    if cfg.number_system == "fixed":
        assert isinstance(sa, FixedVec) and isinstance(sb, FixedVec) and sa.fmt == sb.fmt
        sa, sb = sa.m, sb.m
        assert np.array_equal(sa, a.x_m[-1])
    elif cfg.number_system == "lowfloat":
        assert type(sa) is type(sb) is list
        assert all(type(v) is Fraction for v in sa + sb) and sa == sb
        assert np.array_equal([float(v) for v in sa], a.xs[-1])
        return
    assert sa.shape == sb.shape == (cfg.objective.n,) and sa.dtype == sb.dtype
    assert np.array_equal(sa, sb, equal_nan=True)
    if cfg.number_system == "reference":
        assert sa.dtype == np.float64 and np.array_equal(sa, a.xs[-1], equal_nan=True)


_PROBLEMS = {
    "quadratic": (
        lambda: make_objective("quadratic", a_diag=[1, "1/3"], x_star=["1/2", "-1/4"]),
        ["1", "-1/2"],
        ["1/4", "1/2"],
    ),
    "rosenbrock": (lambda: make_objective("rosenbrock"), ["1/2", "1/4"], ["2^-8", "2^-6"]),
    "himmelblau": (lambda: make_objective("himmelblau"), ["5/2", "3/2"], ["3/250", "1/64"]),
}
_FORMATS = [
    ("Q8.8", None), ("Q6.10", "Q10.6"), ("Q4.12", None), ("Q8.24", "Q12.20"),
    ("Q8.40", None), ("Q2.60", None), ("Q3.4", None),
    # lanes step on object arrays: d_m << 1 may leave int64 (`_Fixed.wide_step`),
    # and g_m * tn may too at Himmelblau's t = 3/250 (`FixedBackend._times`)
    ("Q7.56", "Q8.55"),
]
_SCHEMES = ["rn", "sr", "sr_eps:0.4", "signed_sr_eps:1/3"]


@st.composite
def lockstep_cases(draw):
    make, x0, steps = _PROBLEMS[draw(st.sampled_from(sorted(_PROBLEMS)))]
    system = draw(st.sampled_from(["fixed", "lowfloat", "reference"]))
    formats = {}
    if system == "fixed":
        working, mul = draw(st.sampled_from(_FORMATS))
        formats = dict(working_fmt=working, mul_fmt=mul)
    elif system == "lowfloat":  # every x0 above is on both grids
        formats = dict(float_fmt=draw(st.sampled_from(["fp8e5", "fp16e5"])))
    cfg = GDConfig(
        objective=make(),
        t=draw(st.sampled_from(steps)),
        x0=x0,
        iterations=draw(st.integers(0, 25)),
        number_system=system,
        **formats,
        sigma1_scheme=draw(st.sampled_from(_SCHEMES)),
        sigma2_scheme=draw(st.sampled_from(_SCHEMES)),
        stop_below_f=draw(st.sampled_from([None, 1e-3, 1e-6])),
        stop_on_stagnation=draw(st.booleans()),
        stagnation_window=draw(st.sampled_from([2, 3, 50])),
    )
    seeds = draw(st.lists(st.integers(0, 12), min_size=1, max_size=5))
    return cfg, seeds


class TestLockstepEnsembles:
    # about 100 examples per number system
    @settings(max_examples=300, deadline=None)
    @given(lockstep_cases())
    def test_ensemble_equals_one_seed_runs(self, case):
        cfg, seeds = case
        assert_same_outcome(cfg, seeds)

    @pytest.mark.parametrize("spec", ["sr", "sr_eps:0.4", "signed_sr_eps:1/3"])
    def test_wide_update_on_lanes_and_one_lane(self, spec):
        cfg = GDConfig(
            objective=make_objective("himmelblau"), t="3/250", x0=["5/2", "3/2"],
            iterations=8, working_fmt="Q7.56", mul_fmt="Q8.55",
            sigma1_scheme="sr", sigma2_scheme=spec,
        )
        system = _Fixed(cfg)
        assert -cfg.working_fmt.min_mantissa * cfg.t.numerator >= 2**63 and system.wide_step
        assert_same_outcome(cfg, [3, 0, 7])

    def test_duplicate_seeds_replay_the_same_run(self):
        cfg = quad_config(iterations=20, sigma1_scheme="sr", sigma2_scheme="sr")
        a, b, c = run_ensemble(cfg, [5, 6, 5])
        assert np.array_equal(a.x_m, c.x_m) and not np.array_equal(a.x_m, b.x_m)

    def test_lanes_stop_below_f_at_different_steps(self):
        cfg = GDConfig(
            objective=make_objective("himmelblau"),
            t="0.012",
            x0=["2.5", "1.5"],
            iterations=1500,
            working_fmt="Q8.8",
            sigma1_scheme="sr",
            sigma2_scheme="sr",
            stop_below_f=1e-28,
        )
        seeds = list(range(8))
        runs = run_ensemble(cfg, seeds)
        assert len({r.steps for r in runs}) > 1
        assert all(r.final_f == 0.0 for r in runs)
        assert_same_outcome(cfg, seeds)

    def test_lanes_stagnate_independently(self):
        # t g = (13/32) u at the start, so each step is zero with chance
        # 19/32: some lanes see a 4-step zero streak while the gradient is
        # still above 10 u and stop there, at different steps, and others
        # reach 10 u first and never stagnate
        cfg = quad_config(
            x0=["13/256"],
            t="1/32",
            iterations=60,
            sigma1_scheme="rn",
            sigma2_scheme="sr",
            stagnation_window=4,
            stop_on_stagnation=True,
        )
        seeds = list(range(10))
        runs = run_ensemble(cfg, seeds)
        assert {r.stagnated for r in runs} == {True, False}
        assert len({r.steps for r in runs if r.stagnated}) > 1
        assert_same_outcome(cfg, seeds)

    @pytest.mark.parametrize(
        "over, seeds",
        [
            # seeds 3 and 7 reach f = 0 at step 13, seed 6 alone at step 16
            (dict(objective=make_objective("himmelblau"), t="0.012", x0=["5/2", "3/2"],
                  iterations=1500, sigma1_scheme="sr", stop_below_f=1e-28), [3, 7, 6]),
            # seed 2 stagnates at step 4, seed 0 alone at step 11 (see the test above)
            (dict(x0=["13/256"], t="1/32", iterations=60, stagnation_window=4,
                  stop_on_stagnation=True), [2, 0]),
        ],
        ids=["stop_below_f", "stop_on_stagnation"],
    )
    def test_last_live_lane_steps_alone_to_its_stop(self, monkeypatch, over, seeds):
        cfg = quad_config(sigma2_scheme="sr", **over)
        states, step = [], _Fixed.step

        def recording_step(self, x, streams, k):
            states.append((len(streams), type(x)))
            return step(self, x, streams, k)

        monkeypatch.setattr(_Fixed, "step", recording_step)
        steps = sorted(r.steps for r in run_ensemble(cfg, seeds))
        # the batch steps as lanes until one is left, which steps on its list
        # of Python ints until it stops too, before the budget runs out
        assert steps[-2] < steps[-1] < cfg.iterations
        alone = steps[-1] - steps[-2]
        assert states[-alone:] == [(1, list)] * alone
        assert all(n > 1 and kind is FixedVec for n, kind in states[:-alone])
        assert_same_outcome(cfg, seeds)

    def test_object_path_on_some_lanes_only(self):
        # Q2.60: the update product g_m * 2^60 reaches 2^62 once |g_m| >= 4,
        # so near the minimum some lanes round through the object path and
        # others through int64 at the same iteration
        cfg = quad_config(
            x0=["2^-56"],
            t="1/4",
            iterations=12,
            working_fmt="Q2.60",
            sigma1_scheme="sr",
            sigma2_scheme="sr",
        )
        seeds = list(range(12))
        runs = run_ensemble(cfg, seeds)
        big = np.array([np.abs(r.g_tilde_m).max(axis=1) >= 4 for r in runs])
        assert (big.any(axis=0) & ~big.all(axis=0)).any()
        assert_same_outcome(cfg, seeds)

    @pytest.mark.parametrize("seeds", [[0, 9, 1, 4, 8, 2], [0, 4, 1, 9], [8, 9]])
    def test_failing_lane_raises_the_first_failing_seeds_error(self, seeds):
        # x -> x - round(35/16 x) grows by ~1.19 per step; whether a lane
        # leaves Q2.4 within 14 steps depends on its draws
        cfg = quad_config(
            x0=["1/16"], t="35/16", iterations=14, working_fmt="Q2.4",
            sigma1_scheme="sr", sigma2_scheme="sr",
        )
        messages = {}
        for s in seeds:
            try:
                run(replace(cfg, seed=s))
            except OverflowError as exc:
                messages[s] = str(exc)
        assert 0 < len(messages) < len(seeds) or seeds == [8, 9]
        first = next(s for s in seeds if s in messages)
        with pytest.raises(OverflowError) as err:
            run_ensemble(cfg, seeds)
        assert str(err.value) == messages[first]
        assert_same_outcome(cfg, seeds)

    def test_batch_only_failure_reruns_each_seed_alone(self, monkeypatch):
        class Sentinel(Exception):
            pass

        step = _Fixed.step

        def batch_only_step(self, x, streams, k):
            if len(streams) > 1 and k == 3:
                raise Sentinel
            return step(self, x, streams, k)

        monkeypatch.setattr(_Fixed, "step", batch_only_step)
        calls = _count_batches(monkeypatch)
        with pytest.raises(Sentinel):
            run_ensemble(quad_config(sigma1_scheme="sr", sigma2_scheme="sr"), [4, 1, 7])
        assert calls == [3, 1, 1, 1]

    def test_failing_one_seed_run_is_not_rerun(self, monkeypatch):
        # seed 8 leaves Q2.4 within 14 steps (see the test above)
        cfg = quad_config(
            x0=["1/16"], t="35/16", iterations=14, working_fmt="Q2.4",
            sigma1_scheme="sr", sigma2_scheme="sr", seed=8,
        )
        calls = _count_batches(monkeypatch)
        with pytest.raises(OverflowError):
            run_ensemble(cfg, [8])
        with pytest.raises(OverflowError):
            run(cfg)
        assert calls == [1, 1]

    def test_empty_seed_list(self):
        assert run_ensemble(quad_config(), []) == []


def _count_batches(monkeypatch) -> list:
    """Record the lane count of every `_run_lanes` call from here on."""
    calls, run_lanes = [], gdengine._run_lanes
    monkeypatch.setattr(
        gdengine, "_run_lanes", lambda cfgs: calls.append(len(cfgs)) or run_lanes(cfgs)
    )
    return calls
