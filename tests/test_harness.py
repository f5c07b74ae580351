"""Tests for datasets, experiment configs, summaries, and trace outputs."""

import csv
import os
import struct
import subprocess
import sys
import textwrap
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

import lpgd
from lpgd import harness
from lpgd.harness import (
    ConfigError,
    ExperimentSpec,
    build_objective,
    idx_blr_dataset,
    load_config,
    load_idx_images,
    load_idx_labels,
    run_experiment,
    summarize,
    synthetic_blr_dataset,
    write_svg_curves,
    write_trace_csv,
)
from lpgd.qnum import QFormat


def tiny_spec(**over):
    raw = {
        "name": "tiny",
        "objective": {"name": "quadratic", "a_diag": [1, 1], "x_star": [0, 0]},
        "t": "1/4",
        "x0": ["1", "1"],
        "iterations": 5,
        "working_fmt": "Q8.8",
        "sigma1": "sr",
        "sigma2": "sr",
        "seeds": 2,
    }
    raw.update(over)
    return ExperimentSpec.from_dict(raw)


class TestSyntheticDataset:
    def test_reproducible_by_seed(self):
        a = synthetic_blr_dataset(n_samples=40, n_features=5, seed=7)
        b = synthetic_blr_dataset(n_samples=40, n_features=5, seed=7)
        c = synthetic_blr_dataset(n_samples=40, n_features=5, seed=8)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.x, c.x)

    def test_shapes_and_labels(self):
        ds = synthetic_blr_dataset(n_samples=41, n_features=3, seed=0)
        assert ds.x.shape == (41, 3)
        assert ds.y.shape == (41,)
        assert set(np.unique(ds.y)) == {0.0, 1.0}
        assert ds.y.sum() == 21  # odd count: the larger half is labeled 1

    def test_separation_scales_center_distance(self):
        near = synthetic_blr_dataset(n_samples=200, n_features=4, seed=1, separation=0.5)
        far = synthetic_blr_dataset(n_samples=200, n_features=4, seed=1, separation=8.0)
        gap_near = np.linalg.norm(near.x[near.y == 1].mean(0) - near.x[near.y == 0].mean(0))
        gap_far = np.linalg.norm(far.x[far.y == 1].mean(0) - far.x[far.y == 0].mean(0))
        assert gap_far > gap_near + 4


class TestIdxFiles:
    def _write_idx(self, tmp_path, pixels, labels):
        n, r, c = pixels.shape
        img_path = tmp_path / "imgs.idx3"
        lab_path = tmp_path / "labs.idx1"
        img_path.write_bytes(
            struct.pack(">IIII", 0x00000803, n, r, c) + pixels.astype(np.uint8).tobytes()
        )
        lab_path.write_bytes(
            struct.pack(">II", 0x00000801, n) + labels.astype(np.uint8).tobytes()
        )
        return img_path, lab_path

    def test_roundtrip(self, tmp_path):
        pixels = np.arange(16, dtype=np.uint8).reshape(4, 2, 2) * 10
        labels = np.array([0, 1, 1, 3], dtype=np.uint8)
        img_path, lab_path = self._write_idx(tmp_path, pixels, labels)
        imgs = load_idx_images(img_path)
        assert imgs.shape == (4, 4)
        assert np.array_equal(imgs[1], pixels[1].reshape(-1))
        assert np.array_equal(load_idx_labels(lab_path), labels)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.idx3"
        p.write_bytes(struct.pack(">IIII", 0x12345678, 0, 0, 0))
        with pytest.raises(ValueError):
            load_idx_images(p)
        lp = tmp_path / "bad.idx1"
        lp.write_bytes(struct.pack(">II", 0x00000803, 0))
        with pytest.raises(ValueError):
            load_idx_labels(lp)

    def test_size_mismatch(self, tmp_path):
        p = tmp_path / "short.idx3"
        p.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 7)
        with pytest.raises(ValueError):
            load_idx_images(p)

    def test_binary_dataset_selection(self, tmp_path):
        pixels = np.zeros((6, 2, 2), dtype=np.uint8)
        pixels[1] = 200  # bright image
        pixels[3] = 120  # just below the 0.5 threshold (127.5)
        labels = np.array([0, 1, 2, 1, 0, 5], dtype=np.uint8)
        img_path, lab_path = self._write_idx(tmp_path, pixels, labels)
        ds = idx_blr_dataset(img_path, lab_path, digits=(0, 1), max_samples=None)
        assert len(ds.x) == 4  # digits 0 and 1 only
        assert set(np.unique(ds.x)) <= {0.0, 1.0}
        assert ds.y.tolist() == [0.0, 1.0, 1.0, 0.0]
        assert ds.x[1].tolist() == [1.0, 1.0, 1.0, 1.0]
        assert ds.x[2].tolist() == [0.0, 0.0, 0.0, 0.0]  # 120 < threshold
        capped = idx_blr_dataset(img_path, lab_path, digits=(0, 1), max_samples=2)
        assert len(capped.x) == 2


class TestSpec:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            tiny_spec(stepsize="0.1")

    def test_missing_keys_named(self):
        raw = {"name": "tiny", "objective": {"name": "quadratic", "a_diag": [1], "x_star": [0]}}
        with pytest.raises(ValueError, match=r"missing config keys: \['t', 'x0', 'iterations'\]"):
            ExperimentSpec.from_dict(raw)

    def test_seed_count_expands_to_range(self):
        assert tiny_spec(seeds=3).seeds == [0, 1, 2]
        assert tiny_spec(seeds=[5, 9]).seeds == [5, 9]

    @pytest.mark.parametrize("seeds", [0, -2, []])
    def test_empty_seed_list_rejected(self, seeds):
        # an empty ensemble used to die in summarize, after the config was accepted
        with pytest.raises(ValueError, match="seeds"):
            tiny_spec(seeds=seeds)

    @pytest.mark.parametrize("seeds", [True, False])
    def test_boolean_seeds_rejected(self, seeds):
        # True used to count as one seed, [0]
        with pytest.raises(ValueError, match="seeds must be a count or a list"):
            tiny_spec(seeds=seeds)

    @pytest.mark.parametrize(
        "seeds",
        ["3", 2.0, [1, "2"], [1.5], [True], [-1], [2**64]],
        ids=["text", "float", "text-entry", "float-entry", "bool-entry", "negative", "past-uint64"],
    )
    def test_malformed_seeds_rejected(self, seeds):
        # "3" and 2.0 used to load, then die mid-run with a TypeError
        with pytest.raises(ValueError, match="seeds must be a count or a list"):
            tiny_spec(seeds=seeds)

    @pytest.mark.parametrize(
        "x0", ["00", "1", 1, 0.5, [["1", "1"]]], ids=["text", "char", "int", "float", "nested"]
    )
    def test_text_or_scalar_x0_rejected(self, x0):
        # "00" used to become ['0', '0'], one coordinate per character
        with pytest.raises(ValueError, match="x0 must be a list of coordinates"):
            tiny_spec(x0=x0)

    @pytest.mark.parametrize(
        "line, field",
        [("x0: 1", "x0"), ('x0: "12"', "x0"), ("seeds: true", "seeds"), ('seeds: "3"', "seeds")],
    )
    def test_load_config_names_a_malformed_field(self, tmp_path, line, field):
        # YAML x0: 1 used to die with "'int' object is not iterable"
        text = 'name: demo\nobjective: {name: quadratic, a_diag: [2, 2]}\nt: "1/8"\niterations: 3\n'
        if field != "x0":
            text += 'x0: ["1", "1"]\n'
        p = tmp_path / "cfg.yaml"
        p.write_text(text + line + "\n")
        with pytest.raises(ValueError, match=f"^{field} must be"):
            load_config(p)

    @pytest.mark.parametrize("window", [0, -3])
    def test_stagnation_window_below_one_rejected(self, window):
        with pytest.raises(ValueError, match="stagnation_window"):
            run_experiment(tiny_spec(stagnation_window=window))

    def test_zero_denominator_step_is_a_value_error(self):
        with pytest.raises(ValueError, match="'1/0'"):
            run_experiment(tiny_spec(t="1/0"))

    def test_numbers_kept_as_strings(self):
        spec = tiny_spec(t=0.25, x0=[1, 1])
        assert spec.t == "0.25"
        assert spec.x0 == ["1", "1"]

    def test_load_config_yaml(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text(
            "name: demo\n"
            "objective: {name: quadratic, a_diag: [2], x_star: [0]}\n"
            't: "1/8"\n'
            'x0: ["1"]\n'
            "iterations: 3\n"
            "working_fmt: Q8.8\n"
            "seeds: 2\n"
        )
        spec = load_config(p)
        assert spec.name == "demo"
        assert spec.seeds == [0, 1]

    def test_load_config_rejects_non_mapping(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("- just\n- a list\n")
        with pytest.raises(ValueError):
            load_config(p)

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "no such config file: "),
            ("", "cannot read config file "),  # a directory
            ("name: [demo\n", "is not valid YAML: "),
            ("- a list\n", "does not hold a config mapping"),
        ],
        ids=["missing", "unreadable", "yaml-syntax", "not-a-mapping"],
    )
    def test_load_config_faults_are_config_errors(self, tmp_path, text, message):
        p = tmp_path / "cfg.yaml"
        if text == "":
            p.mkdir()
        elif text is not None:
            p.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(p)

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"stepsize": "0.1"}, "unknown config keys"),
            ({"seeds": "3"}, "seeds must be"),
            ({"x0": "11"}, "x0 must be a list"),
            ({"objective": "quadratic"}, "objective must be a mapping with a name, got 'quadratic'"),
            ({"objective": {"a_diag": [1, 1]}}, "objective must be a mapping with a name"),
            ({"t": "bad"}, "t must be a rational number, got 'bad'"),
            ({"sigma1": "sr_eps:abc"}, "sigma1 must be rn, sr, "),
            ({"x0": ["1", "x"]}, "x0 entry must be a rational number, got 'x'"),
            ({"x0": ["1", "1/3"]}, "x0 entry 1/3 is not on the Q8.8 grid"),
            ({"stop_on_stagnation": "false"}, "stop_on_stagnation must be true or false"),
        ],
    )
    def test_from_dict_faults_are_config_errors(self, over, message):
        # from_dict runs the run-field checks run_experiment runs, x0's entries included
        with pytest.raises(ConfigError, match=f"^{message}"):
            tiny_spec(**over)


class TestBuildAndRun:
    def test_build_quadratic(self):
        obj = build_objective(tiny_spec())
        assert obj.name == "quadratic" and obj.n == 2

    def test_blr_data_fmt_defaults_to_working(self):
        spec = tiny_spec(
            objective={
                "name": "blr",
                "dataset": {"kind": "synthetic", "n_samples": 20, "n_features": 3, "seed": 1},
            },
            working_fmt="Q15.8",
            x0=["0", "0", "0"],
        )
        obj = build_objective(spec)
        assert obj.n == 3
        # the fixed path accepts iterates in the working format, proving the
        # dataset was quantized onto it
        from lpgd.qnum import FixedVec
        from lpgd.rounding import parse_scheme

        obj.grad_rounded_fixed(
            FixedVec(np.zeros(3, np.int64), QFormat(15, 8)), parse_scheme("rn"), None, 0
        )

    @pytest.mark.parametrize("system", ["reference", "lowfloat"])
    def test_blr_without_a_fixed_point_format(self, system):
        spec = tiny_spec(
            objective={
                "name": "blr",
                "dataset": {"kind": "synthetic", "n_samples": 20, "n_features": 3, "seed": 1},
            },
            number_system=system,
            working_fmt=None,
            float_fmt="fp16e5" if system == "lowfloat" else None,
            x0=["0", "0", "0"],
            iterations=3,
        )
        assert build_objective(spec).n == 3
        if system == "lowfloat":  # blr's recipe is fixed point only
            with pytest.raises(NotImplementedError):
                run_experiment(spec)
            return
        runs = run_experiment(spec).runs
        assert [r.steps for r in runs] == [3, 3]
        assert runs[0].final_f == runs[1].final_f < runs[0].fs[0]

    def test_unknown_dataset_kind(self):
        spec = tiny_spec(objective={"name": "blr", "dataset": {"kind": "csv"}})
        with pytest.raises(ValueError):
            build_objective(spec)

    @pytest.mark.parametrize(
        "field, value",
        [("stop_on_stagnation", "false"), ("iterations", True), ("stop_below_f", "low")],
    )
    def test_run_fields_fail_before_the_objective_is_built(self, monkeypatch, field, value):
        # a blr objective loads its dataset and SciPy: a bad run field must stop first
        spec = load_config(Path(__file__).resolve().parents[1] / "configs" / "blr_stepsize.yaml")
        setattr(spec, field, value)
        built = []
        monkeypatch.setattr(harness, "build_objective", lambda s: built.append(s))
        with pytest.raises(ValueError, match=f"^{field} must be") as err:
            run_experiment(spec)
        assert built == []
        assert isinstance(err.value, ConfigError)

    def test_objective_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="^blr: unknown dataset kind 'csv'$"):
            run_experiment(tiny_spec(objective={"name": "blr", "dataset": {"kind": "csv"}}))

    def test_run_experiment_and_summary(self):
        result = run_experiment(tiny_spec())
        assert len(result.runs) == 2
        curve = result.mean_f_curve()
        assert curve.shape == (6,)
        assert curve[-1] < curve[0]
        s = summarize(result)
        for key in (
            "name",
            "objective",
            "runs",
            "steps_min",
            "steps_max",
            "final_f_mean",
            "case_histogram",
            "stagnated_runs",
            "nonopposite_violations",
            "final_gap_mean",
        ):
            assert key in s, key
        assert s["runs"] == 2
        assert sum(s["case_histogram"].values()) == sum(r.steps for r in result.runs)

    def test_mean_curve_truncates_to_shortest_run(self):
        result = run_experiment(tiny_spec(stop_below_f=1e-2, iterations=60, seeds=3))
        k = min(r.steps for r in result.runs)
        assert result.mean_f_curve().shape == (k + 1,)


class TestOutputs:
    def test_trace_csv_columns_and_rows(self, tmp_path):
        result = run_experiment(tiny_spec())
        path = tmp_path / "trace.csv"
        write_trace_csv(result, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "k",
            "f",
            "case",
            "gamma",
            "theta",
            "max_abs_sigma1_over_u",
            "num_c2",
            "nonopposite_violations",
        ]
        assert len(rows) - 1 == result.runs[0].steps
        assert rows[1][0] == "0"

    def test_svg_smoke(self, tmp_path):
        path = tmp_path / "curves.svg"
        write_svg_curves(
            path,
            {"a": np.array([1.0, 0.5, 0.25]), "b": np.array([1.0, 0.8, 0.6])},
            title="demo",
        )
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert "demo" in text and "iteration" in text

    def test_svg_escapes_title_and_labels(self, tmp_path):
        # `lpgd run` passes the config's name as the title
        path = tmp_path / "curves.svg"
        write_svg_curves(path, {"sr <a> & b": np.array([1.0, 0.5])}, title="quad <sr> & eps")
        texts = [
            node.firstChild.data
            for node in xml.dom.minidom.parse(str(path)).getElementsByTagName("text")
        ]
        assert "quad <sr> & eps" in texts and "sr <a> & b" in texts

    def test_svg_linear_scale(self, tmp_path):
        path = tmp_path / "lin.svg"
        write_svg_curves(path, {"a": np.array([-1.0, 0.0, 1.0])}, log_y=False)
        assert "<polyline" in path.read_text()

    def test_svg_leaves_out_non_finite_values(self, tmp_path):
        # a diverging run's mean f reaches inf, then nan
        for log_y in (True, False):
            path = tmp_path / "diverging.svg"
            curve = {"a": np.array([1.0, 10.0, np.inf, np.nan])}
            write_svg_curves(path, curve, title="diverging", log_y=log_y)
            doc = xml.dom.minidom.parse(str(path))
            (line,) = doc.getElementsByTagName("polyline")
            assert len(line.getAttribute("points").split()) == 2
            ticks = [node.firstChild.data for node in doc.getElementsByTagName("text")]
            assert ("1e0" in ticks and "1e1" in ticks) if log_y else ("1" in ticks and "10" in ticks)
            assert "nan" not in path.read_text() and "inf" not in path.read_text()

    def test_svg_log_scale_needs_positive_values(self, tmp_path):
        with pytest.raises(ValueError):
            write_svg_curves(tmp_path / "bad.svg", {"a": np.array([0.0, -1.0])})


def run_fresh(code: str) -> None:
    """Run code in a fresh interpreter that imports this lpgd; fail on its error."""
    env = dict(os.environ, PYTHONPATH=str(Path(lpgd.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


class TestColdStart:
    """A process loads SciPy only to build a blr objective, and YAML only to
    read a config file."""

    def test_non_blr_runs_need_neither_scipy_nor_yaml(self):
        run_fresh("""
            import sys
            sys.modules["scipy"] = None  # any import of scipy or yaml now raises
            sys.modules["yaml"] = None
            import lpgd
            from lpgd import harness

            base = {"t": "2^-10", "iterations": 3, "seeds": 2, "sigma1": "sr", "sigma2": "sr"}
            specs = [
                {"name": "q", "objective": {"name": "quadratic", "a_diag": [1, 2]},
                 "x0": ["1", "1"], "working_fmt": "Q8.8"},
                {"name": "h", "objective": {"name": "himmelblau"}, "x0": ["2.5", "1.5"],
                 "number_system": "lowfloat", "float_fmt": "fp16e5"},
                {"name": "r", "objective": {"name": "rosenbrock"}, "x0": ["0", "0"],
                 "number_system": "reference"},
            ]
            for raw in specs:
                spec = harness.ExperimentSpec.from_dict({**base, **raw})
                cfg = harness.spec_to_gd_config(spec, harness.build_objective(spec))
                runs = harness.run_ensemble(cfg, spec.seeds)
                assert [r.steps for r in runs] == [3, 3], raw["name"]
        """)

    def test_scipy_loads_when_blr_is_built(self):
        run_fresh("""
            import sys
            import lpgd
            from lpgd import harness

            assert "scipy" not in sys.modules and "yaml" not in sys.modules
            spec = harness.ExperimentSpec.from_dict({
                "name": "b", "t": "0.1", "x0": ["0", "0"], "iterations": 1,
                "working_fmt": "Q15.8", "objective": {
                    "name": "blr",
                    "dataset": {"kind": "synthetic", "n_samples": 8, "n_features": 2},
                },
            })
            harness.build_objective(spec)
            assert "scipy.special" in sys.modules
        """)
