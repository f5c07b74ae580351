"""Tests for the command-line front end."""

import os
import re
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import pytest

from lpgd import cli, harness
from lpgd.cli import main

CONFIG = """\
name: cli-demo
objective: {name: quadratic, a_diag: [1, 1], x_star: [0, 0]}
t: "1/4"
x0: ["1", "1"]
iterations: 5
working_fmt: Q8.8
sigma1: sr
sigma2: sr
seeds: 2
"""


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "demo.yaml"
    p.write_text(CONFIG)
    return p


class TestRun:
    def test_prints_summary(self, config_path, capsys):
        assert main(["run", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "name: cli-demo" in out
        assert "final_f_mean:" in out
        assert "wall_seconds:" in out

    def test_out_dir_files(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["run", str(config_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "summary.yaml").exists()
        assert (out_dir / "trace.csv").exists()
        assert (out_dir / "curves.svg").exists()
        assert "wrote" in capsys.readouterr().out

    def test_out_dir_when_mean_f_is_zero_throughout(self, tmp_path, capsys):
        # (3, 2) is Himmelblau's minimizer and on the Q8.8 grid: f = 0 at every k
        p = tmp_path / "at_min.yaml"
        p.write_text(
            "name: at-min\nobjective: {name: himmelblau}\nworking_fmt: Q8.8\n"
            't: "0.012"\nx0: ["3", "2"]\niterations: 5\nseeds: 2\nsigma1: sr\nsigma2: sr\n'
        )
        out_dir = tmp_path / "results"
        assert main(["run", str(p), "--out", str(out_dir)]) == 0
        assert (out_dir / "curves.svg").stat().st_size > 0

    def test_out_dir_when_the_run_diverges(self, tmp_path, capsys):
        # t = 1/64 is far past 2/L here: f overflows to inf, then turns nan
        p = tmp_path / "diverging.yaml"
        p.write_text(
            "name: diverging\nobjective: {name: rosenbrock}\nnumber_system: reference\n"
            't: "1/64"\nx0: ["1/2", "1/4"]\niterations: 60\nseeds: 2\n'
        )
        out_dir = tmp_path / "results"
        assert main(["run", str(p), "--out", str(out_dir)]) == 0
        doc = xml.dom.minidom.parse(str(out_dir / "curves.svg"))
        assert doc.getElementsByTagName("polyline")

    def test_stop_below_f_in_e_notation(self, tmp_path, capsys):
        # YAML reads 1e-3 (no dot) as text; the config still takes it as a number
        p = tmp_path / "e.yaml"
        p.write_text(CONFIG.replace("iterations: 5", "iterations: 40") + "stop_below_f: 1e-3\n")
        assert main(["run", str(p)]) == 0
        assert "steps_max: 40" not in capsys.readouterr().out  # stopped early

    def test_missing_config_file(self, tmp_path):
        path = tmp_path / "absent.yaml"
        with pytest.raises(SystemExit, match=f"no such config file: {re.escape(str(path))}"):
            main(["run", str(path)])

    def test_stop_below_f_must_be_a_number(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text(CONFIG + "stop_below_f: low\n")
        with pytest.raises(SystemExit, match="^stop_below_f must be a number, got 'low'$"):
            main(["run", str(p)])

    def test_an_error_of_the_descent_propagates(self, config_path, monkeypatch):
        # only building the run turns a ValueError into a one-line exit
        def failing_run(cfg, seeds):
            raise ValueError("raised mid-run")

        monkeypatch.setattr(harness, "run_ensemble", failing_run)
        with pytest.raises(ValueError, match="^raised mid-run$"):
            main(["run", str(config_path)])


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "lpgd.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "line, message",
    [
        ('seeds: "3"', "seeds must be a count or a list of seeds"),
        ('stop_on_stagnation: "false"', "stop_on_stagnation must be true or false, got 'false'"),
        ("stagnation_window: true", "stagnation_window must be an integer, got True"),
        ('working_fmt: "Q8"', "not a fixed-point format spec"),
    ],
    ids=["seeds", "stop_on_stagnation", "stagnation_window", "working_fmt"],
)
@pytest.mark.parametrize("command", [["run"], ["sweep", "--set", "iterations=2,3"]], ids=["run", "sweep"])
def test_malformed_config_exits_with_one_line(tmp_path, command, line, message):
    # the line overrides the demo config's own value of that field, if any
    field = line.partition(":")[0]
    kept = [row for row in CONFIG.splitlines() if not row.startswith(field + ":")]
    p = tmp_path / "bad.yaml"
    p.write_text("\n".join(kept + [line]) + "\n")
    proc = _cli(command[0], str(p), *command[1:])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(message)


# one config per fault, each a mapping of the demo config's lines to replace
# (None drops the line), and the start of its one-line error
BAD_CONFIGS = {
    "missing-file": (None, "no such config file: "),
    "unclosed-brace": ({"objective": "objective: {name: quadratic, a_diag: [1, 1]"}, ""),
    "objective-text": ({"objective": "objective: quadratic"}, "objective must be a mapping"),
    "objective-no-name": ({"objective": "objective: {a_diag: [1, 1]}"}, "objective must be a mapping"),
    "objective-argument": (
        {"objective": "objective: {name: quadratic, a_diag: [1, 1], scale: 2}"},
        "quadratic: quadratic() got an unexpected keyword argument 'scale'",
    ),
    "a_diag-scalar": (
        {"objective": "objective: {name: quadratic, a_diag: 1}", "x0": 'x0: ["1"]'},
        "quadratic: a_diag must be a list of numbers, got 1",
    ),
    "dataset-argument": (
        {"objective": "objective: {name: blr, dataset: {kind: synthetic, n_sample: 5}}",
         "working_fmt": "working_fmt: Q15.8"},
        "blr: synthetic_blr_dataset() got an unexpected keyword argument 'n_sample'",
    ),
    "a_diag-entry": (
        {"objective": "objective: {name: quadratic, a_diag: [x, 1]}"},
        "quadratic: a_diag entry must be a rational number, got 'x'",
    ),
    "x_star-entry": (
        {"objective": "objective: {name: quadratic, a_diag: [1, 1], x_star: [0, 1/0]}"},
        "quadratic: x_star entry must be a rational number, got '1/0'",
    ),
    "x0-text": ({"x0": 'x0: ["abc", "1"]'}, "x0 entry must be a rational number, got 'abc'"),
    "x0-past-binary64": (
        {"x0": 'x0: ["1e400", "0"]', "working_fmt": "number_system: reference"},
        "x0 entry 1e400 is beyond the binary64 range",
    ),
    "x0-off-fixed-grid": ({"x0": 'x0: ["1/3", "1"]'}, "x0 entry 1/3 is not on the Q8.8 grid"),
    "x0-off-float-grid": (
        {"x0": 'x0: ["1/3", "0"]', "working_fmt": "number_system: lowfloat\nfloat_fmt: fp16e5"},
        "x0 entry 1/3 is not on the fp16e5 grid",
    ),
    "t-text": ({"t": 't: "bad"'}, "t must be a rational number, got 'bad'"),
    "sigma1-eps": ({"sigma1": 'sigma1: "sr_eps:abc"'}, "sigma1 must be rn, sr, sr_eps:<eps>"),
    "sigma2-eps": ({"sigma2": 'sigma2: "signed_sr_eps:2"'}, "sigma2 must be rn, sr, sr_eps:<eps>"),
}


def _bad_config(tmp_path, case):
    lines, _ = BAD_CONFIGS[case]
    p = tmp_path / "bad.yaml"
    if lines is not None:
        rows = [lines.get(row.partition(":")[0], row) for row in CONFIG.splitlines()]
        p.write_text("\n".join(rows) + "\n")
    return p


@pytest.mark.parametrize("case", BAD_CONFIGS)
@pytest.mark.parametrize("command", [["run"], ["sweep", "--set", "iterations=2,3"]], ids=["run", "sweep"])
def test_a_malformed_config_stops_before_the_first_run(tmp_path, monkeypatch, capsys, command, case):
    # the fault ends the command with its one line before any ensemble runs
    ran = []
    monkeypatch.setattr(harness, "run_ensemble", lambda cfg, seeds: ran.append(cfg))
    p = _bad_config(tmp_path, case)
    with pytest.raises(SystemExit) as exit_:
        main([command[0], str(p), *command[1:]])
    message = str(exit_.value.code)
    assert "\n" not in message and message.startswith(BAD_CONFIGS[case][1])
    assert ran == [] and capsys.readouterr().out == ""


def test_an_unclosed_brace_names_the_file_and_its_line(tmp_path):
    proc = _cli("run", str(_bad_config(tmp_path, "unclosed-brace")))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"{tmp_path / 'bad.yaml'} is not valid YAML: ")
    assert "line 2" in proc.stderr


@pytest.mark.parametrize(
    "setting, message",
    [("t=1/4,bad", "t must be a rational number, got 'bad'"), ("x0=[1", "x0=[1 is not valid YAML")],
    ids=["second-value", "not-yaml"],
)
def test_sweep_checks_every_value_before_the_first_run(config_path, monkeypatch, setting, message):
    ran = []
    monkeypatch.setattr(harness, "run_ensemble", lambda cfg, seeds: ran.append(cfg))
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", str(config_path), "--set", setting])
    assert str(exit_.value.code).startswith(message)
    assert ran == []


def test_out_path_that_is_a_file_stops_before_the_run(config_path, tmp_path, monkeypatch, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    ran = []
    monkeypatch.setattr(harness, "run_ensemble", lambda cfg, seeds: ran.append(cfg))
    with pytest.raises(SystemExit, match=f"^cannot make the --out directory {re.escape(str(taken))}: "):
        main(["run", str(config_path), "--out", str(taken)])
    assert ran == [] and capsys.readouterr().out == ""


def test_malformed_sweep_value_exits_with_one_line(config_path):
    proc = _cli("sweep", str(config_path), "--set", "seeds=2,0")
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("seeds must be")


class TestSweep:
    def test_table_over_seeds(self, config_path, capsys):
        assert main(["sweep", str(config_path), "--set", "t=1/4,1/8"]) == 0
        out = capsys.readouterr().out
        assert "final_f_mean" in out
        assert "1/4" in out and "1/8" in out

    def test_threshold_column(self, config_path, capsys):
        code = main(
            ["sweep", str(config_path), "--set", "iterations=8", "--threshold", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "iters_to_thr" in out

    @pytest.mark.parametrize(
        "setting, typed",
        [
            ("stop_below_f=1e-3,1e-28", [1e-3, 1e-28]),
            ("stop_on_stagnation=true,false", [True, False]),
            ("seeds=3,4", [[0, 1, 2], [0, 1, 2, 3]]),
        ],
        ids=["stop_below_f", "stop_on_stagnation", "seeds"],
    )
    def test_values_typed_as_in_a_config_file(self, config_path, monkeypatch, setting, typed):
        field = setting.partition("=")[0]
        real_run, results = cli.run_experiment, []

        def recording_run(spec):
            results.append(real_run(spec))
            return results[-1]

        monkeypatch.setattr(cli, "run_experiment", recording_run)
        assert main(["sweep", str(config_path), "--set", setting, "--threshold", "1e-3"]) == 0
        got = [
            r.spec.seeds if field == "seeds" else getattr(r.runs[0].config, field)
            for r in results
        ]
        assert got == typed
        assert all(type(v) is type(w) for v, w in zip(got, typed))

    @pytest.mark.parametrize(
        "setting", ["stop_on_stagnation=true,false", "t=1/4,0.000244140625"], ids=["field", "value"]
    )
    def test_columns_line_up(self, config_path, capsys, setting):
        # a field name or a value wider than the old 12-character column
        assert main(["sweep", str(config_path), "--set", setting]) == 0
        table = capsys.readouterr().out.splitlines()[-3:]
        assert table[0].split()[0] == setting.partition("=")[0]
        # right-aligned columns: every cell of a column ends where its header does
        ends = [[m.end() for m in re.finditer(r"\S+", line)] for line in table]
        assert ends[0] == ends[1] == ends[2]

    @pytest.mark.parametrize(
        "setting, typed",
        [
            ("x0=[2.5,1.5],[3,2]", [["2.5", "1.5"], ["3", "2"]]),
            ("objective={name: quadratic, a_diag: [1, 1]},{name: quadratic, a_diag: [2, 1]}",
             [{"name": "quadratic", "a_diag": [1, 1]}, {"name": "quadratic", "a_diag": [2, 1]}]),
        ],
        ids=["list", "mapping"],
    )
    def test_lists_and_mappings_are_one_value(self, config_path, monkeypatch, capsys, setting, typed):
        # only the commas outside [] and {} split the values
        field = setting.partition("=")[0]
        specs, real_run = [], cli.run_experiment
        monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or real_run(spec))
        assert main(["sweep", str(config_path), "--set", setting]) == 0
        assert [getattr(s, field) for s in specs] == typed
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2

    @pytest.mark.parametrize(
        "setting, typed",
        [
            ('name="a,b",c', ["a,b", "c"]),
            ("name='it''s, ok',o'brien", ["it's, ok", "o'brien"]),
            ('name="say \\"a,b\\"",\'[x,\'', ['say "a,b"', "[x,"]),
        ],
        ids=["double", "single-and-apostrophe", "escapes"],
    )
    def test_quoted_strings_are_one_value(self, config_path, monkeypatch, capsys, setting, typed):
        # a quote opens a string only where a value starts, as in YAML
        specs, real_run = [], cli.run_experiment
        monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or real_run(spec))
        assert main(["sweep", str(config_path), "--set", setting]) == 0
        assert [s.name for s in specs] == typed
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_unknown_field_rejected(self, config_path):
        with pytest.raises(SystemExit):
            main(["sweep", str(config_path), "--set", "bogus=1"])

    def test_malformed_set_rejected(self, config_path):
        with pytest.raises(SystemExit):
            main(["sweep", str(config_path), "--set", "t"])


class TestPlEstimate:
    def test_quadratic_with_cli_params(self, capsys):
        code = main(
            [
                "pl-estimate",
                "quadratic",
                "--box=-1,1;-1,1",  # leading minus: must use the = form
                "--resolution",
                "11",
                "--a-diag",
                "4,1/4",
                "--x-star",
                "0,0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mu_hat       0.25" in out
        assert "L_hat        4" in out
        assert "known mu     0.25" in out

    def test_malformed_box_rejected(self):
        with pytest.raises(SystemExit, match="bad --box segment '0,a', want lo,hi pairs"):
            main(["pl-estimate", "rosenbrock", "--box", "0,a;0,2"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rosenbrock", "--box", "0,2"], "box needs 2 (lo, hi) pairs"),
            (["rosenbrock", "--box", "0,2;0,2", "--resolution", "1"],
             "resolution must be at least 2"),
            (["rosenbrock", "--box", "0,2;0,2", "--a-diag", "1,2"],
             "--a-diag and --x-star apply only to the quadratic objective"),
            (["himmelblau", "--box", "0,2;0,2", "--x-star", "1,2"],
             "--a-diag and --x-star apply only to the quadratic objective"),
            (["quadratic", "--a-diag", "1/0", "--box", "0,1"],
             "a_diag entry must be a rational number, got '1/0'"),
            (["quadratic", "--a-diag", "1,x", "--box", "0,1;0,1"],
             "a_diag entry must be a rational number, got 'x'"),
            (["quadratic", "--a-diag", "1,1", "--x-star", "0,y", "--box", "0,1;0,1"],
             "x_star entry must be a rational number, got 'y'"),
            (["quadratic", "--a-diag", "1,2", "--x-star", "1", "--box", "0,1;0,1"],
             "x_star has length 1, a_diag has length 2"),
        ],
        ids=[
            "box-pairs", "resolution", "a-diag", "x-star", "zero-denominator", "a-diag-entry",
            "x-star-entry", "x-star-length",
        ],
    )
    def test_bad_input_exits_with_one_line(self, argv, message):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "lpgd.cli", "pl-estimate", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == message + "\n"

    def test_rosenbrock_needs_no_params(self, capsys):
        code = main(["pl-estimate", "rosenbrock", "--box", "0,2;0,2", "--resolution", "21"])
        assert code == 0
        assert "mu_hat" in capsys.readouterr().out


class TestVerify:
    def test_quick_checks_pass(self, capsys):
        assert main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out
