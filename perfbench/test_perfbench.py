"""Tests of the benchmark itself, at a tiny size of every workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WARMUP_PASS, WORKLOADS, ensemble_seeds  # noqa: E402

worker.load_lpgd()


def tiny(w):
    """The workload with at most 30 iterations and 2 seeds per spec, and its
    golden digest taken the way the frozen ones were."""
    w = replace(
        w,
        specs=tuple(dict(s, iterations=min(s["iterations"], 30)) for s in w.specs),
        seeds_per_pass=min(w.seeds_per_pass, 2),
    )
    return replace(w, golden=worker.Session(w).run_pass(WARMUP_PASS, DEFAULT_SEED).digest)


def test_benchmark_json_matches_catalogue():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (n, u) for n, u, _ in END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (n, u) for n, u, _ in PER_LAYER
    ]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        n: w.why for n, w in WORKLOADS.items()
    }


def test_specs_mirror_bundled_configs():
    def bundled(name):
        raw = yaml.safe_load((ROOT / "configs" / name).read_text())
        raw.pop("seeds")
        return raw

    him = bundled("himmelblau_exact.yaml")
    assert {k: WORKLOADS["himmelblau-ragged"].specs[0][k] for k in him} == him
    blr = bundled("blr_stepsize.yaml")
    spec = WORKLOADS["blr-wide"].specs[0]
    assert {k: spec[k] for k in blr if k not in ("iterations", "stop_below_f")} == {
        k: v for k, v in blr.items() if k not in ("iterations", "stop_below_f")
    }
    assert spec["stop_below_f"] is None


def test_ensemble_seeds_are_fresh_per_pass_and_replayable():
    a = ensemble_seeds(7, 0, 30)
    assert a == ensemble_seeds(7, 0, 30)
    assert not set(a) & set(ensemble_seeds(7, 1, 30))
    assert not set(a) & set(ensemble_seeds(8, 0, 30))
    assert all(0 <= s < 2**32 for s in a)


def test_tail_keeps_ten_passes_beyond():
    assert run.tail(list(range(40))) == (29, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_measures_and_traces(name):
    w = tiny(WORKLOADS[name])
    m = worker.role_measure(w, 5, 0.01, time.monotonic_ns())
    assert m["golden_ok"] and m["failed"] == 0 and m["attempted"] > 0
    assert m["setup_s"] > 0 and m["peak_rss_mb"] > 0 and min(m["us_per_iter"]) > 0

    t = worker.role_trace(w, 5, 0.01, time.monotonic_ns())
    assert t["golden_ok"] and t["failed"] == 0
    assert t["traced_passes"] >= 1
    assert t["traced_digests"] == t["untraced_digests"][: t["traced_passes"]]
    assert t["traced_digests"][0] == m["digests"][0]
    assert set(t["per_layer"]) == {n for n, _, _ in PER_LAYER}
    assert t["per_layer"]["rng.generators_per_iter"] > 0
    assert t["per_layer"]["objectives.recipe.self_us_per_iter"] > 0
    lowfloat = name == "lowfloat-rosen"
    assert (t["per_layer"]["lpfloat.roundings_per_iter"] > 0) == lowfloat
    assert (t["per_layer"]["rounding.elements_per_iter"] > 0) != lowfloat


def test_golden_mismatch_counts_every_run_of_the_pass():
    w = replace(tiny(WORKLOADS["himmelblau-ragged"]), golden="0" * 64)
    out = worker.role_setup(w, 0, 0.01, time.monotonic_ns())
    assert not out["golden_ok"]
    assert out["failed"] == out["attempted"] == 2


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, catalogue", [(0, END_TO_END), (1, PER_LAYER)])
def test_cli_prints_every_metric_with_its_unit(trace, catalogue):
    p = _cli("--workload", "himmelblau-ragged", "--seed", "4", "--seconds", "1",
             "--trace", str(trace))
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        n: u for n, u, _ in catalogue
    }


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _cli("--workload", "quad-ensemble", "--seed", "1", "--seconds", "1", "--trace", "0",
             cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
