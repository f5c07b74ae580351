"""Experiment plumbing: configs, datasets, ensembles, and report files.

A YAML config names an objective, a number system, formats, schemes, a
stepsize, a start point, and a seed list; `run_experiment` turns that into
an ensemble of instrumented runs.  Outputs are deliberately plain: a
summary dict, a per-iteration CSV, and a small self-contained SVG of the
mean objective curves.

Stepsizes and start coordinates stay strings until they reach the engine,
which parses them as exact rationals; writing them as YAML floats would
silently snap them to binary64.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import bounds
from .gdengine import GDConfig, RunResult, run_ensemble
from .objectives import Objective, make_objective
from .qnum import make_format

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    """A binary-classification design matrix with 0/1 labels."""

    name: str
    x: np.ndarray  # (N, n) float64
    y: np.ndarray  # (N,) float64 in {0, 1}


def synthetic_blr_dataset(
    n_samples: int = 500,
    n_features: int = 20,
    seed: int = 2024,
    separation: float = 2.0,
    scale: float = 1.0,
) -> Dataset:
    """Two spherical Gaussian clouds, labels by cloud; reproducible by seed."""
    gen = np.random.Generator(np.random.Philox(seed))
    half = n_samples // 2
    center = gen.normal(size=n_features)
    center *= separation / (2 * np.linalg.norm(center))
    x0 = gen.normal(scale=scale, size=(half, n_features)) - center
    x1 = gen.normal(scale=scale, size=(n_samples - half, n_features)) + center
    x = np.concatenate([x0, x1])
    y = np.concatenate([np.zeros(half), np.ones(n_samples - half)])
    perm = gen.permutation(n_samples)
    return Dataset(
        name=f"synthetic-{n_samples}x{n_features}-s{seed}", x=x[perm], y=y[perm]
    )


def load_idx_images(path) -> np.ndarray:
    """Read an IDX3 image file: big-endian magic, counts, then raw bytes."""
    raw = Path(path).read_bytes()
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IMAGES_MAGIC:
        raise ValueError(f"{path}: bad magic {magic:#010x}, want {IMAGES_MAGIC:#010x}")
    body = np.frombuffer(raw, dtype=np.uint8, offset=16)
    if body.size != count * rows * cols:
        raise ValueError(f"{path}: {body.size} pixels for {count}x{rows}x{cols}")
    return body.reshape(count, rows * cols)


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX1 label file."""
    raw = Path(path).read_bytes()
    magic, count = struct.unpack(">II", raw[:8])
    if magic != LABELS_MAGIC:
        raise ValueError(f"{path}: bad magic {magic:#010x}, want {LABELS_MAGIC:#010x}")
    body = np.frombuffer(raw, dtype=np.uint8, offset=8)
    if body.size != count:
        raise ValueError(f"{path}: {body.size} labels, header says {count}")
    return body


def idx_blr_dataset(
    images_path,
    labels_path,
    digits=(0, 1),
    max_samples: Optional[int] = 500,
    threshold: float = 0.5,
) -> Dataset:
    """Two digit classes as a binary design matrix.

    Pixels binarize to {0, 1} at `threshold` of full intensity so every
    feature is exactly representable in any fixed-point format; the first
    listed digit maps to label 0, the second to 1.
    """
    imgs = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if len(imgs) != len(labels):
        raise ValueError("image and label counts differ")
    a, b = digits
    keep = (labels == a) | (labels == b)
    x = (imgs[keep] > threshold * 255).astype(np.float64)
    y = (labels[keep] == b).astype(np.float64)
    if max_samples is not None:
        x, y = x[:max_samples], y[:max_samples]
    return Dataset(name=f"idx-{a}v{b}-{len(x)}", x=x, y=y)


# ---------------------------------------------------------------------------
# experiment specs
# ---------------------------------------------------------------------------


@dataclass
class ExperimentSpec:
    """One ensemble: an objective, a number system, and run settings."""

    name: str
    objective: Dict
    t: str
    x0: List[str]
    iterations: int
    number_system: str = "fixed"
    working_fmt: Optional[str] = None
    mul_fmt: Optional[str] = None
    float_fmt: Optional[str] = None
    sigma1: str = "sr"
    sigma2: str = "sr"
    seeds: Sequence[int] = field(default_factory=lambda: list(range(30)))
    stop_below_f: Optional[float] = None
    stop_on_stagnation: bool = False
    stagnation_window: int = 50

    @classmethod
    def from_dict(cls, raw: Dict) -> "ExperimentSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = [
            f.name for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING and f.name not in raw
        ]
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        spec = dict(raw)
        if "seeds" in spec and isinstance(spec["seeds"], int):
            spec["seeds"] = list(range(spec["seeds"]))
        if "seeds" in spec and not spec["seeds"]:
            raise ValueError(f"seeds must name at least one seed, got {raw['seeds']!r}")
        spec["x0"] = [str(v) for v in spec["x0"]]
        spec["t"] = str(spec["t"])
        return cls(**spec)


def load_config(path) -> ExperimentSpec:
    import yaml  # only config files need it; imported here to keep start-up light

    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path} does not hold a config mapping")
    return ExperimentSpec.from_dict(raw)


def build_objective(spec: ExperimentSpec) -> Objective:
    obj_spec = dict(spec.objective)
    name = obj_spec.pop("name")
    if name == "blr":
        ds_spec = dict(obj_spec.pop("dataset", {"kind": "synthetic"}))
        kind = ds_spec.pop("kind", "synthetic")
        if kind == "synthetic":
            ds = synthetic_blr_dataset(**ds_spec)
        elif kind == "idx":
            ds = idx_blr_dataset(**ds_spec)
        else:
            raise ValueError(f"unknown dataset kind {kind!r}")
        data_fmt = obj_spec.pop("data_fmt", spec.working_fmt)  # None: binary64 data
        if data_fmt is not None:
            data_fmt = make_format(data_fmt)
        return make_objective("blr", x_data=ds.x, y=ds.y, data_fmt=data_fmt, **obj_spec)
    return make_objective(name, **obj_spec)


def spec_to_gd_config(spec: ExperimentSpec, obj: Objective) -> GDConfig:
    return GDConfig(
        objective=obj,
        t=spec.t,
        x0=spec.x0,
        iterations=spec.iterations,
        number_system=spec.number_system,
        working_fmt=spec.working_fmt,
        mul_fmt=spec.mul_fmt,
        float_fmt=spec.float_fmt,
        sigma1_scheme=spec.sigma1,
        sigma2_scheme=spec.sigma2,
        stop_below_f=spec.stop_below_f,
        stop_on_stagnation=spec.stop_on_stagnation,
        stagnation_window=spec.stagnation_window,
    )


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    objective: Objective
    runs: List[RunResult]

    def mean_f_curve(self) -> np.ndarray:
        k = min(r.steps for r in self.runs)
        return np.stack([r.fs[: k + 1] for r in self.runs]).mean(axis=0)

    def final_fs(self) -> np.ndarray:
        return np.array([r.final_f for r in self.runs])


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    obj = build_objective(spec)
    cfg = spec_to_gd_config(spec, obj)
    runs = run_ensemble(cfg, seeds=spec.seeds)
    return ExperimentResult(spec=spec, objective=obj, runs=runs)


def summarize(result: ExperimentResult) -> Dict:
    runs = result.runs
    finals = result.final_fs()
    cases = np.concatenate([r.case for r in runs])
    hist = {int(c): int((cases == c).sum()) for c in (0, 1, 2, 3)}
    out = {
        "name": result.spec.name,
        "objective": result.spec.objective.get("name"),
        "runs": len(runs),
        "steps_min": int(min(r.steps for r in runs)),
        "steps_max": int(max(r.steps for r in runs)),
        "final_f_mean": float(finals.mean()),
        "final_f_min": float(finals.min()),
        "final_f_max": float(finals.max()),
        "case_histogram": hist,
        "stagnated_runs": int(sum(r.stagnated for r in runs)),
        "nonopposite_violations": int(
            sum(int(r.nonopp_violations.sum()) for r in runs)
        ),
    }
    if result.objective.f_star is not None:
        out["final_gap_mean"] = float(finals.mean() - result.objective.f_star)
    return out


def write_trace_csv(result: ExperimentResult, path, run_index: int = 0) -> None:
    """Per-iteration trace of one run, with the single-run factor estimates."""
    run_ = result.runs[run_index]
    obj = result.objective
    L = obj.lip_grad
    cfg = run_.config
    u = float(cfg.u_mul) if cfg.number_system == "fixed" else float("nan")
    u_work = (
        float(cfg.working_fmt.u) if cfg.number_system == "fixed" else float("nan")
    )
    gamma = np.full(run_.steps, np.nan)
    if run_.steps:
        g, ok = bounds.gamma_of([run_])
        gamma[: g.shape[1]] = np.where(ok[0], g[0], np.nan)
    theta = (
        bounds.theta_of(run_.g_tilde, L, u)
        if L is not None and cfg.number_system == "fixed"
        else np.full(run_.steps, np.nan)
    )
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "k",
                "f",
                "case",
                "gamma",
                "theta",
                "max_abs_sigma1_over_u",
                "num_c2",
                "nonopposite_violations",
            ]
        )
        for k in range(run_.steps):
            s1_over_u = (
                float(np.abs(run_.sigma1[k]).max() / u_work)
                if not math.isnan(u_work)
                else float("nan")
            )
            w.writerow(
                [
                    k,
                    f"{run_.fs[k]:.10g}",
                    int(run_.case[k]),
                    f"{gamma[k]:.6g}",
                    f"{theta[k]:.6g}",
                    f"{s1_over_u:.6g}",
                    int(run_.c2_mask[k].sum()),
                    int(run_.nonopp_violations[k]),
                ]
            )


# ---------------------------------------------------------------------------
# a small dependency-free SVG line plot
# ---------------------------------------------------------------------------

_PALETTE = ["#1965b0", "#dc050c", "#4eb265", "#f7a600", "#882e72", "#777777"]


def write_svg_curves(
    path,
    curves: Dict[str, np.ndarray],
    title: str = "",
    log_y: bool = True,
    width: int = 720,
    height: int = 440,
) -> None:
    """Iteration-indexed curves as one self-contained SVG file."""
    ml, mr, mt, mb = 60, 16, 28, 40
    pw, ph = width - ml - mr, height - mt - mb
    ys_all = np.concatenate([np.asarray(c, dtype=np.float64) for c in curves.values()])
    if log_y:
        pos = ys_all[ys_all > 0]
        if pos.size == 0:
            raise ValueError("log scale needs at least one positive value")
        lo, hi = float(pos.min()), float(pos.max())
        y_lo, y_hi = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        if y_lo == y_hi:
            y_hi += 1
        to_unit = lambda v: (math.log10(v) - y_lo) / (y_hi - y_lo)
        ticks = [(10.0**e, f"1e{e}") for e in range(y_lo, y_hi + 1)]
    else:
        lo, hi = float(ys_all.min()), float(ys_all.max())
        if lo == hi:
            hi = lo + 1
        to_unit = lambda v: (v - lo) / (hi - lo)
        ticks = [(lo + f * (hi - lo), f"{lo + f * (hi - lo):.3g}") for f in
                 (0, 0.25, 0.5, 0.75, 1)]
    k_max = max(len(c) for c in curves.values()) - 1
    k_max = max(k_max, 1)

    def px(k):
        return ml + pw * k / k_max

    def py(v):
        return mt + ph * (1 - to_unit(v))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="18" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt+ph}" stroke="#333"/>',
        f'<line x1="{ml}" y1="{mt+ph}" x2="{ml+pw}" y2="{mt+ph}" stroke="#333"/>',
    ]
    for v, label in ticks:
        y = py(v)
        parts.append(f'<line x1="{ml-4}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(
            f'<text x="{ml-8}" y="{y+4:.1f}" text-anchor="end">{label}</text>'
        )
    for frac in (0, 0.25, 0.5, 0.75, 1):
        k = frac * k_max
        parts.append(
            f'<text x="{px(k):.1f}" y="{mt+ph+16}" text-anchor="middle">{int(k)}</text>'
        )
    parts.append(
        f'<text x="{ml+pw/2:.0f}" y="{height-8}" text-anchor="middle">iteration</text>'
    )
    for idx, (label, ys) in enumerate(curves.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = []
        for k, v in enumerate(np.asarray(ys, dtype=np.float64)):
            if log_y and v <= 0:
                continue
            pts.append(f"{px(k):.1f},{py(v):.1f}")
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{" ".join(pts)}"/>'
        )
        ly = mt + 16 * (idx + 1)
        parts.append(
            f'<line x1="{ml+pw-150}" y1="{ly-4}" x2="{ml+pw-126}" y2="{ly-4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{ml+pw-120}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))
