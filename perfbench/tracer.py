"""Spans and counters recorded around lpgd's entry points, from outside.

`Tracer.install` replaces the public entry points of gdengine, objectives,
rounding, rng, lpfloat, qnum and harness with wrappers that record one span
each (name, start, end, parent span, run id); `uninstall` puts the originals
back.  Nothing under src/ changes, and a traced run must give the same
trajectories as an untraced one (the worker checks their digests).

Counters are taken at the same boundaries:
- `RandomStream.generator` returns a delegating generator that counts the
  64-bit words drawn through `integers`;
- the draw functions turn the words they used beyond one per element
  (rejection redraws, 2**-64 tie extensions) into `extra_words`;
- `round_ratio_vec` / `round_doubles_vec` arguments give the elements
  rounded and those already on the grid that still consume a draw;
- `bernoulli_ratio` called from a rounding kernel counts elements routed to
  the exact object path.
Counter work is itself recorded as `trace.counters` spans, so it never lands
in a layer's self time.

Spans live in flat arrays in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Dict, Iterable

import numpy as np

COUNTERS = "trace.counters"
_SAFE = 1 << 62
_FULL = 1 << 64
_clock = time.perf_counter_ns


class _CountingGenerator:
    """A numpy Generator that counts the words drawn through `integers`."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def integers(self, *args, **kwargs):
        out = self._gen.integers(*args, **kwargs)
        self._tracer.counts["words"] += int(np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


# -- counter hooks: before(tracer, *call args) / after(tracer, out, words, *call args)


def _count_ratio(tr, num, den, out_fmt, scheme, gen=None, v_sign=0):
    arr = np.atleast_1d(np.asarray(num))
    tr.counts["elements"] += arr.size
    if not (scheme.is_random and arr.size):
        return
    scale = out_fmt.scale
    if arr.size < 64 or arr.dtype == object or den >= _SAFE or (
        int(np.abs(arr).max()) * scale >= _SAFE
    ):  # Python integers: exact at any size, and faster on short arrays
        on_grid = sum(int(v) * scale % den == 0 for v in arr.flat)
    else:
        on_grid = int(np.count_nonzero(arr * scale % den == 0))
    tr.counts["on_grid"] += on_grid


def _count_doubles(tr, values, out_fmt, scheme, gen=None, v_sign=0):
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    tr.counts["elements"] += vals.size
    if scheme.is_random:
        pos = vals * out_fmt.scale  # exact: the scale is a power of two
        tr.counts["on_grid"] += int(np.count_nonzero(pos == np.floor(pos)))


def _count_object_path(tr, gen, nums, dens, n):
    parent = tr._stack[-1]
    if parent >= 0 and tr._name[parent] in tr.kernel_ids:
        tr.counts["object_path"] += int(n)


def _counting_generator(tr, out, words, *args):
    return _CountingGenerator(out, tr)


def _uniform_extra(tr, out, words, gen, den, n):
    tr.counts["extra_words"] += words - (2 * n if den > _FULL else n)
    return out


def _ratio_extra(tr, out, words, gen, nums, dens, n):
    tr.counts["extra_words"] += words - n
    return out


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._run = array("q")
        self._stack = [-1]
        self.run_id = -1
        self.run_pass: list = []  # pass label of each run id
        self.pass_label = "setup"
        self.counts = dict.fromkeys(
            ("words", "extra_words", "elements", "on_grid", "object_path"), 0
        )
        self._patched: list = []
        self.kernel_ids = {
            self._id("rounding.round_ratio_vec"),
            self._id("rounding.round_doubles_vec"),
        }

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self._start)

    def _append(self, nid: int, t0: int, t1: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._start.append(t0)
        self._end.append(t1)
        self._parent.append(self._stack[-1])
        self._run.append(self.run_id)
        return idx

    def _wrap(self, owner, attr, name, before=None, after=None, new_run=False):
        orig = vars(owner)[attr]
        nid = self._id(name)
        hook = self._id(COUNTERS)
        tr = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if new_run:
                tr.run_id = len(tr.run_pass)
                tr.run_pass.append(tr.pass_label)
            if before is not None:
                h0 = _clock()
                before(tr, *args, **kwargs)
                tr._append(hook, h0, _clock())
            idx = tr._append(nid, 0, 0)
            tr._stack.append(idx)
            w0 = tr.counts["words"]
            t0 = _clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = _clock()
                tr._stack.pop()
                tr._start[idx] = t0
                tr._end[idx] = t1
            if after is not None:
                h0 = _clock()
                out = after(tr, out, tr.counts["words"] - w0, *args, **kwargs)
                tr._append(hook, h0, _clock())
            return out

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def install(self) -> None:
        from lpgd import gdengine, harness, lpfloat, objectives, qnum, rng, rounding

        if self._patched:
            raise RuntimeError("tracer is already installed")
        w = self._wrap
        w(gdengine, "run", "gdengine.run", new_run=True)
        w(gdengine, "gd_step", "gdengine.gd_step")
        w(gdengine, "classify_case", "gdengine.classify_case")
        w(gdengine, "eval_grad_reference", "objectives.eval_grad_reference")
        w(objectives.Objective, "grad_rounded_fixed", "objectives.recipe")
        w(objectives.Objective, "grad_rounded_float", "objectives.recipe")
        w(rounding, "round_ratio_vec", "rounding.round_ratio_vec", before=_count_ratio)
        w(rounding, "round_doubles_vec", "rounding.round_doubles_vec", before=_count_doubles)
        w(lpfloat, "fl_round", "lpfloat.fl_round")
        w(lpfloat, "neighbors", "lpfloat.neighbors")
        w(rng.RandomStream, "generator", "rng.generator", after=_counting_generator)
        w(rng, "uniform_below", "rng.uniform_below", after=_uniform_extra)
        w(rng, "bernoulli_lt", "rng.bernoulli_lt")
        w(rng, "bernoulli_ratio", "rng.bernoulli_ratio",
          before=_count_object_path, after=_ratio_extra)
        w(qnum.FixedVec, "to_fractions", "qnum.to_fractions")
        w(harness, "build_objective", "harness.build_objective")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def total_ns(self, name: str, since: int = 0) -> int:
        """Summed duration of the spans called `name` recorded from index `since`."""
        nid = self._ids.get(name)
        return sum(
            self._end[i] - self._start[i]
            for i in range(since, len(self))
            if self._name[i] == nid
        )

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end": np.frombuffer(self._end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self._run, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), run_pass=np.array(self.run_pass, dtype=str),
                 **self.arrays())


def _table(tr: Tracer, labels: Iterable[str]) -> Dict[str, np.ndarray]:
    """Span arrays plus duration, self time and the mask of spans in kept runs.

    A run is kept when its pass label is in `labels`.  Raises ValueError if
    the kept spans do not nest, which would make self times meaningless.
    """
    t = tr.arrays()
    dur = t["end"] - t["start"]
    child = np.zeros_like(dur)
    t["has_parent"] = has_parent = t["parent"] >= 0
    np.add.at(child, t["parent"][has_parent], dur[has_parent])
    t["dur"], t["self"] = dur, dur - child
    wanted = set(labels)
    keep_runs = np.array([p in wanted for p in tr.run_pass] + [False], dtype=bool)
    t["keep"] = keep = keep_runs[t["run"]]  # run id -1 indexes the trailing False
    kc = keep & has_parent
    up = t["parent"][kc]
    if (
        (t["self"][keep] < 0).any()
        or (t["start"][kc] < t["start"][up]).any()
        or (t["end"][kc] > t["end"][up]).any()
    ):
        raise ValueError("traced spans do not nest")
    return t


def self_time_by_name(tr: Tracer, labels: Iterable[str]) -> Dict[str, int]:
    """Self time in ns per span name over the kept runs; sums to the runs' time."""
    t = _table(tr, labels)
    names, self_ns = t["name"][t["keep"]], t["self"][t["keep"]]
    return {tr.names[i]: int(self_ns[names == i].sum()) for i in np.unique(names)}


def per_layer(
    tr: Tracer, labels: Iterable[str], iterations: int, pass_ns: int, counts: Dict[str, int]
) -> Dict[str, float]:
    """Per-layer metrics over the runs whose pass label is in `labels`.

    `iterations` and `pass_ns` are the run-iterations and wall time of those
    passes, `counts` the counter increments over them.
    """
    t = _table(tr, labels)
    name, parent, dur, self_ns = t["name"], t["parent"], t["dur"], t["self"]
    keep, has_parent = t["keep"], t["has_parent"]
    ids = {n: tr._id(n) for n in (
        "gdengine.run", "gdengine.gd_step", "gdengine.classify_case",
        "qnum.to_fractions", "objectives.recipe", "objectives.eval_grad_reference",
        "rounding.round_ratio_vec", "rounding.round_doubles_vec", "rng.generator",
        "rng.uniform_below", "rng.bernoulli_lt", "rng.bernoulli_ratio",
        "lpfloat.neighbors", "lpfloat.fl_round",
    )}

    def sel(*names):
        return keep & np.isin(name, [ids[n] for n in names])

    def per_iter(ns) -> float:
        return float(ns) / 1e3 / iterations

    def name_of(idx):
        return np.where(idx >= 0, name[np.maximum(idx, 0)], -1)

    # sigma1 / sigma2: a rounding kernel whose nearest owner is the recipe or gd_step
    kernels = np.flatnonzero(sel("rounding.round_ratio_vec", "rounding.round_doubles_vec"))
    owner = parent[kernels]
    stops = [ids["objectives.recipe"], ids["gdengine.gd_step"]]
    climb = (owner >= 0) & ~np.isin(name_of(owner), stops)
    while climb.any():
        owner[climb] = parent[owner[climb]]
        climb = (owner >= 0) & ~np.isin(name_of(owner), stops)
    sigma1 = dur[kernels][name_of(owner) == ids["objectives.recipe"]].sum()
    sigma2 = dur[kernels][name_of(owner) == ids["gdengine.gd_step"]].sum()

    # draw time: outermost draw spans (bernoulli_lt calls uniform_below)
    draw_ids = [ids["rng.uniform_below"], ids["rng.bernoulli_lt"], ids["rng.bernoulli_ratio"]]
    outer = keep & np.isin(name, draw_ids) & ~np.isin(name_of(parent), draw_ids)

    roots = keep & ~has_parent
    elements = counts["elements"]
    words = counts["words"]
    return {
        "gdengine.run.self_us_per_iter": per_iter(self_ns[sel("gdengine.run")].sum()),
        "gdengine.gd_step.self_us_per_iter": per_iter(self_ns[sel("gdengine.gd_step")].sum()),
        "gdengine.classify_case.us_per_iter": per_iter(dur[sel("gdengine.classify_case")].sum()),
        "qnum.to_fractions.us_per_iter": per_iter(dur[sel("qnum.to_fractions")].sum()),
        "objectives.recipe.self_us_per_iter": per_iter(self_ns[sel("objectives.recipe")].sum()),
        "objectives.eval_grad_reference.us_per_iter": per_iter(
            dur[sel("objectives.eval_grad_reference")].sum()
        ),
        "rounding.sigma1.us_per_iter": per_iter(sigma1),
        "rounding.sigma2.us_per_iter": per_iter(sigma2),
        "rounding.elements_per_iter": elements / iterations,
        "rounding.on_grid_share": counts["on_grid"] / elements if elements else 0.0,
        "rounding.object_path_share": counts["object_path"] / elements if elements else 0.0,
        "rng.generator.us_per_iter": per_iter(dur[sel("rng.generator")].sum()),
        "rng.generators_per_iter": int(sel("rng.generator").sum()) / iterations,
        "rng.draw.us_per_iter": per_iter(dur[outer].sum()),
        "rng.words_per_iter": words / iterations,
        "rng.extra_word_share": counts["extra_words"] / words if words else 0.0,
        "lpfloat.neighbors.self_us_per_iter": per_iter(self_ns[sel("lpfloat.neighbors")].sum()),
        "lpfloat.fl_round.self_us_per_iter": per_iter(self_ns[sel("lpfloat.fl_round")].sum()),
        "lpfloat.roundings_per_iter": int(sel("lpfloat.fl_round").sum()) / iterations,
        "trace.unwrapped_us_per_iter": per_iter(pass_ns - dur[roots].sum()),
    }
