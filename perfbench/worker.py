"""One workload in one process: set-up, warm-up, then timed or traced passes.

run.py starts this file in a fresh interpreter per role, with BLAS/OpenMP
threads pinned to 1:

    python3 perfbench/worker.py <role> <workload> <seed> <seconds> <t0_ns>

role is `setup` (set up, warm up, report setup_s), `measure` (the same, then
untraced passes for <seconds>) or `trace` (untraced passes, then the same
passes again under the tracer).  t0_ns is the parent's time.monotonic_ns()
just before it started this process, so setup_s includes interpreter start
and imports.  The result is one JSON object on the last line of stdout.

Machine speed: on a shared 2-core host the same pass runs at two speeds
about 1.6x apart, switching every few seconds, so the median wall time of a
20-second run depends on how its time split between them.  A fixed
calibration kernel (`calibrate`, independent of lpgd) is timed right after
set-up and after every pass; each time is scaled by CAL_REF_NS over the
kernel times around it, which reports it at the speed at which the kernel
takes CAL_REF_NS.  Wall times are reported beside the scaled ones.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from fractions import Fraction

import numpy as np

from workloads import DEFAULT_SEED, WARMUP_PASS, WORKLOADS, Workload, ensemble_seeds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
CAL_REF_NS = 16_000_000  # the kernel's typical time on the 2-core x86 host used to define this


def calibrate() -> int:
    """Wall ns of a fixed kernel mixing what lpgd spends its time on: Fraction
    arithmetic, a Python integer loop, small numpy ops and Philox set-up."""
    t0 = time.perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i, 1 << (i % 50 + 1))
    x = 0
    for i in range(30000):
        x += i * i % 7
    a = np.arange(8, dtype=np.int64)
    for i in range(300):
        a = (a * 3 + 1) % 1000
        g = np.random.Generator(np.random.Philox(key=[i, 7], counter=[0, 0, i, 1]))
        a[0] += int(g.integers(0, 1 << 63, size=2, dtype=np.uint64)[0] & 7)
    return time.perf_counter_ns() - t0


def load_lpgd() -> None:
    """Import lpgd from this checkout's src/, never from an installed copy."""
    init = SRC / "lpgd" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a repository checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lpgd

    if Path(lpgd.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported lpgd from {lpgd.__file__}, not {init}")


def set_up(workload: Workload) -> list:
    """The workload's GDConfigs, built as harness.run_experiment builds them."""
    from lpgd import harness

    cfgs = []
    for raw in workload.specs:
        spec = harness.ExperimentSpec.from_dict(raw)
        cfgs.append(harness.spec_to_gd_config(spec, harness.build_objective(spec)))
    return cfgs


def digest_runs(runs) -> str:
    """sha256 of the replayable record: mantissas (fixed) or exact values (lowfloat)."""
    h = hashlib.sha256()
    for r in runs:
        arrays = (r.x_m, r.d_m, r.g_tilde_m) if r.x_m is not None else (r.xs, r.d, r.g_tilde)
        for a in arrays:
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def check_run(r) -> bool:
    """The update identity x_{k+1} = x_k - d_k holds exactly on every step."""
    if r.steps < 1:
        return False
    if r.x_m is not None:
        shift = r.config.working_fmt.qf - r.config.mul_fmt.qf
        return bool(np.array_equal(r.x_m[1:], r.x_m[:-1] - (r.d_m << shift)))
    # lowfloat values and their differences are exact in binary64
    return bool(np.array_equal(r.xs[1:], r.xs[:-1] - r.d))


@dataclass
class Pass:
    index: int
    ns: int
    iterations: int
    runs: int
    digest: str
    cal_ns: float = 0.0  # mean calibration time just before and just after

    @property
    def wall_us_per_iter(self) -> float:
        return self.ns / 1e3 / self.iterations

    @property
    def us_per_iter(self) -> float:
        return self.wall_us_per_iter * CAL_REF_NS / self.cal_ns


class Session:
    """A workload's configs plus the tally of runs attempted and failed."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.cfgs = set_up(workload)
        self.attempted = 0
        self.failed = 0

    def run_pass(self, index: int, seed: int) -> Optional[Pass]:
        """One ensemble pass; None if a run raised (all its runs count as failed)."""
        from lpgd import harness

        seeds = ensemble_seeds(seed, index, self.workload.seeds_per_pass)
        n = len(self.cfgs) * len(seeds)
        self.attempted += n
        try:
            t0 = time.perf_counter_ns()
            runs = [r for cfg in self.cfgs for r in harness.run_ensemble(cfg, seeds)]
            ns = time.perf_counter_ns() - t0
        except Exception:  # a raising run is a failed run, not a benchmark crash
            traceback.print_exc()
            self.failed += n
            return None
        self.failed += sum(not check_run(r) for r in runs)
        return Pass(index, ns, sum(r.steps for r in runs), n, digest_runs(runs))

    def golden_pass(self) -> bool:
        """Warm-up pass at DEFAULT_SEED; True if it reproduces the frozen digest."""
        p = self.run_pass(WARMUP_PASS, DEFAULT_SEED)
        if p is None:
            return False
        if p.digest != self.workload.golden:
            print(f"golden digest mismatch: {p.digest}", file=sys.stderr)
            self.failed += p.runs
            return False
        return True

    def timed_passes(
        self, seed: int, seconds: float, cal_ns: int, limit: Optional[int] = None
    ) -> List[Pass]:
        """Passes 0, 1, ... until `seconds` have elapsed (at least one pass),
        each followed by a calibration; `cal_ns` is the one just before."""
        out: List[Pass] = []
        t_end = time.perf_counter() + seconds
        index = 0
        while index == 0 or (time.perf_counter() < t_end and (limit is None or index < limit)):
            p = self.run_pass(index, seed)
            after = calibrate()
            if p is not None:
                p.cal_ns = (cal_ns + after) / 2
                out.append(p)
            cal_ns = after
            index += 1
        return out


def _warm(workload: Workload, t0_ns: int):
    """Set up and run the golden warm-up pass.

    Returns (session, golden ok, setup wall s, calibration ns just after).
    """
    load_lpgd()
    s = Session(workload)
    golden = s.golden_pass()
    setup_wall_s = (time.monotonic_ns() - t0_ns) / 1e9
    return s, golden, setup_wall_s, calibrate()


def _setup_fields(setup_wall_s: float, cal_ns: int) -> dict:
    return {"setup_wall_s": setup_wall_s, "setup_s": setup_wall_s * CAL_REF_NS / cal_ns}


def role_setup(workload: Workload, seed: int, seconds: float, t0_ns: int) -> dict:
    s, golden, setup_wall_s, cal_ns = _warm(workload, t0_ns)
    return dict(
        _setup_fields(setup_wall_s, cal_ns),
        golden_ok=golden, attempted=s.attempted, failed=s.failed,
    )


def role_measure(workload: Workload, seed: int, seconds: float, t0_ns: int) -> dict:
    s, golden, setup_wall_s, cal_ns = _warm(workload, t0_ns)
    passes = s.timed_passes(seed, seconds, cal_ns)
    return dict(
        _setup_fields(setup_wall_s, cal_ns),
        golden_ok=golden,
        us_per_iter=[p.us_per_iter for p in passes],
        wall_us_per_iter=[p.wall_us_per_iter for p in passes],
        cal_ms=[p.cal_ns / 1e6 for p in passes],
        iterations=[p.iterations for p in passes],
        digests=[p.digest for p in passes],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB
        attempted=s.attempted,
        failed=s.failed,
    )


BUILDS = 3  # traced set-ups; harness.build_objective_s is their median


def role_trace(workload: Workload, seed: int, seconds: float, t0_ns: int) -> dict:
    import tracer as tracing

    load_lpgd()
    tr = tracing.Tracer()
    tr.install()
    builds = []
    for _ in range(BUILDS):
        mark = len(tr)
        s = Session(workload)
        builds.append(tr.total_ns("harness.build_objective", mark) / 1e9)
    tr.uninstall()

    golden = s.golden_pass()
    plain = s.timed_passes(seed, seconds / 2, calibrate())

    tr.install()
    try:
        tr.pass_label = "golden"
        golden_traced = s.golden_pass()
        tr.pass_label = "timed"
        before = dict(tr.counts)
        traced = s.timed_passes(seed, seconds / 2, calibrate(), limit=len(plain))
        counts = {k: tr.counts[k] - before[k] for k in before}
    finally:
        tr.uninstall()

    by_index = {p.index: p for p in plain}
    pairs = [(p, by_index[p.index]) for p in traced if p.index in by_index]
    for p, q in pairs:
        if p.digest != q.digest:
            print(f"pass {p.index}: traced digest {p.digest} != {q.digest}", file=sys.stderr)
            s.failed += p.runs
    iterations = sum(p.iterations for p in traced)
    pass_ns = sum(p.ns for p in traced)
    layers = tracing.per_layer(tr, ["timed"], iterations, pass_ns, counts)
    layers["harness.build_objective_s"] = statistics.median(builds)
    layers["trace.overhead_frac"] = (
        statistics.median(p.us_per_iter / q.us_per_iter for p, q in pairs) - 1.0
    )
    partition = tracing.self_time_by_name(tr, ["timed"])
    partition["unwrapped"] = pass_ns - sum(partition.values())

    OUT.mkdir(exist_ok=True)
    tr.save(OUT / f"{workload.name}-seed{seed}.spans.npz")
    return {
        "per_layer": layers,
        "partition_us_per_iter": {k: v / 1e3 / iterations for k, v in partition.items()},
        "golden_ok": golden and golden_traced,
        "untraced_digests": [p.digest for p in plain],
        "traced_digests": [p.digest for p in traced],
        "traced_passes": len(traced),
        "untraced_passes": len(plain),
        "attempted": s.attempted,
        "failed": s.failed,
    }


ROLES = {"setup": role_setup, "measure": role_measure, "trace": role_trace}


def main(argv: List[str]) -> int:
    role, name, seed, seconds, t0_ns = argv
    out = ROLES[role](WORKLOADS[name], int(seed), float(seconds), int(t0_ns))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
