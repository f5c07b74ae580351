"""lpgd benchmark: µs per run-iteration on four descent ensembles.

    python3 perfbench/run.py --workload quad-ensemble --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each workload (see workloads.py) runs in
fresh single-threaded processes started from this script:

--trace 0  SETUPS - 1 processes that only set up (imports, build_objective,
           config parsing, one untimed warm-up pass), then one that sets up
           the same way and times ensemble passes for --seconds.  Reports
           us_per_iter (median over passes of pass time / realized
           run-iterations), us_per_iter_tail, setup_s (median of the SETUPS
           set-ups) and peak_rss_mb of the measuring process.  Times are
           scaled to a reference machine speed by a calibration kernel
           timed around every pass (see worker.py); the wall-clock medians
           are printed beside them.
--trace 1  one process that times untraced passes for half of --seconds and
           replays the same passes under the tracer (tracer.py) for the
           other half.  Reports the per-layer metrics in metrics.py.

Correctness: every process's warm-up pass runs the seeds of the default
workload seed and must reproduce the workload's frozen sha256 (workloads.py);
every run must satisfy x_{k+1} = x_k - d_k exactly; traced passes must
reproduce the digests of the untraced passes with the same seeds.  A run
that raises or fails a check counts in `failed`.  The digest of every pass
is printed, so two commits can be compared on any seed.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Details (every pass time and digest) go to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5  # set-ups per untraced run; setup_s is their median
TAIL_BEYOND = 10  # the tail percentile keeps this many passes above it
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def spawn(role: str, workload: str, seed: int, seconds: int) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    t0 = time.monotonic_ns()
    cmd = [
        sys.executable, str(HERE / "worker.py"), role, workload, str(seed), str(seconds), str(t0)
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=seconds + 120)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {role} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def tail(values):
    """(value, percentile, passes beyond): the highest percentile with
    TAIL_BEYOND passes above it, or the maximum when there are too few."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def untraced(workload: str, seed: int, seconds: int):
    setups = [spawn("setup", workload, seed, seconds) for _ in range(SETUPS - 1)]
    m = spawn("measure", workload, seed, seconds)
    children = setups + [m]
    us = m["us_per_iter"]
    tail_us, tail_pct, beyond = tail(us)
    setup_samples = [c["setup_s"] for c in children]
    metrics = {
        "us_per_iter": statistics.median(us),
        "us_per_iter_tail": tail_us,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": m["peak_rss_mb"],
    }
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    golden = all(c["golden_ok"] for c in children)
    wall = m["wall_us_per_iter"]
    notes = {
        "us_per_iter": f"median of {len(us)} passes, {sum(m['iterations'])} run-iterations; "
        f"wall median {statistics.median(wall):.6g}",
        "us_per_iter_tail": f"p{tail_pct:.1f} of {len(us)} passes, {beyond} beyond; "
        f"wall {tail(wall)[0]:.6g}",
        "setup_s": "median of " + ", ".join(f"{v:.3f}" for v in setup_samples)
        + "; wall median " + f"{statistics.median(c['setup_wall_s'] for c in children):.3f}",
        "peak_rss_mb": "measuring process",
    }
    print(f"failed_frac       {failed / attempted:.6g} ({failed} of {attempted} runs)")
    print(f"golden digest     {'ok' if golden else 'MISMATCH'}")
    print(f"pass digests      {' '.join(d[:12] for d in m['digests'])}")
    detail = dict(m, setup_samples=setup_samples)
    return metrics, notes, attempted, failed, golden, detail


def traced(workload: str, seed: int, seconds: int):
    t = spawn("trace", workload, seed, seconds)
    same = t["traced_digests"] == t["untraced_digests"][: t["traced_passes"]]
    print(f"failed_frac       {t['failed'] / t['attempted']:.6g} "
          f"({t['failed']} of {t['attempted']} runs)")
    print(f"golden digest     {'ok' if t['golden_ok'] else 'MISMATCH'} (untraced and traced)")
    print(f"traced digests    {'equal' if same else 'DIFFER'} to untraced, "
          f"{t['traced_passes']} of {t['untraced_passes']} passes replayed")
    part = t["partition_us_per_iter"]
    print("self time per iteration (us), traced passes; sums to the pass time:")
    for name, v in sorted(part.items(), key=lambda kv: -kv[1]):
        print(f"    {name:34s} {v:10.3f}")
    print(f"    {'total':34s} {sum(part.values()):10.3f}")
    notes = {name: note for name, _, note in PER_LAYER}
    return t["per_layer"], notes, t["attempted"], t["failed"], t["golden_ok"] and same, t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "lpgd" / "__init__.py").is_file():
        print(f"perfbench: no src/lpgd under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    run = traced if args.trace else untraced
    values, notes, attempted, failed, ok, detail = run(args.workload, args.seed, args.seconds)
    catalogue = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit, _ in catalogue:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:44s} {values[name]:14.6g} {unit:6s} {notes[name]}")

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(detail, metrics=metrics), indent=1)
    )
    result = {
        "correct": bool(ok and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
