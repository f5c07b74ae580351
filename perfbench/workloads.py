"""The four descent workloads, their seed derivation and golden digests.

A workload is a set of experiment specs (the dicts a YAML config would hold)
plus the number of seeds each spec runs per ensemble pass.  A pass runs every
spec over the same seeds through `harness.run_ensemble`, which is what
`lpgd run` does after it has parsed the YAML and before it writes reports.

Pass sizes are chosen so one pass takes a few tenths of a second on a 2-core
x86 box, which gives tens of passes per measured run.

The warm-up pass of every run uses the seeds of DEFAULT_SEED and must
reproduce the workload's frozen `golden` digest, taken at the commit that
added this benchmark; timed passes use seeds derived from the run's --seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

DEFAULT_SEED = 0
WARMUP_PASS = -1  # pass index of the untimed warm-up (golden) pass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: Tuple[dict, ...]
    seeds_per_pass: int
    golden: str  # sha256 of the warm-up pass (see digest_runs in worker.py)


_QUAD = dict(
    objective={"name": "quadratic", "a_diag": [4, 1, "1/16"], "x_star": [0, 0, 0]},
    number_system="fixed",
    working_fmt="Q8.12",
    t="1/32",
    x0=["1", "1", "1"],
    iterations=500,
    sigma1="sr",
)

# configs/blr_stepsize.yaml with stop_below_f off; 20 iterations instead of
# 1500 keeps one pass near 0.25 s (with the threshold on, runs stop at ~20)
_BLR = dict(
    name="blr-stepsize",
    objective={
        "name": "blr",
        "dataset": {"kind": "synthetic", "n_samples": 500, "n_features": 20, "seed": 2024},
        "data_fmt": "Q15.8",
    },
    number_system="fixed",
    working_fmt="Q15.8",
    mul_fmt="Q15.6",
    t="0.1",
    x0=["0"] * 20,
    iterations=20,
    sigma1="sr",
    sigma2="sr",
    stop_below_f=None,
)

_ROSEN = dict(
    name="lowfloat-rosenbrock",
    objective={"name": "rosenbrock"},
    number_system="lowfloat",
    float_fmt="fp16e5",
    t="2^-10",
    x0=["0", "0"],
    iterations=400,
    sigma1="sr",
    sigma2="sr",
)

# configs/himmelblau_exact.yaml as bundled
_HIMMELBLAU = dict(
    name="himmelblau-exact-min",
    objective={"name": "himmelblau"},
    number_system="fixed",
    working_fmt="Q8.8",
    t="0.012",
    x0=["2.5", "1.5"],
    iterations=1500,
    sigma1="sr",
    sigma2="sr",
    stop_below_f=1.0e-28,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "quad-ensemble",
            "n=3 quadratic, Q8.12, sr/{sr,sr_eps}: per-op overhead is everything; "
            "stresses rng.generator, draws, case classification and gd_step bookkeeping",
            (
                dict(_QUAD, name="quad-sr", sigma2="sr"),
                dict(_QUAD, name="quad-sr-eps", sigma2="sr_eps:0.4"),
            ),
            1,
            "0fdc48ea2490b1bf6dd94484537ea0c829fe096620cc9d05dfc97b0ba8507521",
        ),
        Workload(
            "blr-wide",
            "500x20 logistic regression, Q15.8: stresses round_doubles_vec's per-element "
            "Fraction loop (sigma1); bypasses Philox set-up and per-op overhead",
            (_BLR,),
            2,
            "3f56ca4ec008a68d78f6401a1bb59145b0e21273022f93fbef2ebdcd7059fc2b",
        ),
        Workload(
            "lowfloat-rosen",
            "Rosenbrock in fp16e5: the only workload on lpfloat (neighbors, fl_round, "
            "bernoulli_ratio); bypasses the fixed-point vector kernels",
            (_ROSEN,),
            1,
            "c617758fa93a785afa1305981157e24494c688db1ea72211a45045f6e041bb8a",
        ),
        Workload(
            "himmelblau-ragged",
            "Himmelblau Q8.8: runs hit (3,2) and stop at 12-26 of 1500 iterations, so "
            "per-run fixed cost, budget-sized preallocation and ragged stops dominate",
            (_HIMMELBLAU,),
            50,
            "9a5ab1c75ee62154fe04b8256c01827b421a608eaf982760d6f413d0a22ad14a",
        ),
    )
}


def ensemble_seeds(workload_seed: int, pass_index: int, count: int) -> List[int]:
    """Run seeds of one pass, a pure function of (workload seed, pass index).

    Every pass gets fresh seeds, so nothing cached by seed can carry over
    from one pass to the next.  Seeds stay below 2**32.
    """
    out = []
    for j in range(count):
        h = hashlib.sha256(f"{workload_seed}/{pass_index}/{j}".encode()).digest()
        out.append(int.from_bytes(h[:4], "little"))
    return out
