"""The lockstep engine against the exact law of its first steps.

Frozen digests catch a change of the engine, not an error in it.  Here the
law of x_k is pushed forward exactly, with no engine code: from each state,
the gradient recipe's leaves under sigma1 (`enumerate_recipe` over the
working format), then, for each rounded gradient g, the leaves of the update
t * g rounded onto the mul format under sigma2 (signed_sr_eps read as
sr_eps, since fixed point's update rounds a value of the descent sign), and
the step x - (d << shift).  One lockstep ensemble of the engine must put
every x_3 in that law's support and pass a chi-square test over its states.
"""

from collections import Counter
from dataclasses import replace

import pytest
from scipy.special import chdtrc

from lpgd.gdengine import GDConfig, run
from lpgd.objectives import enumerate_recipe, make_objective
from lpgd.qnum import parse_rational

STEPS = 3
SEEDS = 4000
# the chance that the chi-square test fails a correct engine, per case
FALSE_ALARM = 1e-6
MIN_EXPECTED = 5  # cells expected fewer times are pooled into one

QUADRATIC = dict(
    objective=make_objective("quadratic", a_diag=[4, 1, "1/16"]),
    x0=["1", "1", "1"], working_fmt="Q4.6", mul_fmt="Q4.4", t="1/32",
)
# test_06's first config
HIMMELBLAU = dict(
    objective=make_objective("himmelblau"), x0=["2.5", "1.5"], working_fmt="Q8.8", t="0.012"
)
CASES = {
    "sr/sr": (QUADRATIC, "sr", "sr", 48),
    "sr/sr_eps": (QUADRATIC, "sr", "sr_eps:0.4", 32),
    "sr/signed_sr_eps": (QUADRATIC, "sr", "signed_sr_eps:0.4", 32),
    "sr_eps/sr": (QUADRATIC, "sr_eps:0.4", "sr", 48),
    "himmelblau": (HIMMELBLAU, "sr", "sr", 10),
}


def _step_law(cfg: GDConfig, x: tuple) -> dict:
    """The exact law of the next iterate from x: {working mantissas: probability}."""
    w, m = cfg.working_fmt, cfg.mul_fmt
    shift = w.qf - m.qf
    sigma2 = cfg.sigma2_scheme
    if sigma2.uses_given_sign:
        sigma2 = replace(sigma2, kind="sr_eps")
    law = Counter()
    for g, p_g in enumerate_recipe(lambda be: cfg.objective.recipe(be, list(x)), w,
                                   cfg.sigma1_scheme):
        g_m = [int(v * w.scale) for v in g]

        def update(be):  # its leaves read as working values: the mul mantissas << shift
            return [d << shift for d in be.coef(cfg.t, g_m, m)]

        for d, p_d in enumerate_recipe(update, w, sigma2):
            law[tuple(xi - int(di * w.scale) for xi, di in zip(x, d))] += p_g * p_d
    return law


def _iterate_law(cfg: GDConfig, steps: int) -> dict:
    """The exact law of x_steps: {working mantissas: probability}."""
    law = {tuple(int(parse_rational(v) * cfg.working_fmt.scale) for v in cfg.x0): 1}
    for _ in range(steps):
        nxt = Counter()
        for x, p in law.items():
            for y, q in _step_law(cfg, x).items():
                nxt[y] += p * q
        law = nxt
    return law


def _chi_square_p(counts: Counter, law: dict, n: int) -> float:
    """The chi-square p-value of the counts against n draws of the law, the
    cells expected fewer than MIN_EXPECTED times pooled into one (itself
    joined to the smallest other cell if still below)."""
    cells = sorted(((n * float(p), counts[s]) for s, p in law.items()), reverse=True)
    big = [c for c in cells if c[0] >= MIN_EXPECTED]
    small = [c for c in cells if c[0] < MIN_EXPECTED]
    if small:
        pooled = (sum(e for e, _ in small), sum(o for _, o in small))
        if pooled[0] < MIN_EXPECTED:
            e, o = big.pop()
            pooled = (pooled[0] + e, pooled[1] + o)
        big.append(pooled)
    stat = sum((o - e) ** 2 / e for e, o in big)
    return float(chdtrc(len(big) - 1, stat))


@pytest.mark.parametrize("case", CASES)
def test_three_lockstep_steps_follow_the_exact_law(case):
    base, sigma1, sigma2, states = CASES[case]
    cfg = GDConfig(**base, iterations=STEPS, sigma1_scheme=sigma1, sigma2_scheme=sigma2)
    law = _iterate_law(cfg, STEPS)
    assert sum(law.values()) == 1 and len(law) == states
    counts = Counter(tuple(r.x_m[STEPS].tolist()) for r in run(cfg, range(SEEDS)))
    assert set(counts) <= set(law), "an engine iterate the law cannot reach"
    p = _chi_square_p(counts, law, SEEDS)
    assert p > FALSE_ALARM, p
