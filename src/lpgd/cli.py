"""Command-line front end: run configs, verify kernels, sweep, estimate PL.

Exit status is nonzero when a verify check fails or a run errors, so the
commands compose with shell scripts and CI.  A malformed config or argument
ends a command with one line on stderr and status 1.  For a config that
line is a `harness.ConfigError`, the one error of a malformed config, which
`main` alone turns into the exit; `run` and `sweep` meet it before any step.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import yaml

from . import oracle
from .bounds import estimate_pl_constants
from .harness import (
    ConfigError,
    ExperimentSpec,
    load_config,
    run_experiment,
    summarize,
    write_svg_curves,
    write_trace_csv,
)
from .lpfloat import parse_float_format
from .objectives import make_objective
from .qnum import make_format
from .rounding import parse_scheme


def _cmd_run(args) -> int:
    spec = load_config(args.config)
    out = Path(args.out) if args.out else None
    if out:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SystemExit(f"cannot make the --out directory {out}: {exc.strerror}")
    t0 = time.perf_counter()
    result = run_experiment(spec)
    elapsed = time.perf_counter() - t0
    summary = summarize(result)
    summary["wall_seconds"] = round(elapsed, 3)
    print(yaml.safe_dump(summary, sort_keys=False), end="")
    if out:
        (out / "summary.yaml").write_text(yaml.safe_dump(summary, sort_keys=False))
        write_trace_csv(result, out / "trace.csv")
        curve = result.mean_f_curve()
        # a run that starts at its minimum f = 0 has nothing to draw on a log scale
        write_svg_curves(
            out / "curves.svg", {"mean f": curve}, title=spec.name, log_y=bool((curve > 0).any())
        )
        print(f"wrote {out}/summary.yaml, trace.csv, curves.svg")
    return 0


def _top_level_split(text: str) -> list:
    """text split at its commas outside [], {} and quoted strings, so that a
    list, a mapping or a quoted string is one value.  As in YAML, a quote
    opens a string only where a value starts, '' is a quote inside '...',
    and a backslash escapes the next character inside "..."."""
    parts, depth, start = [], 0, 0
    quote, skip, lead = None, False, ","  # lead: the last non-blank outside a string
    for i, ch in enumerate(text):
        if skip:
            skip = False
        elif quote:
            if ch == quote and not (quote == "'" and text[i + 1:i + 2] == "'"):
                quote, lead = None, ch
            else:
                skip = ch == "\\" if quote == '"' else ch == "'"
        elif ch in "'\"" and lead in ",[{:":
            quote = ch
        else:
            if ch in "[{":
                depth += 1
            elif ch in "]}":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(text[start:i])
                start = i + 1
            if not ch.isspace():
                lead = ch
    return parts + [text[start:]]


def _cmd_sweep(args) -> int:
    base = load_config(args.config)
    field, _, values = args.set.partition("=")
    if not values:
        raise SystemExit("--set wants FIELD=v1,v2,...")
    specs = []  # every value's spec is checked before the first run
    for value in _top_level_split(values):
        try:
            typed = yaml.safe_load(value)  # typed as the same text in a config file
        except yaml.YAMLError as exc:
            raise ConfigError(f"{field}={value} is not valid YAML: {exc}") from None
        raw = {**asdict(base), "name": f"{base.name}[{field}={value}]", field: typed}
        specs.append((value, ExperimentSpec.from_dict(raw)))
    rows = []
    for value, spec in specs:
        result = run_experiment(spec)
        s = summarize(result)
        below = None
        if args.threshold is not None:
            counts = [r.iterations_below(args.threshold) for r in result.runs]
            hit = [c for c in counts if c is not None]
            below = float(np.mean(hit)) if len(hit) == len(counts) else None
        rows.append((value, s["final_f_mean"], s["stagnated_runs"], below))
    width = max(len(field), *(len(value) for value, *_ in rows))
    print(f"{field:>{width}}  {'final_f_mean':>14}  {'stagnated':>9}  {'iters_to_thr':>12}")
    for value, fmean, stag, below in rows:
        thr = f"{below:.1f}" if below is not None else "-"
        print(f"{value:>{width}}  {fmean:>14.6g}  {stag:>9d}  {thr:>12}")
    return 0


def _cmd_pl_estimate(args) -> int:
    kwargs = {}
    if args.a_diag:
        kwargs["a_diag"] = args.a_diag.split(",")
    if args.x_star:
        kwargs["x_star"] = args.x_star.split(",")
    if kwargs and args.objective != "quadratic":
        raise SystemExit("--a-diag and --x-star apply only to the quadratic objective")
    box = []
    for pair in args.box.split(";"):
        lo, _, hi = pair.partition(",")
        try:
            box.append((float(lo), float(hi)))
        except ValueError:
            raise SystemExit(f"bad --box segment {pair!r}, want lo,hi pairs joined by ';'")
    try:
        obj = make_objective(args.objective, **kwargs)
        est = estimate_pl_constants(obj, box, resolution=args.resolution)
    except ValueError as exc:  # a bad objective, box or resolution
        raise SystemExit(str(exc))
    print(f"objective    {obj.name} (n={obj.n})")
    print(f"sampled      {est.n_points} points")
    print(f"mu_hat       {est.mu_hat:.6g}")
    print(f"L_hat        {est.l_hat:.6g}")
    print(f"argmin_mu    {np.array2string(est.argmin_mu, precision=4)}")
    if obj.pl_mu is not None:
        print(f"known mu     {obj.pl_mu:.6g}")
    if obj.lip_grad is not None:
        print(f"known L      {obj.lip_grad:.6g}")
    return 0


def _check(name: str, ok: bool, detail: str, failures: list) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    if not ok:
        failures.append(name)


def _cmd_verify(args) -> int:
    n = 20_000 if args.quick else 100_000
    failures: list = []

    q11 = make_format("Q1.1")
    sr = parse_scheme("sr")
    da = oracle.round_distribution(Fraction(24, 100), q11, sr)
    db = oracle.round_distribution(Fraction(26, 100), q11, sr)
    diff = oracle.difference_distribution(da, db)
    want = {
        Fraction(1, 2): Fraction(144, 625),
        Fraction(0): Fraction(312, 625),
        Fraction(-1, 2): Fraction(169, 625),
    }
    _check(
        "two-round difference distribution",
        diff == want,
        "SR(0.24)-SR(0.26) on Q1.1 == {+1/2: 144/625, 0: 312/625, -1/2: 169/625}",
        failures,
    )

    q88 = make_format("Q8.8")
    est = oracle.check_expectation(Fraction(3, 10), q88, sr, n=n, seed=11)
    _check("SR unbiased", est.ok, str(est), failures)
    se = parse_scheme("sr_eps:0.4")
    # fractional part u/5 keeps the perturbed probability interior at eps=0.4
    x_eps = Fraction(77, 256) + q88.u / 5
    est2 = oracle.check_expectation(x_eps, q88, se, n=n, seed=12)
    bias_ok = abs(est2.expected - float(x_eps + Fraction(2, 5) * q88.u)) < 1e-15
    _check("SR_eps bias = eps*u*sign(x)", est2.ok and bias_ok, str(est2), failures)

    u = q88.u
    ex, fo, mc = oracle.check_small_step_second_moment(
        Fraction(1, 5) * u, q88, se, n=n, seed=13
    )
    _check(
        "small-step second moment",
        ex == fo and mc.ok,
        f"exact={float(ex):.3g} formula={float(fo):.3g} {mc}",
        failures,
    )

    ros = make_objective("rosenbrock")
    x = [Fraction(3, 10), Fraction(7, 10)]
    fmts = [make_format((8, 6)), make_format((8, 8)), make_format((8, 10))]
    curve = oracle.bias_scaling_curve(ros, x, fmts, sr)
    slope = oracle.fit_log_slope(curve)
    _check(
        "gradient bias scales as u^2",
        slope >= 1.7,
        f"log-log slope {slope:.3f} over u in 2^-6, 2^-8, 2^-10",
        failures,
    )

    fp8 = parse_float_format("fp8e5")
    sse = parse_scheme("signed_sr_eps:0.1")
    for g in (Fraction(1, 2), Fraction(-1, 2)):
        chk = oracle.check_float_drift(
            1, g, Fraction(1, 64), fp8, sse, n=min(n, 20_000), seed=14
        )
        _check(
            f"float drift (g {'>' if g > 0 else '<'} 0)",
            chk.ok,
            f"exact={chk.exact_mean} formula={chk.formula} {chk.mc}",
            failures,
        )
    chk = oracle.check_float_drift(
        1, Fraction(1, 2), Fraction(1, 64), fp8, sr, n=min(n, 20_000), seed=15
    )
    _check("float drift (SR, unbiased)", chk.ok, f"exact={chk.exact_mean} {chk.mc}", failures)

    if failures:
        print(f"\n{len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print("\nall checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lpgd",
        description="Low-precision gradient descent laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="YAML experiment file")
    p_run.add_argument("--out", help="directory for summary/trace/plot files")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="re-run a config over field values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--set", required=True, metavar="FIELD=v1,v2,...")
    p_sweep.add_argument(
        "--threshold",
        type=float,
        help="also report mean iterations until f falls below this",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_pl = sub.add_parser("pl-estimate", help="estimate mu and L over a box")
    p_pl.add_argument("objective", help="objective name (quadratic, rosenbrock, ...)")
    p_pl.add_argument("--box", required=True, metavar="lo,hi;lo,hi;...")
    p_pl.add_argument("--resolution", type=int, default=101)
    p_pl.add_argument("--a-diag", help="quadratic diagonal, comma separated")
    p_pl.add_argument("--x-star", help="quadratic optimum, comma separated")
    p_pl.set_defaults(func=_cmd_pl_estimate)

    p_verify = sub.add_parser("verify", help="exact-vs-MC checks of the kernels")
    p_verify.add_argument("--quick", action="store_true", help="smaller sample sizes")
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        raise SystemExit(" ".join(str(exc).split()))


if __name__ == "__main__":
    sys.exit(main())
