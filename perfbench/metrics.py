"""Every metric the benchmark reports: name, unit, and what it should move.

BENCHMARK.json lists the same names and units; test_perfbench checks that
the two agree.  The third field of a per-layer metric names the end-to-end
metric, and the workloads, that a change to that layer should move.
"""

END_TO_END = (
    ("us_per_iter", "us", "median over timed passes of pass time / run-iterations"),
    ("us_per_iter_tail", "us", "highest percentile over passes with >= 10 passes beyond it"),
    ("setup_s", "s", "process start to first timed pass, median of the run's set-ups"),
    ("peak_rss_mb", "MiB", "peak resident set of the measuring process"),
)

_ENGINE = "moves us_per_iter on quad-ensemble and himmelblau-ragged"
_RNG = (
    "moves us_per_iter on quad-ensemble, himmelblau-ragged and lowfloat-rosen; "
    "little effect on blr-wide"
)
_ROUNDING = "moves us_per_iter on blr-wide"
_LPFLOAT = "moves us_per_iter on lowfloat-rosen only"

PER_LAYER = (
    ("gdengine.run.self_us_per_iter", "us", _ENGINE + "; little effect on blr-wide"),
    ("gdengine.gd_step.self_us_per_iter", "us", _ENGINE + "; little effect on blr-wide"),
    ("gdengine.classify_case.us_per_iter", "us", "moves us_per_iter on quad-ensemble"),
    ("qnum.to_fractions.us_per_iter", "us", "moves us_per_iter on quad-ensemble"),
    ("objectives.recipe.self_us_per_iter", "us", _ENGINE),
    ("objectives.eval_grad_reference.us_per_iter", "us", _ENGINE),
    ("rounding.sigma1.us_per_iter", "us", _ROUNDING),
    ("rounding.sigma2.us_per_iter", "us", _ROUNDING),
    ("rounding.elements_per_iter", "count", _ROUNDING),
    ("rounding.on_grid_share", "ratio", _ROUNDING),
    ("rounding.object_path_share", "ratio", _ROUNDING + ", and setup_s there"),
    ("rng.generator.us_per_iter", "us", _RNG),
    ("rng.generators_per_iter", "count", _RNG),
    ("rng.draw.us_per_iter", "us", _RNG),
    ("rng.words_per_iter", "count", _RNG),
    ("rng.extra_word_share", "ratio", _RNG),
    ("lpfloat.neighbors.self_us_per_iter", "us", _LPFLOAT),
    ("lpfloat.fl_round.self_us_per_iter", "us", _LPFLOAT),
    ("lpfloat.roundings_per_iter", "count", _LPFLOAT),
    ("harness.build_objective_s", "s", "moves setup_s on blr-wide"),
    ("trace.unwrapped_us_per_iter", "us",
     "remainder of the traced pass time outside every wrapped entry point"),
    ("trace.overhead_frac", "ratio",
     "tracing cost: traced / untraced us_per_iter - 1, paired by pass"),
)
