"""What the benchmark measures: workloads, metrics and their bounds.

This module is the single source of BENCHMARK.json (see `manifest`). It
imports nothing outside the standard library, so the launcher can read it
without loading numpy.
"""

RUN_SECONDS = 24
DEFAULT_SEED = 1

# Why each workload exists; the long form is in bench/README.md.
WORKLOADS = [
    ("headline", "run_convergence on the paper's 160x100 r=5 p=0.2 instance "
                 "to 1e-14 with dist on every iterate: the alignment "
                 "metrics dominate"),
    ("large", "spectral_init + run at 2000x1500 r=5 p=0.05: dense residual, "
              "gradient matmuls, relative_error and the randomized SVD "
              "dominate"),
    ("phase", "run_phase over a 5x3 (p, r) grid at 80x60, 4 trials a cell: "
              "tiny interpreter-bound solves, capped trials dominate"),
    ("theory", "run + run_loo_family + hypothesis_check at 300x200: the only "
               "workload using diagnostics, loo_init and spectral_norm"),
]

# (name, unit, better, bound). failed_frac is printed and carried by the
# result's attempted/failed counts instead: it is 0 on correct code, and a
# bound relative to a median of 0 is meaningless.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# Public functions wrapped by the traced run, by layer (module of src/lrmc).
TRACED = [
    ("sampling", ("sample_mask", "project", "loo_project")),
    ("spectral", ("spectral_init", "loo_init", "truncated_svd")),
    ("solvers", ("run", "gradient", "objective", "step")),
    ("metrics", ("relative_error", "dist", "gl_align", "procrustes_align",
                 "balancing_norm")),
    ("linalg", ("full_svd", "spectral_norm")),
    ("experiments", ("gen_ground_truth", "run_convergence", "run_phase")),
    ("diagnostics", ("run_loo_family", "hypothesis_check")),
]

# Per-layer metrics that are not per-function. All per-layer values are per
# workload unit (one closed-loop call of the workload's work).
COUNTERS = [
    ("solvers.iterations", "count"),
    ("solvers.status.converged", "count"),
    ("solvers.status.max_iters", "count"),
    ("solvers.status.diverged", "count"),
    ("solvers.us_per_iter", "us"),
    ("solvers.capped_iter_frac", "frac"),
    ("experiments.success_frac", "frac"),
    ("bench.unit.self_s", "s"),
    ("tracing.wall_s", "s"),
    ("tracing.overhead_s", "s"),
]


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, fns in TRACED:
        for fn in fns:
            out += [(f"{layer}.{fn}.calls", "count"),
                    (f"{layer}.{fn}.self_s", "s"),
                    (f"{layer}.{fn}.us_per_call", "us")]
    return out + COUNTERS


# Higher is better only for the share of solves that succeed; every other
# per-layer metric is a cost.
HIGHER_IS_BETTER = {"experiments.success_frac"}


def manifest():
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": ("higher" if n in HIGHER_IS_BETTER
                                  else "lower")}
                      for n, u in per_layer_metrics()],
    }
