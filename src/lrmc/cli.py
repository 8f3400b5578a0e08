"""Command-line front end.

Subcommands: converge, phase, timing, theory, plot. Flags override values
from an optional key=value config file; LRMC_SEED is the master-seed
fallback. Exit codes: 0 success, 1 experiment/IO failure, 2 usage error.
"""

import argparse
import os
import sys
from pathlib import Path

from . import diagnostics, experiments, svgplot
from .sampling import sample_mask
from .solvers import DIVERGENCE_REL_ERR, SolverConfig, SolverVariant, run
from .spectral import spectral_init

__all__ = ["parse_args", "dispatch", "main"]


def _rate(text):
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _positive(kind):
    def convert(text):
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {value}")
        return value
    return convert


def _grid(kind):
    def convert(text):
        return tuple(kind(tok) for tok in text.split(","))
    return convert


# Every key a config file may set, by flag name, and its converter. The
# flags are built from this table, so a value gets the same checks from a
# config file as from the command line.
_POS_INT, _POS_FLOAT = _positive(int), _positive(float)
_CONVERT = {
    "d1": _POS_INT, "d2": _POS_INT, "r": _POS_INT, "p": _rate,
    "kappa": _POS_FLOAT, "s": _POS_FLOAT, "lambda": _grid(_POS_FLOAT),
    "trials": _POS_INT, "seed": int, "tol": _POS_FLOAT,
    "max-iters": _POS_INT, "algs": _grid(str), "jobs": _POS_INT,
    "out": Path, "p-grid": _grid(_rate), "r-grid": _grid(_POS_INT),
    "selectors": _grid(int), "kind": str, "csv": Path,
}
_DEST = {"s": "step", "lambda": "lambdas", "csv": "csv_path"}
_HELP = {"lambda": "comma-separated RGD parameters", "out": "output directory",
         "selectors": "comma-separated leave-one-out indices; 0 for none"}


def _dest(key):
    return _DEST.get(key, key.replace("-", "_"))


def _add(sub, key, **kwargs):
    sub.add_argument(f"--{key}", type=_CONVERT[key], dest=_dest(key),
                     help=_HELP.get(key), **kwargs)


def _add_common(sub):
    sub.add_argument("--config", type=Path,
                     help="key=value file; flags take precedence")
    for key in ("d1", "d2", "r", "p", "kappa", "s", "lambda", "trials",
                "seed", "tol", "max-iters", "algs", "jobs", "out"):
        _add(sub, key)
    sub.add_argument("-v", "--verbose", action="store_true")


DEFAULTS = {
    "d1": 160, "d2": 100, "r": 5, "p": 0.2, "kappa": 1.0, "step": 0.5,
    "lambdas": (1e-6, 1e-10), "trials": 50, "seed": 0, "tol": 1e-14,
    "max_iters": 5000, "algs": ("VGD", "RGD", "BGD"), "jobs": 1,
    "out": Path("."),
}


def _load_config(path, parser):
    values = {}
    try:
        text = path.read_text()
    except OSError as exc:
        parser.error(f"cannot read config {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _CONVERT:
            parser.error(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[_dest(key)] = _CONVERT[key](raw.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"{path}:{lineno}: {key}: {exc}")
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lrmc",
        description="Gradient-descent matrix completion experiments")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    for name, help_text in (
            ("converge", "convergence-curve experiment"),
            ("phase", "phase-transition grid experiment"),
            ("timing", "time-to-target experiment"),
            ("theory", "theory-bound diagnostics on one instance")):
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        if name == "phase":
            _add(sub, "p-grid")
            _add(sub, "r-grid")
        if name == "theory":
            _add(sub, "selectors")

    plot = subs.add_parser("plot", help="render a CSV to SVG")
    _add(plot, "csv", required=True)
    _add(plot, "kind", choices=("lines", "heatmap"), required=True)
    plot.add_argument("--contour", type=Path, default=None)
    _add(plot, "out", default=Path("."))
    plot.add_argument("-v", "--verbose", action="store_true")
    return parser


def parse_args(argv):
    """Parse and validate argv into a settings namespace.

    Precedence: command-line flags, then config-file values, then defaults
    (s=0.5, tol=1e-14, trials=50).
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "plot":
        return args
    merged = dict(DEFAULTS)
    if os.environ.get("LRMC_SEED"):
        merged["seed"] = int(os.environ["LRMC_SEED"])
    config = getattr(args, "config", None)
    if config is not None:
        merged.update(_load_config(config, parser))
    for key, value in vars(args).items():
        if value is not None:
            merged[key] = value
    merged.setdefault("p_grid", ())
    merged.setdefault("r_grid", ())
    merged.setdefault("selectors", None)
    ns = argparse.Namespace(**merged)
    ns.subcommand = args.subcommand
    ns.verbose = bool(getattr(args, "verbose", False))
    return ns


def _spec_from(ns):
    return experiments.ExperimentSpec(
        d1=ns.d1, d2=ns.d2, r=ns.r, kappa=ns.kappa, p=ns.p, step=ns.step,
        lambdas=tuple(ns.lambdas), trials=ns.trials, master_seed=ns.seed,
        algorithms=tuple(ns.algs), max_iters=ns.max_iters, tol=ns.tol,
        p_grid=tuple(ns.p_grid), r_grid=tuple(ns.r_grid), jobs=ns.jobs)


def dispatch(ns):
    """Run the parsed command. Returns the process exit status."""
    try:
        if ns.subcommand == "plot":
            svgplot.plot_csv(ns.csv_path, ns.kind,
                             ns.out / f"{ns.csv_path.stem}.svg",
                             contour_csv=ns.contour)
            return 0
        out = Path(ns.out)
        out.mkdir(parents=True, exist_ok=True)
        spec = _spec_from(ns)
        if ns.subcommand == "converge":
            return _run_converge(ns, spec, out)
        if ns.subcommand == "phase":
            return _run_phase(ns, spec, out)
        if ns.subcommand == "timing":
            return _run_timing(ns, spec, out)
        if ns.subcommand == "theory":
            return _run_theory(ns, spec, out)
        raise AssertionError(ns.subcommand)
    except (OSError, ValueError, svgplot.SchemaError) as exc:
        print(f"lrmc: error: {exc}", file=sys.stderr)
        return 1


def _run_converge(ns, spec, out):
    rows = experiments.run_convergence(spec, csv_path=out / "convergence.csv")
    diverged = sorted({r["algorithm"] for r in rows
                       if not float(r["rel_err"]) <= DIVERGENCE_REL_ERR})
    experiments.write_summary(out / "summary.json", spec, {
        "rows": len(rows), "diverged_algorithms": diverged})
    if ns.verbose:
        print(f"wrote {out / 'convergence.csv'} ({len(rows)} rows)")
    if diverged:
        print(f"lrmc: diverged: {', '.join(diverged)}", file=sys.stderr)
        return 1
    return 0


def _run_phase(ns, spec, out):
    grid = experiments.run_phase(spec, csv_path=out / "phase.csv",
                                 contour_csv_path=out / "contour.csv")
    experiments.write_summary(out / "summary.json", spec, {
        "mean_rate": float(grid.rates.mean())})
    if ns.verbose:
        print(f"wrote {out / 'phase.csv'}")
    return _trial_errors(grid.errors)


def _run_timing(ns, spec, out):
    rows = experiments.run_timing(spec, csv_path=out / "timing.csv")
    experiments.write_summary(out / "summary.json", spec, {
        "configs": len(rows)})
    if ns.verbose:
        print(f"wrote {out / 'timing.csv'}")
    return _trial_errors(sum(row["n_error"] for row in rows))


def _trial_errors(count):
    # The outputs are written; trials that raised still fail the command.
    if count:
        print(f"lrmc: {count} trials raised", file=sys.stderr)
        return 1
    return 0


def _run_theory(ns, spec, out):
    gt = experiments.gen_ground_truth(
        spec.d1, spec.d2, spec.r, spec.kappa,
        experiments.derive_seed(spec.master_seed, (0, 0), "VGD", 0))
    mask = sample_mask(spec.d1, spec.d2, spec.p,
                       experiments.derive_seed(spec.master_seed, (1, 0),
                                               "VGD", 0))
    init = spectral_init(gt, mask, spec.r)
    stride = max(1, spec.max_iters // 200)
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=spec.step,
                       max_iters=spec.max_iters, tol=spec.tol,
                       record_every=stride, compute_dist=True,
                       store_factors=True)
    main = run(gt, mask, cfg, init)
    if ns.selectors is None:
        selectors = diagnostics.default_selectors(spec.d1, spec.d2)
    elif tuple(ns.selectors) == (0,):
        selectors = ()
    else:
        selectors = tuple(diagnostics.LooSelector(int(l))
                          for l in ns.selectors)
    loo = diagnostics.run_loo_family(gt, mask, cfg, selectors)
    report = diagnostics.hypothesis_check(main, loo, gt, spec.step, spec.p)
    report.to_csv(out / "hypothesis.csv")
    contraction = diagnostics.contraction_check(
        main.trace.dist_to_truth, spec.step, gt.sigma_min)
    drift = diagnostics.balancing_drift_check(
        main.trace.balancing_norm, gt.kappa, spec.step, gt.sigma_max,
        main.trace.dist_to_truth[0])
    experiments.write_summary(out / "summary.json", spec, {
        "status": main.status,
        "fraction_satisfied": report.fraction_satisfied,
        "contraction_ok": contraction.all_satisfied,
        "contraction_worst_ratio": contraction.worst_ratio,
        "balancing_initial_ok": drift.initial_ok,
        "balancing_drift_ok": drift.drift_ok})
    if ns.verbose:
        print(f"wrote {out / 'hypothesis.csv'}")
    if main.status == "diverged":
        print("lrmc: diverged: main", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    return dispatch(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
