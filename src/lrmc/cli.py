"""Command-line front end.

Subcommands: converge, phase, timing, theory, plot. Flags override values
from an optional key=value config file; LRMC_SEED is the master-seed
fallback. Exit codes: 0 success, 1 experiment/IO failure, 2 usage error.
"""

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import diagnostics, experiments, svgplot
from .solvers import run

__all__ = ["parse_args", "dispatch", "main"]


def _checked(kind, field=None, grid=False):
    """A flag's converter: the text as `kind` (with `grid`, a tuple of them
    split at commas), checked as ExperimentSpec checks `field`, which it
    keeps as `.field`."""
    def convert(text):
        try:
            value = tuple(map(kind, text.split(","))) if grid else kind(text)
            return experiments._CHECKS[field](value) if field else value
        except (TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    convert.field = field
    return convert


# Every key a config file may set, by flag name, and its converter. The
# flags are built from this table, so a value gets the same checks from a
# config file as from the command line.
_CONVERT = {
    "d1": _checked(int, "d1"), "d2": _checked(int, "d2"),
    "r": _checked(int, "r"), "p": _checked(float, "p"),
    "kappa": _checked(float, "kappa"), "s": _checked(float, "step"),
    "lambda": _checked(float, "lambdas", grid=True),
    "trials": _checked(int, "trials"), "seed": _checked(int, "master_seed"),
    "tol": _checked(float, "tol"), "max-iters": _checked(int, "max_iters"),
    "algs": _checked(str, "algorithms", grid=True),
    "jobs": _checked(int, "jobs"), "out": Path,
    "p-grid": _checked(float, "p_grid", grid=True),
    "r-grid": _checked(int, "r_grid", grid=True),
    "selectors": _checked(int, grid=True), "kind": str, "csv": Path,
}
_DEST = {"s": "step", "lambda": "lambdas", "csv": "csv_path"}
_HELP = {"lambda": "comma-separated RGD parameters", "out": "output directory",
         "selectors": "comma-separated leave-one-out indices; 0 for none",
         "tol": "stopping tolerance; phase and timing ignore it and stop at "
                f"relative error {experiments.SUCCESS_REL_ERR:g}"}


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


# The dest of the flag that sets each ExperimentSpec field.
_SPEC_DEST = {c.field: _dest(key) for key, c in _CONVERT.items()
              if getattr(c, "field", None)}
# ExperimentSpec's defaults, and the CLI's own: the spec has none for d1,
# d2 and r.
DEFAULTS = {_SPEC_DEST[f.name]: f.default
            for f in fields(experiments.ExperimentSpec)}
DEFAULTS.update(d1=160, d2=100, r=5, out=Path("."), selectors=None)


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
        except argparse.ArgumentTypeError as exc:
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
    (`ExperimentSpec`'s defaults, with d1=160, d2=100, r=5).
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "plot":
        return args
    merged = dict(DEFAULTS)
    if os.environ.get("LRMC_SEED"):
        try:
            merged["seed"] = _CONVERT["seed"](os.environ["LRMC_SEED"])
        except argparse.ArgumentTypeError as exc:
            parser.error(f"LRMC_SEED: {exc}")
    config = getattr(args, "config", None)
    if config is not None:
        merged.update(_load_config(config, parser))
    for key, value in vars(args).items():
        if value is not None:
            merged[key] = value
    ns = argparse.Namespace(**merged)
    if args.subcommand == "theory" and ns.selectors not in (None, (0,)):
        n = ns.d1 + ns.d2  # known only once every setting is merged
        if not all(1 <= l <= n for l in ns.selectors):
            parser.error(f"--selectors: must be integers in 1..{n}, or 0 "
                         f"alone, got {','.join(map(str, ns.selectors))}")
    ns.subcommand = args.subcommand
    ns.verbose = bool(getattr(args, "verbose", False))
    return ns


def dispatch(ns):
    """Run the parsed command. Returns the process exit status.

    An experiment's runner returns what it wrote, its summary aggregates
    and its failure text or None; the outputs are written either way.
    """
    try:
        if ns.subcommand == "plot":
            svgplot.plot_csv(ns.csv_path, ns.kind,
                             ns.out / f"{ns.csv_path.stem}.svg",
                             contour_csv=ns.contour)
            return 0
        out = Path(ns.out)
        out.mkdir(parents=True, exist_ok=True)
        spec = experiments.ExperimentSpec(
            **{name: getattr(ns, dest) for name, dest in _SPEC_DEST.items()})
        runner = {"converge": _run_converge, "phase": _run_phase,
                  "timing": _run_timing, "theory": _run_theory}
        wrote, aggregates, failure = runner[ns.subcommand](ns, spec, out)
        experiments.write_summary(out / "summary.json", spec, aggregates)
        if ns.verbose:
            print(f"wrote {wrote}")
        if failure:
            print(f"lrmc: {failure}", file=sys.stderr)
            return 1
        return 0
    except (OSError, ValueError, svgplot.SchemaError) as exc:
        print(f"lrmc: error: {exc}", file=sys.stderr)
        return 1


def _run_converge(ns, spec, out):
    rows = experiments.run_convergence(spec, csv_path=out / "convergence.csv")
    diverged = sorted({r["algorithm"] for r in rows
                       if r["status"] == "diverged"})
    return (f"{out / 'convergence.csv'} ({len(rows)} rows)",
            {"rows": len(rows), "diverged_algorithms": diverged},
            f"diverged: {', '.join(diverged)}" if diverged else None)


def _run_phase(ns, spec, out):
    grid = experiments.run_phase(spec, csv_path=out / "phase.csv",
                                 contour_csv_path=out / "contour.csv")
    return (out / "phase.csv", {"mean_rate": float(grid.rates.mean())},
            f"{grid.errors} trials raised" if grid.errors else None)


def _run_timing(ns, spec, out):
    rows = experiments.run_timing(spec, csv_path=out / "timing.csv")
    errors = sum(row["n_error"] for row in rows)
    return (out / "timing.csv", {"configs": len(rows)},
            f"{errors} trials raised" if errors else None)


def _run_theory(ns, spec, out):
    gt, mask, init = experiments._instance(spec, 0)
    cfg = experiments._solver_config(
        spec, "VGD", None, tol=spec.tol,
        record_every=max(1, spec.max_iters // 200), compute_dist=True,
        store_factors=True)
    main = run(gt, mask, cfg, init)
    selectors = (diagnostics.default_selectors(spec.d1, spec.d2)
                 if ns.selectors is None else  # 0 alone selects none
                 tuple(diagnostics.LooSelector(l) for l in ns.selectors if l))
    loo = diagnostics.run_loo_family(gt, mask, cfg, selectors)
    report = diagnostics.hypothesis_check(main, loo, gt, spec.step, spec.p)
    report.to_csv(out / "hypothesis.csv")
    contraction = diagnostics.contraction_check(
        main.trace.dist_to_truth, spec.step, gt.sigma_min)
    drift = diagnostics.balancing_drift_check(
        main.trace.balancing_norm, gt.kappa, spec.step, gt.sigma_max,
        main.trace.dist_to_truth[0])
    return (out / "hypothesis.csv", {
        "status": main.status,
        "fraction_satisfied": report.fraction_satisfied,
        "contraction_ok": contraction.all_satisfied,
        "contraction_worst_ratio": contraction.worst_ratio,
        "balancing_initial_ok": drift.initial_ok,
        "balancing_drift_ok": drift.drift_ok},
        "diverged: main" if main.status == "diverged" else None)


def main(argv=None):
    return dispatch(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
