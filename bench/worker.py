"""One workload in one fresh process; started by bench/run.py.

Prints a JSON object as its last stdout line. The launcher pins the BLAS
thread count in the environment before this process starts, and so before
numpy is imported.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import lrmc  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402


def blas_runtime_threads():
    """Thread count OpenBLAS reports, when its symbol can be found."""
    import ctypes
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def fingerprint():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lrmc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(os.environ.get("OPENBLAS_NUM_THREADS",
                                                  0)),
        "blas_threads_runtime": blas_runtime_threads(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest()[:16],
    }


def closed_loop(workload, state, seconds, tracer):
    """Run units back to back for `seconds`; with a tracer, untraced and
    traced units alternate.

    A unit starts only if a unit of the median length so far would end
    within `seconds`, so a run lasts about `seconds` whatever the unit
    length; at least one unit of each kind runs. Each unit's outputs are
    checked after its timer stops. A unit that raises counts all of its
    solves as failed and the loop goes on.
    """
    _, unit, verify = workloads.WORKLOADS[workload]
    plain, traced = [], []
    total = workloads.Check()
    start = time.perf_counter()
    k = 0
    while (not plain or (tracer is not None and not traced)
           or time.perf_counter() - start
           + statistics.median(plain + traced) <= seconds):
        use_trace = tracer is not None and k % 2 == 1
        t0 = time.perf_counter()
        error = None
        try:
            if use_trace:
                with tracer.installed(), tracer.unit(len(traced)):
                    outcome = unit(state)
            else:
                outcome = unit(state)
        # A failed unit is counted and the run goes on.
        except Exception:  # noqa: BLE001
            error = traceback.format_exc(limit=3)
        (traced if use_trace else plain).append(time.perf_counter() - t0)
        k += 1
        if error is None:
            check = verify(state, outcome)
        else:
            solves = workloads.SOLVES[workload]
            check = workloads.Check(solves, solves, [error])
        total.attempted += check.attempted
        total.failed += check.failed
        total.notes += check.notes
        total.observed = check.observed or total.observed
    return plain, traced, total


def layer_metrics(tracer, plain, traced):
    """Per-unit means of the traced units' spans and counters."""
    n = len(traced)
    self_t = tracer.self_times()
    calls = {name: [0] * n for name in tracer.names}
    incl = dict.fromkeys(tracer.names, 0.0)
    excl = dict.fromkeys(tracer.names, 0.0)
    for (name_id, start, end, _, unit), s in zip(tracer.spans, self_t):
        name = tracer.names[name_id]
        calls[name][unit] += 1
        incl[name] += end - start
        excl[name] += s
    repeat = all(len(set(c)) == 1 for c in calls.values())
    out = {}
    for name in tracer.names[1:]:
        total = sum(calls[name])
        out[f"{name}.calls"] = total / n
        out[f"{name}.self_s"] = excl[name] / n
        out[f"{name}.us_per_call"] = (1e6 * incl[name] / total if total
                                      else 0.0)
    runs = tracer.run_outcomes
    iters = sum(it for _, _, it in runs)
    capped = sum(it for _, st, it in runs if st == "max_iters")
    for status in ("converged", "max_iters", "diverged"):
        out[f"solvers.status.{status}"] = sum(
            st == status for _, st, _ in runs) / n
    out["solvers.iterations"] = iters / n
    out["solvers.us_per_iter"] = (1e6 * incl["solvers.run"] / iters
                                  if iters else 0.0)
    out["solvers.capped_iter_frac"] = capped / iters if iters else 0.0
    out["experiments.success_frac"] = (
        sum(st == "converged" for _, st, _ in runs) / len(runs)
        if runs else 0.0)
    out["bench.unit.self_s"] = excl["bench.unit"] / n
    out["tracing.wall_s"] = statistics.median(traced)
    out["tracing.overhead_s"] = (statistics.median(traced)
                                 - statistics.median(plain))
    # Self times partition each traced unit's root span; check it.
    root_total = incl["bench.unit"]
    accounted = sum(excl.values())
    consistency = {
        "calls_repeat_across_units": repeat,
        "self_time_sum_s": accounted / n,
        "traced_unit_mean_s": root_total / n,
    }
    return out, consistency


def tail_percentile(samples):
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99, 90, 50):
        if n * (100 - q) / 100 >= 10:
            return q, float(np.percentile(samples, q))
    return None, None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="launcher's time.monotonic() just before spawning")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    setup = workloads.WORKLOADS[args.workload][0]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmpdir:
        state = setup(args.seed, tmpdir)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer([(f"{layer}.{fn}",
                              getattr(getattr(lrmc, layer), fn))
                             for layer, fns in spec.TRACED for fn in fns])
        plain, traced, check = closed_loop(args.workload, state,
                                           args.seconds, tracer)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": statistics.median(plain),
        "wall_samples": plain,
        "peak_rss_mb": peak_rss_mb,
        "attempted": check.attempted,
        "failed": check.failed,
        "check_notes": sorted(set(check.notes))[:20],
        "observed": check.observed,
        "env": fingerprint(),
    }
    q, value = tail_percentile(plain)
    result["wall_tail"] = None if q is None else {"percentile": q,
                                                  "value_s": value}
    if tracer is not None:
        result["layers"], result["trace_consistency"] = layer_metrics(
            tracer, plain, traced)
        if not result["trace_consistency"]["calls_repeat_across_units"]:
            result["check_notes"].append(
                "per-unit call counts differ between identical units")
        span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv.gz"
        tracer.write_spans(span_file)
        result["span_file"] = str(span_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
