"""lrmc benchmark launcher.

    python3 bench/run.py --workload headline --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, a table
    python3 bench/run.py --write-manifest          # regenerate BENCHMARK.json

Each workload runs in a fresh worker process whose BLAS thread count is
pinned to 1 in its environment before numpy is imported. Set-up time is
the median over SETUP_PROCESSES fresh processes (the measuring worker is
one of them). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of bench/spec.py with --trace 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec  # bench/, the script's directory, is first on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROCESSES = 3
# All workers of one workload together; a traced phase run, the longest,
# takes two units of 12 to 20 s plus set-up.
WORKER_TIMEOUT_S = 150


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, seconds, trace, setup_only, timeout):
    """Run one worker; return its final JSON line as a dict."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), timeout=timeout,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + WORKER_TIMEOUT_S

    def left():
        return max(1.0, deadline - time.monotonic())

    setups = [spawn(workload, seed, 0, 0, True, left())["setup_s"]
              for _ in range(SETUP_PROCESSES - 1)]
    result = spawn(workload, seed, seconds, trace, False, left())
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    result["setup_s"] = statistics.median(setups)
    return result


def report(result, trace):
    """Human-readable lines, then the contract's JSON line."""
    w = result["workload"]
    n = result["attempted"]
    frac = result["failed"] / n if n else 1.0
    print(f"# workload {w} seed {result['seed']} trace {trace}")
    print(f"setup_s      {result['setup_s']:.4f} s  "
          f"(median of {len(result['setup_samples'])} processes)")
    tail = result["wall_tail"]
    tail_text = (f"p{tail['percentile']} {tail['value_s']:.4f} s"
                 if tail else "no percentile has 10 samples beyond it")
    print(f"wall_s       {result['wall_s']:.4f} s  (median of "
          f"{len(result['wall_samples'])} units; {tail_text})")
    print(f"peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    print(f"failed_frac  {frac:.4f} frac  ({result['failed']}/{n} solves)")
    for note in result["check_notes"]:
        print(f"check failed: {note}")
    print(f"observed {json.dumps(result['observed'])}")
    print(f"env {json.dumps(result['env'])}")
    if trace:
        print(f"trace {json.dumps(result['trace_consistency'])} "
              f"spans in {result['span_file']}")
        names = spec.per_layer_metrics()
    else:
        names = [(n, u) for n, u, _, _ in spec.END_TO_END]
    source = result["layers"] if trace else result
    metrics = {name: {"value": source[name], "unit": unit}
               for name, unit in names}
    line = {"correct": not result["check_notes"],
            "attempted": n, "failed": result["failed"], "metrics": metrics}
    return line


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    names = [n for n, _ in spec.WORKLOADS]
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path,
                    help="also write the full results (samples, checks, "
                         "fingerprint) to this JSON file")
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json from bench/spec.py and exit")
    args = ap.parse_args(argv)

    if args.write_manifest:
        with open(ROOT / "BENCHMARK.json", "w") as fh:
            json.dump(spec.manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if not (ROOT / "src" / "lrmc" / "__init__.py").is_file():
        print(f"bench: no lrmc sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    lines, full = {}, {}
    for w in (names if args.workload == "all" else [args.workload]):
        try:
            result = run_workload(w, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired,
                json.JSONDecodeError, IndexError) as exc:
            print(f"bench: {w}: {exc}", file=sys.stderr)
            return 1
        lines[w] = report(result, args.trace)
        full[w] = result
    if args.out is not None:
        args.out.write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(lines[args.workload] if args.workload != "all"
                     else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
