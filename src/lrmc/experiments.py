"""Synthetic instances and the three experiment harnesses.

Every trial derives its own seed injectively from (master seed, grid cell,
algorithm, trial index), so re-running an experiment reproduces the same
masks and targets regardless of worker scheduling.
"""

import csv
import hashlib
import json
import time
import warnings
from dataclasses import dataclass, asdict, fields
from functools import partial

import numpy as np

from .metrics import incoherence
from .model import GroundTruth, _check_int, _check_real, _must
from .sampling import sample_mask
from .solvers import SolverConfig, SolverVariant, run
from .spectral import _check_rank, spectral_init

__all__ = [
    "ExperimentSpec",
    "PhaseGrid",
    "TrialResult",
    "gen_ground_truth",
    "run_convergence",
    "run_phase",
    "run_timing",
    "extract_contour",
    "derive_seed",
    "write_summary",
]

ALGORITHMS = ("VGD", "RGD", "BGD")
# The solver variant each algorithm runs; RGD's lam is one of spec.lambdas.
_VARIANT_TAG = dict(zip(ALGORITHMS, ("vanilla", "regularized", "balancing")))
SUCCESS_REL_ERR = 1e-8
# Draws of the +-1 matrices gen_ground_truth makes before it gives up. At
# d = r they are often singular: over seeds 0-999 at d = r <= 6 the most
# draws any seed needed was 61.
GROUND_TRUTH_ATTEMPTS = 256


def _check_grid(values, name="", check=_check_real, increasing=True):
    """A tuple setting: each entry by `check`, increasing if `increasing`."""
    out = tuple(check(v, name) for v in values)
    if increasing and any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(_must(name, "strictly increasing", values))
    return out


def _check_algorithms(names, name=""):
    if not names or set(names) - set(ALGORITHMS):
        raise ValueError(_must(name, f"one or more of {ALGORITHMS}", names))
    return tuple(names)


_RATE = partial(_check_real, interval="(0, 1]")
# The check of every field of ExperimentSpec. The CLI's flags apply the
# same checks, so a setting the spec rejects is a usage error there.
_CHECKS = {
    "d1": _check_int, "d2": _check_int, "r": _check_int,
    "kappa": partial(_check_real, interval="[1, inf)"), "p": _RATE,
    "step": _check_real, "lambdas": partial(_check_grid, increasing=False),
    "trials": _check_int, "master_seed": partial(_check_int, low=0),
    "algorithms": _check_algorithms, "max_iters": _check_int,
    "tol": _check_real, "p_grid": partial(_check_grid, check=_RATE),
    "r_grid": partial(_check_grid, check=_check_int), "jobs": _check_int,
}


@dataclass(frozen=True)
class ExperimentSpec:
    d1: int
    d2: int
    r: int
    kappa: float = 1.0
    p: float = 0.2
    step: float = 0.5
    lambdas: tuple = (1e-6, 1e-10)   # RGD only
    trials: int = 50
    master_seed: int = 0
    algorithms: tuple = ("VGD", "RGD", "BGD")
    max_iters: int = 5000
    tol: float = 1e-14
    p_grid: tuple = ()               # phase experiment
    r_grid: tuple = ()               # phase experiment
    jobs: int = 1

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _CHECKS[f.name](
                getattr(self, f.name), f.name))
        if "RGD" in self.algorithms and not self.lambdas:
            raise ValueError("lambdas must hold one or more values for RGD")


@dataclass
class PhaseGrid:
    p_values: tuple
    r_values: tuple
    trials: int
    successes: np.ndarray  # len(r_values) x len(p_values) counts
    errors: int = 0  # trials that raised, counted as failed

    @property
    def rates(self):
        return self.successes / self.trials


@dataclass
class TrialResult:
    algorithm: str
    lam: float | None
    trial: int
    seed: int
    status: str  # a run's status, or error when the trial raised
    iterations: int
    terminal_rel_err: float
    seconds_to_target: float | None  # wall time to reach 1e-8, if reached
    message: str = ""  # the exception, for an error trial


def derive_seed(master_seed, cell, algorithm, trial):
    """Injective per-trial seed; `cell` is any hashable tuple of ints."""
    alg_idx = ALGORITHMS.index(algorithm)
    key = (int(master_seed),) + tuple(int(c) for c in cell) + (alg_idx, trial)
    ss = np.random.SeedSequence(entropy=key[0], spawn_key=key[1:])
    return int(ss.generate_state(1, np.uint64)[0])


def gen_ground_truth(d1, d2, r, kappa, seed):
    """Planted target: orthonormal factors from QR of random +-1 matrices,
    singular values linearly spaced from 1 down to 1/kappa."""
    d1, d2 = (_check_int(d, "dimensions d1, d2") for d in (d1, d2))
    _check_rank(r, d1, d2)
    kappa = _check_real(kappa, "kappa", "[1, inf)")
    rng = np.random.default_rng(seed)
    for _ in range(GROUND_TRUTH_ATTEMPTS):
        bu = rng.integers(0, 2, size=(d1, r)) * 2.0 - 1.0
        bv = rng.integers(0, 2, size=(d2, r)) * 2.0 - 1.0
        qu, ru_ = np.linalg.qr(bu)
        qv, rv_ = np.linalg.qr(bv)
        if (np.min(np.abs(np.diag(ru_))) > 1e-10 * np.sqrt(d1)
                and np.min(np.abs(np.diag(rv_))) > 1e-10 * np.sqrt(d2)):
            break
    else:
        raise RuntimeError("random factor generation kept producing "
                           "rank-deficient matrices")
    sigma = np.linspace(1.0, 1.0 / kappa, r)
    m_star = qu @ (sigma[:, None] * qv.T)
    return GroundTruth(u_star=qu, sigma_star=sigma, v_star=qv, m_star=m_star,
                       kappa=float(sigma[0] / sigma[-1]),
                       mu=incoherence(qu, qv))


def _alg_lam_list(spec):
    out = []
    for alg in spec.algorithms:
        if alg == "RGD":
            out.extend(("RGD", lam) for lam in spec.lambdas)
        else:
            out.append((alg, None))
    return out


def run_convergence(spec, csv_path=None, compute_dist=True, record_every=1):
    """One instance per trial; every algorithm shares the trial's mask and
    spectral initialization so the curves are directly comparable.

    Returns the CSV rows (header `algorithm,lambda,k,rel_err,dist,balancing,
    seconds,status`; status is how the row's run ended) and writes them
    when csv_path is given.
    """
    rows = []
    for trial in range(spec.trials):
        gt, mask, init = _instance(spec, trial)
        for alg, lam in _alg_lam_list(spec):
            cfg = _solver_config(spec, alg, lam, tol=spec.tol,
                                 record_every=record_every,
                                 compute_dist=compute_dist)
            res = run(gt, mask, cfg, init)
            tr = res.trace
            for i, k in enumerate(tr.k):
                rows.append({
                    "algorithm": alg,
                    "lambda": "" if lam is None else repr(lam),
                    "k": k,
                    "rel_err": repr(tr.relative_error[i]),
                    "dist": repr(tr.dist_to_truth[i]) if compute_dist else "",
                    "balancing": repr(tr.balancing_norm[i]),
                    "seconds": repr(tr.seconds[i]),
                    "status": res.status,
                })
    if csv_path is not None:
        _write_csv(csv_path,
                   ["algorithm", "lambda", "k", "rel_err", "dist",
                    "balancing", "seconds", "status"], rows)
    return rows


def _instance(spec, trial):
    """Trial `trial`'s target, mask and spectral start in run_convergence."""
    gt = gen_ground_truth(spec.d1, spec.d2, spec.r, spec.kappa,
                          derive_seed(spec.master_seed, (0, trial), "VGD", 0))
    mask = sample_mask(spec.d1, spec.d2, spec.p,
                       derive_seed(spec.master_seed, (1, trial), "VGD", 0))
    return gt, mask, spectral_init(gt, mask, spec.r)


def _solver_config(spec, algorithm, lam, **settings):
    """Trial solver settings, built before any trial so bad ones raise: by
    default a phase or timing trial's, with `settings` overriding them."""
    settings = {"tol": SUCCESS_REL_ERR, "record_every": spec.max_iters,
                **settings}
    return SolverConfig(SolverVariant(_VARIANT_TAG[algorithm], lam),
                        step=spec.step, max_iters=spec.max_iters, **settings)


def _trial(spec, cfg, algorithm, lam, r, p, seed_gt, seed_mask, trial):
    """One solve to relative error SUCCESS_REL_ERR on a fresh instance.

    The clock covers spectral initialization plus the iterations; instance
    generation is excluded. Success is a run that ends converged. A trial
    whose numerics fail (an SVD that does not converge, a target that stays
    rank-deficient) is an error trial, so that the experiment goes on: its
    message names the exception, and it has no iterations or time. Bad
    settings and programming errors still raise.
    """
    try:
        gt = gen_ground_truth(spec.d1, spec.d2, r, spec.kappa, seed_gt)
        mask = sample_mask(spec.d1, spec.d2, p, seed_mask)
        t0 = time.perf_counter()
        init = spectral_init(gt, mask, r)
        res = run(gt, mask, cfg, init)
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        return TrialResult(algorithm=algorithm, lam=lam, trial=trial,
                           seed=seed_gt, status="error", iterations=0,
                           terminal_rel_err=float("nan"),
                           seconds_to_target=None,
                           message=f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    return TrialResult(algorithm=algorithm, lam=lam, trial=trial,
                       seed=seed_gt, status=res.status,
                       iterations=res.iterations,
                       terminal_rel_err=res.trace.relative_error[-1],
                       seconds_to_target=(elapsed if res.status == "converged"
                                          else None))


def _count_errors(records):
    """Warn once about the trials that raised, which an experiment counts
    as failed, and return how many there were."""
    errors = [t for t in records if t.status == "error"]
    if errors:
        warnings.warn(f"{len(errors)} of {len(records)} trials raised, "
                      f"counted as failed; the first: {errors[0].message}",
                      stacklevel=3)
    return len(errors)


def _phase_trial(task):
    # Low-p, high-r cells are underdetermined by design; any other warning
    # from a trial reaches the user.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="underdetermined",
                                category=UserWarning)
        return task()


def run_phase(spec, csv_path=None, contour_csv_path=None):
    """Monte Carlo success rates over the (p, r) grid for one algorithm:
    the first of spec.algorithms, with RGD at the last of spec.lambdas.

    Each trial draws a fresh target and mask. Success means terminal
    relative error below 1e-8 within the iteration cap; an error trial is
    not a success.
    """
    if not spec.p_grid or not spec.r_grid:
        raise ValueError("phase experiment needs p_grid and r_grid")
    algorithm = spec.algorithms[0]
    lam = spec.lambdas[-1] if algorithm == "RGD" else None
    cfg = _solver_config(spec, algorithm, lam)
    tasks = []
    for ri, r in enumerate(spec.r_grid):
        for pi, p in enumerate(spec.p_grid):
            for trial in range(spec.trials):
                seed_gt = derive_seed(spec.master_seed, (2, ri, pi, trial),
                                      algorithm, trial)
                seed_mask = derive_seed(spec.master_seed, (3, ri, pi, trial),
                                        algorithm, trial)
                tasks.append(partial(_trial, spec, cfg, algorithm, lam, r, p,
                                     seed_gt, seed_mask, trial))
    if spec.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~15 ms to load
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            records = list(pool.map(_phase_trial, tasks, chunksize=4))
    else:
        records = [_phase_trial(t) for t in tasks]
    errors = _count_errors(records)

    converged = np.array([t.status == "converged" for t in records])
    successes = converged.reshape(len(spec.r_grid), len(spec.p_grid),
                                  spec.trials).sum(axis=2, dtype=np.int64)
    grid = PhaseGrid(p_values=tuple(spec.p_grid), r_values=tuple(spec.r_grid),
                     trials=spec.trials, successes=successes, errors=errors)
    if csv_path is not None:
        rows = []
        for ri, r in enumerate(grid.r_values):
            for pi, p in enumerate(grid.p_values):
                rows.append({"p": repr(float(p)), "r": r,
                             "trials": grid.trials,
                             "successes": int(successes[ri, pi]),
                             "rate": repr(int(successes[ri, pi])
                                          / grid.trials)})
        _write_csv(csv_path, ["p", "r", "trials", "successes", "rate"], rows)
    if contour_csv_path is not None:
        rows = []
        for r, p_cross, clipped in extract_contour(grid):
            rows.append({"r": r,
                         "p_cross": "" if p_cross is None else repr(p_cross),
                         "clipped": int(clipped)})
        _write_csv(contour_csv_path, ["r", "p_cross", "clipped"], rows)
    return grid


def extract_contour(grid):
    """Per r-row: the first p where the success rate crosses 0.5, linearly
    interpolated between bracketing grid points.

    Returns (r, p_cross or None, clipped) tuples; clipped marks rows already
    above 0.5 at the smallest p.
    """
    out = []
    p = np.asarray(grid.p_values, dtype=np.float64)
    rates = grid.rates
    for ri, r in enumerate(grid.r_values):
        row = rates[ri]
        if row[0] >= 0.5:
            out.append((r, float(p[0]), True))
            continue
        cross = None
        for i in range(len(p) - 1):
            if row[i] < 0.5 <= row[i + 1]:
                frac = (0.5 - row[i]) / (row[i + 1] - row[i])
                cross = float(p[i] + frac * (p[i + 1] - p[i]))
                break
        out.append((r, cross, False))
    return out


def run_timing(spec, csv_path=None):
    """Wall time per algorithm to reach relative error 1e-8.

    The timer covers spectral initialization plus the iterations; instance
    generation is excluded. All algorithms share each trial's instance.
    Trials that never reach the target, error trials included, are
    excluded from the mean and counted separately.
    """
    configs = {key: _solver_config(spec, *key) for key in _alg_lam_list(spec)}
    results = {key: [] for key in configs}
    order = list(configs)
    for trial in range(spec.trials):
        seed_gt = derive_seed(spec.master_seed, (4, trial), "VGD", 0)
        seed_mask = derive_seed(spec.master_seed, (5, trial), "VGD", 0)
        for key in order:
            results[key].append(_trial(spec, configs[key], *key, spec.r,
                                       spec.p, seed_gt, seed_mask, trial))
        # Each config goes first in turn, so drift in speed hits all alike.
        order.append(order.pop(0))
    _count_errors([t for trials in results.values() for t in trials])
    rows = []
    for (alg, lam), trials in results.items():
        ok = [t.seconds_to_target for t in trials
              if t.seconds_to_target is not None]
        row = {"d1": spec.d1, "d2": spec.d2, "r": spec.r,
               "p": repr(spec.p), "kappa": repr(spec.kappa),
               "algorithm": alg if lam is None else f"{alg}(lam={lam:g})",
               "n_ok": len(ok), "n_fail": len(trials) - len(ok),
               "mean_s": repr(float(np.mean(ok))) if ok else "",
               "median_s": repr(float(np.median(ok))) if ok else "",
               "n_error": sum(t.status == "error" for t in trials)}
        rows.append(row)
    if csv_path is not None:
        _write_csv(csv_path, ["d1", "d2", "r", "p", "kappa", "algorithm",
                              "n_ok", "n_fail", "mean_s", "median_s",
                              "n_error"], rows)
    return rows


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)


def write_summary(path, spec, aggregates):
    """JSON summary: spec echo, aggregate stats, content hash of the inputs."""
    payload = {"spec": asdict(spec), "aggregates": aggregates}
    digest = hashlib.sha256(
        json.dumps(payload["spec"], sort_keys=True).encode()).hexdigest()
    payload["input_hash"] = digest
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")
