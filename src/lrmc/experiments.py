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
from dataclasses import dataclass, asdict
from functools import partial

import numpy as np

from .metrics import incoherence
from .model import GroundTruth
from .sampling import _check_rate, sample_mask
from .solvers import SolverConfig, SolverVariant, run
from .spectral import spectral_init

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
SUCCESS_REL_ERR = 1e-8
# Draws of the +-1 matrices gen_ground_truth makes before it gives up. At
# d = r they are often singular: over seeds 0-999 at d = r <= 6 the most
# draws any seed needed was 61.
GROUND_TRUTH_ATTEMPTS = 256


@dataclass
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
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError(f"dimensions ({self.d1}, {self.d2}) must be >= 1")
        if self.r < 1 or any(r < 1 for r in self.r_grid):
            raise ValueError("r and every r_grid entry must be >= 1")
        for p in (self.p,) + tuple(self.p_grid):
            _check_rate(p)
        for name, grid in (("p_grid", self.p_grid), ("r_grid", self.r_grid)):
            if grid and any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")


@dataclass
class PhaseGrid:
    p_values: tuple
    r_values: tuple
    trials: int
    successes: np.ndarray  # len(r_values) x len(p_values) counts

    @property
    def rates(self):
        return self.successes / self.trials


@dataclass
class TrialResult:
    algorithm: str
    lam: float | None
    trial: int
    seed: int
    status: str
    iterations: int
    terminal_rel_err: float
    seconds_to_target: float | None  # wall time to reach 1e-8, if reached


def derive_seed(master_seed, cell, algorithm, trial):
    """Injective per-trial seed; `cell` is any hashable tuple of ints."""
    alg_idx = ALGORITHMS.index(algorithm)
    key = (int(master_seed),) + tuple(int(c) for c in cell) + (alg_idx, trial)
    ss = np.random.SeedSequence(entropy=key[0], spawn_key=key[1:])
    return int(ss.generate_state(1, np.uint64)[0])


def gen_ground_truth(d1, d2, r, kappa, seed):
    """Planted target: orthonormal factors from QR of random +-1 matrices,
    singular values linearly spaced from 1 down to 1/kappa."""
    if kappa < 1:
        raise ValueError(f"kappa={kappa} must be >= 1")
    if r > min(d1, d2):
        raise ValueError(f"r={r} exceeds min(d1, d2)={min(d1, d2)}")
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


def _variant_for(algorithm, lam):
    if algorithm == "VGD":
        return SolverVariant.vanilla()
    if algorithm == "RGD":
        return SolverVariant.regularized(lam)
    if algorithm == "BGD":
        return SolverVariant.balancing()
    raise ValueError(f"unknown algorithm {algorithm!r}")


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
    seconds`) and writes them when csv_path is given.
    """
    rows = []
    for trial in range(spec.trials):
        gt_seed = derive_seed(spec.master_seed, (0, trial), "VGD", 0)
        mask_seed = derive_seed(spec.master_seed, (1, trial), "VGD", 0)
        gt = gen_ground_truth(spec.d1, spec.d2, spec.r, spec.kappa, gt_seed)
        mask = sample_mask(spec.d1, spec.d2, spec.p, mask_seed)
        init = spectral_init(gt, mask, spec.r)
        for alg, lam in _alg_lam_list(spec):
            cfg = SolverConfig(variant=_variant_for(alg, lam), step=spec.step,
                               max_iters=spec.max_iters, tol=spec.tol,
                               record_every=record_every,
                               compute_dist=compute_dist)
            res = run(gt, mask, cfg, init)
            tr = res.trace
            dists = tr.dist_to_truth if compute_dist else [""] * len(tr.k)
            for i, k in enumerate(tr.k):
                rows.append({
                    "algorithm": alg,
                    "lambda": "" if lam is None else repr(lam),
                    "k": k,
                    "rel_err": repr(tr.relative_error[i]),
                    "dist": repr(dists[i]) if compute_dist else "",
                    "balancing": repr(tr.balancing_norm[i]),
                    "seconds": repr(tr.seconds[i]),
                })
    if csv_path is not None:
        _write_csv(csv_path,
                   ["algorithm", "lambda", "k", "rel_err", "dist",
                    "balancing", "seconds"], rows)
    return rows


def _trial(spec, algorithm, lam, r, p, seed_gt, seed_mask, trial):
    """One solve to relative error SUCCESS_REL_ERR on a fresh instance.

    The clock covers spectral initialization plus the iterations; instance
    generation is excluded. Success is a run that ends converged.
    """
    gt = gen_ground_truth(spec.d1, spec.d2, r, spec.kappa, seed_gt)
    mask = sample_mask(spec.d1, spec.d2, p, seed_mask)
    t0 = time.perf_counter()
    init = spectral_init(gt, mask, r)
    cfg = SolverConfig(variant=_variant_for(algorithm, lam), step=spec.step,
                       max_iters=spec.max_iters, tol=SUCCESS_REL_ERR,
                       record_every=spec.max_iters)
    res = run(gt, mask, cfg, init)
    elapsed = time.perf_counter() - t0
    return TrialResult(algorithm=algorithm, lam=lam, trial=trial,
                       seed=seed_gt, status=res.status,
                       iterations=res.iterations,
                       terminal_rel_err=res.trace.relative_error[-1],
                       seconds_to_target=(elapsed if res.status == "converged"
                                          else None))


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
    relative error below 1e-8 within the iteration cap.
    """
    if not spec.p_grid or not spec.r_grid:
        raise ValueError("phase experiment needs p_grid and r_grid")
    algorithm = spec.algorithms[0]
    lam = spec.lambdas[-1] if algorithm == "RGD" else None
    tasks = []
    for ri, r in enumerate(spec.r_grid):
        for pi, p in enumerate(spec.p_grid):
            for trial in range(spec.trials):
                seed_gt = derive_seed(spec.master_seed, (2, ri, pi, trial),
                                      algorithm, trial)
                seed_mask = derive_seed(spec.master_seed, (3, ri, pi, trial),
                                        algorithm, trial)
                tasks.append(partial(_trial, spec, algorithm, lam, r, p,
                                     seed_gt, seed_mask, trial))
    if spec.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~15 ms to load
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            records = list(pool.map(_phase_trial, tasks, chunksize=4))
    else:
        records = [_phase_trial(t) for t in tasks]

    converged = np.array([t.status == "converged" for t in records])
    successes = converged.reshape(len(spec.r_grid), len(spec.p_grid),
                                  spec.trials).sum(axis=2, dtype=np.int64)
    grid = PhaseGrid(p_values=tuple(spec.p_grid), r_values=tuple(spec.r_grid),
                     trials=spec.trials, successes=successes)
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
    Trials that never reach the target are excluded from the mean and
    counted separately.
    """
    results = {key: [] for key in _alg_lam_list(spec)}
    for trial in range(spec.trials):
        seed_gt = derive_seed(spec.master_seed, (4, trial), "VGD", 0)
        seed_mask = derive_seed(spec.master_seed, (5, trial), "VGD", 0)
        for alg, lam in _alg_lam_list(spec):
            results[(alg, lam)].append(_trial(
                spec, alg, lam, spec.r, spec.p, seed_gt, seed_mask, trial))
    rows = []
    for (alg, lam), trials in results.items():
        ok = [t.seconds_to_target for t in trials
              if t.seconds_to_target is not None]
        row = {"d1": spec.d1, "d2": spec.d2, "r": spec.r,
               "p": repr(spec.p), "kappa": repr(spec.kappa),
               "algorithm": alg if lam is None else f"{alg}(lam={lam:g})",
               "n_ok": len(ok), "n_fail": len(trials) - len(ok),
               "mean_s": repr(float(np.mean(ok))) if ok else "",
               "median_s": repr(float(np.median(ok))) if ok else ""}
        rows.append(row)
    if csv_path is not None:
        _write_csv(csv_path, ["d1", "d2", "r", "p", "kappa", "algorithm",
                              "n_ok", "n_fail", "mean_s", "median_s"], rows)
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
