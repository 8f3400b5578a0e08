"""The four workloads: inputs, one unit of closed-loop work, and checks.

A workload is `setup(seed, tmpdir) -> state`, `unit(state) -> outcome`
(the timed work, repeated) and `verify(state, outcome) -> Check`. Library
functions are looked up through their modules at call time, so the traced
run sees every call.

Inputs and --seed. `large` and `theory` build one reference instance and
relabel it with a signed permutation of rows and columns drawn from the
seed. Gradient descent from the spectral start is equivariant under that
relabelling, so every seed gives a different matrix and mask but the same
amount of work (iteration counts agree to +-1). `headline` and `phase` call
harnesses that draw their instances from a master seed inside the library;
a different master seed changes the work itself (the headline instance
takes 670 to 1367 iterations over master seeds 1..10 and master seed 8 never
reaches 1e-14), so those two stay on the reference master seed and ignore
--seed.
"""

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from lrmc import diagnostics, experiments, solvers, spectral
from lrmc.experiments import ExperimentSpec, derive_seed
from lrmc.model import GroundTruth
from lrmc.sampling import LooSelector, ObservationMask, sample_mask
from lrmc.solvers import SolverConfig, SolverVariant

# Seed whose instances the references below were recorded on.
REFERENCE_MASTER_SEED = 1
PHASE_MASTER_SEED = 0

# Recorded with the library as first checked in (before any optimisation).
HEADLINE_ITERS = {"VGD": 786, "BGD": 786}
LARGE_ITERS = 96
PHASE_SUCCESSES = [[3, 4, 4, 4, 4], [0, 4, 4, 4, 4], [0, 0, 4, 4, 4]]
THEORY_MAIN_ITERS = 245
THEORY_LOO_ITERS = [244, 244, 244, 244, 243, 239, 239, 232]
ITER_SLACK = 1

# Oracle slack: the dense recomputation sums in another order than the
# library, which moves a relative error near tol by a few ulps of ||M*||.
ORACLE_RTOL = 1e-3


@dataclass
class Check:
    """Solves attempted and failed, and a note for every failed check."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)

    def solve(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def oracle_rel_err(f, m_star):
    """Dense numpy ||X Y.T - M*||_F / ||M*||_F, independent of lrmc."""
    return float(np.linalg.norm(f.x @ f.y.T - m_star)
                 / np.linalg.norm(m_star))


def check_run(check, label, res, m_star, tol, ref_iters):
    rel = oracle_rel_err(res.final, m_star)
    reported = res.trace.relative_error[-1]
    ok = (res.status == "converged"
          and abs(res.iterations - ref_iters) <= ITER_SLACK
          and rel < tol * (1 + ORACLE_RTOL)
          and abs(rel - reported) <= ORACLE_RTOL * tol)
    check.solve(ok, f"{label}: status {res.status}, {res.iterations} "
                    f"iterations (reference {ref_iters}), oracle rel err "
                    f"{rel:.3e}, reported {reported:.3e}, tol {tol:.0e}")


def reference_instance(d1, d2, r, kappa, p):
    """The instance run_convergence would draw at this size for trial 0 at
    master seed 1."""
    gt = experiments.gen_ground_truth(
        d1, d2, r, kappa, derive_seed(REFERENCE_MASTER_SEED, (0, 0), "VGD", 0))
    mask = sample_mask(d1, d2, p,
                       derive_seed(REFERENCE_MASTER_SEED, (1, 0), "VGD", 0))
    return gt, mask


@dataclass
class Relabel:
    """Signed permutation: new row i is old row perm1[i] times sign1[i]."""

    perm1: np.ndarray
    perm2: np.ndarray
    sign1: np.ndarray
    sign2: np.ndarray

    @classmethod
    def draw(cls, d1, d2, seed):
        rng = np.random.default_rng([seed % (1 << 64), d1, d2])
        return cls(rng.permutation(d1), rng.permutation(d2),
                   rng.choice([-1.0, 1.0], d1), rng.choice([-1.0, 1.0], d2))

    def ground_truth(self, gt):
        m = gt.m_star[self.perm1][:, self.perm2]
        m *= self.sign1[:, None]
        m *= self.sign2[None, :]
        return GroundTruth(u_star=self.sign1[:, None] * gt.u_star[self.perm1],
                           sigma_star=gt.sigma_star,
                           v_star=self.sign2[:, None] * gt.v_star[self.perm2],
                           m_star=m, kappa=gt.kappa, mu=gt.mu)

    def mask(self, mask):
        inv1, inv2 = np.argsort(self.perm1), np.argsort(self.perm2)
        return ObservationMask.from_cells(mask.d1, mask.d2, mask.p,
                                          inv1[mask.rows], inv2[mask.cols],
                                          seed=mask.seed)

    def selector(self, sel, d1):
        """The selector naming the same (relabelled) row or column."""
        t = sel.index(d1)
        if sel.axis(d1) == "row":
            return LooSelector(int(np.argsort(self.perm1)[t]) + 1)
        return LooSelector(d1 + int(np.argsort(self.perm2)[t]) + 1)


def relabelled_instance(d1, d2, r, kappa, p, seed):
    gt, mask = reference_instance(d1, d2, r, kappa, p)
    relabel = Relabel.draw(d1, d2, seed)
    return relabel.ground_truth(gt), relabel.mask(mask), relabel


# --- headline ---------------------------------------------------------------

HEADLINE_SPEC = dict(d1=160, d2=100, r=5, kappa=1.0, p=0.2, step=0.5,
                     trials=1, master_seed=REFERENCE_MASTER_SEED,
                     algorithms=("VGD", "BGD"), max_iters=5000, tol=1e-14)


def headline_setup(seed, tmpdir):
    return {"spec": ExperimentSpec(**HEADLINE_SPEC),
            "csv": os.path.join(tmpdir, "convergence.csv")}


def headline_unit(state):
    return experiments.run_convergence(state["spec"], csv_path=state["csv"],
                                       compute_dist=True, record_every=1)


def headline_verify(state, rows):
    check = Check()
    with open(state["csv"], newline="") as fh:
        csv_ok = list(csv.DictReader(fh)) == [
            {k: str(v) for k, v in row.items()} for row in rows]
    tol = state["spec"].tol
    for alg, ref in HEADLINE_ITERS.items():
        mine = [r for r in rows if r["algorithm"] == alg] or [
            {"k": -1, "rel_err": "nan", "dist": "nan"}]
        ks = [r["k"] for r in mine]
        rel = float(mine[-1]["rel_err"])
        d0, d1 = float(mine[0]["dist"]), float(mine[-1]["dist"])
        check.observed[f"{alg}.iterations"] = ks[-1]
        ok = (csv_ok and ks == list(range(len(ks)))
              and abs(ks[-1] - ref) <= ITER_SLACK and rel < tol
              and np.isfinite(d0) and d1 < 1e-3 * d0)
        check.solve(ok, f"{alg}: CSV matches rows {csv_ok}, {ks[-1]} "
                        f"iterations (reference {ref}), terminal rel err "
                        f"{rel:.3e}, dist {d0:.3e} -> {d1:.3e}")
    return check


# --- large ------------------------------------------------------------------

LARGE_DIMS = (2000, 1500)
LARGE_RANK = 5


def large_setup(seed, tmpdir):
    d1, d2 = LARGE_DIMS
    gt, mask, _ = relabelled_instance(d1, d2, LARGE_RANK, 1.0, 0.05, seed)
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=0.5,
                       max_iters=5000, tol=1e-10, record_every=5000)
    return {"gt": gt, "mask": mask, "cfg": cfg}


def large_unit(state):
    gt, mask = state["gt"], state["mask"]
    init = spectral.spectral_init(gt, mask, LARGE_RANK)
    return solvers.run(gt, mask, state["cfg"], init)


def large_verify(state, res):
    check = Check()
    check.observed["iterations"] = res.iterations
    check_run(check, "VGD", res, state["gt"].m_star, state["cfg"].tol,
              LARGE_ITERS)
    return check


# --- phase ------------------------------------------------------------------

PHASE_SPEC = dict(d1=80, d2=60, r=2, kappa=3.0, step=0.5, trials=4,
                  master_seed=PHASE_MASTER_SEED, max_iters=5000,
                  p_grid=(0.2, 0.3, 0.4, 0.5, 0.6), r_grid=(2, 6, 10),
                  algorithms=("VGD",), jobs=1)


def phase_setup(seed, tmpdir):
    return {"spec": ExperimentSpec(**PHASE_SPEC)}


def phase_unit(state):
    return experiments.run_phase(state["spec"])


def phase_verify(state, grid):
    # Trials that run to the cap are expected outcomes: a trial fails the
    # check only when its cell's success count differs from the reference.
    check = Check()
    got = grid.successes.tolist()
    check.observed["successes"] = got
    for ri, r in enumerate(grid.r_values):
        for pi, p in enumerate(grid.p_values):
            diff = abs(got[ri][pi] - PHASE_SUCCESSES[ri][pi])
            for t in range(grid.trials):
                check.solve(t >= diff,
                            f"cell r={r} p={p}: {got[ri][pi]} successes, "
                            f"reference {PHASE_SUCCESSES[ri][pi]}")
    return check


# --- theory -----------------------------------------------------------------

THEORY_DIMS = (300, 200)
THEORY_RANK = 4
THEORY_P = 0.25
THEORY_STEP = 0.5


def theory_setup(seed, tmpdir):
    d1, d2 = THEORY_DIMS
    gt, mask, relabel = relabelled_instance(d1, d2, THEORY_RANK, 2.0,
                                            THEORY_P, seed)
    sels = tuple(relabel.selector(s, d1)
                 for s in diagnostics.default_selectors(d1, d2))
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=THEORY_STEP,
                       max_iters=5000, tol=1e-13, record_every=5,
                       compute_dist=True, store_factors=True)
    return {"gt": gt, "mask": mask, "cfg": cfg, "sels": sels}


def theory_unit(state):
    gt, mask, cfg = state["gt"], state["mask"], state["cfg"]
    main = solvers.run(gt, mask, cfg,
                       spectral.spectral_init(gt, mask, THEORY_RANK))
    loo = diagnostics.run_loo_family(gt, mask, cfg, state["sels"])
    report = diagnostics.hypothesis_check(main, loo, gt, THEORY_STEP,
                                          THEORY_P)
    return main, loo, report


def theory_verify(state, outcome):
    main, loo, report = outcome
    check = Check()
    tol, m_star = state["cfg"].tol, state["gt"].m_star
    loo_runs = [loo.results[s.l] for s in state["sels"]]
    check.observed["main.iterations"] = main.iterations
    check.observed["loo.iterations"] = [r.iterations for r in loo_runs]
    check_run(check, "main", main, m_star, tol, THEORY_MAIN_ITERS)
    for sel, res, ref in zip(state["sels"], loo_runs, THEORY_LOO_ITERS):
        check_run(check, f"loo l={sel.l}", res, m_star, tol, ref)
    clauses = {row.clause for row in report.rows}
    check.observed["hypothesis.rows"] = len(report.rows)
    if clauses != set("abcde") or not np.isfinite(report.fraction_satisfied):
        check.notes.append(f"hypothesis report incomplete: clauses "
                           f"{sorted(clauses)}, fraction satisfied "
                           f"{report.fraction_satisfied}")
    return check


# Solves one unit attempts, counted as failed when the unit raises.
SOLVES = {"headline": len(HEADLINE_ITERS), "large": 1,
          "phase": (len(PHASE_SPEC["p_grid"]) * len(PHASE_SPEC["r_grid"])
                    * PHASE_SPEC["trials"]),
          "theory": 1 + len(THEORY_LOO_ITERS)}

WORKLOADS = {
    "headline": (headline_setup, headline_unit, headline_verify),
    "large": (large_setup, large_unit, large_verify),
    "phase": (phase_setup, phase_unit, phase_verify),
    "theory": (theory_setup, theory_unit, theory_verify),
}
