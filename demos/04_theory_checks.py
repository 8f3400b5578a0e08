"""Verify the convergence theory numerically on one instance.

Along an instrumented run this script checks:
  - the per-step contraction of the aligned distance to the target factors,
  - that the norm imbalance ||X.T X - Y.T Y|| starts at zero and stays
    within its predicted drift bound even though nothing enforces it,
  - the five per-iterate proximity bounds, using leave-one-out companion
    runs where one row or column is treated as fully observed,
  - a sampling-concentration spot check of the rescaled observation
    operator.

The bounds carry unspecified theory constants (set to 1 here), so the
per-clause output reports slack rather than a theorem verdict.
"""

from lrmc import SolverConfig, SolverVariant, run
from lrmc.diagnostics import (balancing_drift_check, concentration_check,
                              contraction_check, default_selectors,
                              hypothesis_check, run_loo_family)
from lrmc.experiments import gen_ground_truth
from lrmc.sampling import sample_mask
from lrmc.spectral import spectral_init

gt = gen_ground_truth(d1=60, d2=45, r=3, kappa=2.0, seed=0)
mask = sample_mask(60, 45, p=0.4, seed=1)
cfg = SolverConfig(variant=SolverVariant.vanilla(), step=0.5,
                   max_iters=1500, tol=1e-13, record_every=25,
                   compute_dist=True, store_factors=True)
main = run(gt, mask, cfg, spectral_init(gt, mask, 3))
print(f"main run: {main.status} after {main.iterations} iterations")

con = contraction_check(main.trace.dist_to_truth, s=0.5,
                        sigma_min=gt.sigma_min)
print(f"contraction: worst ratio {con.worst_ratio:.4f} vs "
      f"factor {con.factor:.4f} -> {'ok' if con.all_satisfied else 'NO'}")

drift = balancing_drift_check(main.trace.balancing_norm, gt.kappa, 0.5,
                              gt.sigma_max, main.trace.dist_to_truth[0])
print(f"imbalance: initial {drift.initial:.2e} "
      f"(zero: {'ok' if drift.initial_ok else 'NO'}), "
      f"max drift {drift.max_drift:.2e} <= bound {drift.bound:.2e} "
      f"-> {'ok' if drift.drift_ok else 'NO'}")

sels = default_selectors(60, 45, n_rows=3, n_cols=3)
loo = run_loo_family(gt, mask, cfg, sels)
report = hypothesis_check(main, loo, gt, s=0.5, p=0.4)
print(f"\nproximity bounds over {len(sels)} leave-one-out runs "
      f"({report.fraction_satisfied:.0%} of rows satisfied):")
for clause in "abcde":
    rows = [r for r in report.clause_rows(clause) if r.evaluable]
    hit = sum(r.satisfied for r in rows)
    worst = max((r.lhs / r.rhs for r in rows), default=float("nan"))
    print(f"  clause {clause}: {hit}/{len(rows)} satisfied, "
          f"worst lhs/rhs = {worst:.3f}")

ratio = concentration_check(mask, trials=50, seed=2)
print(f"\nconcentration spot check: worst observed ratio {ratio:.4f} "
      "(constant set to 1)")
