"""Numeric verification of the convergence theory.

These checkers evaluate, along recorded runs, the inequalities the analysis
relies on: the per-step contraction factor, the five induction bounds with
their leave-one-out companion sequences, the drift of the norm-imbalance
term, and sampling-concentration spot checks. The unspecified constants of
the theory are set to 1, so reports carry slack values rather than
pass/fail theorem claims. The induction bounds are evaluated over a run's
records in slices of DIST_CHUNK, each slice's iterates aligned in stacked
calls, so the checker's working set is one slice, however many records the
run holds.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .experiments import _write_csv
from .linalg import frobenius_norm, spectral_norm
from .metrics import _align_stack, _procrustes
from .model import _check_int
from .sampling import LooSelector, project
from .solvers import DIST_CHUNK, SolverVariant, run
from .spectral import loo_init

__all__ = [
    "ContractionReport",
    "BalancingDriftReport",
    "HypothesisRow",
    "HypothesisReport",
    "LooFamily",
    "contraction_check",
    "balancing_drift_check",
    "concentration_check",
    "run_loo_family",
    "default_selectors",
    "hypothesis_check",
]

BALANCING_DRIFT_FACTOR = 7400.0
CONTRACTION_DENOMINATOR = 100.0


@dataclass
class ContractionReport:
    factor: float          # 1 - s*sigma_min/100
    ratios: np.ndarray     # dist_{k+1}/dist_k per step
    satisfied: np.ndarray  # per-step flags
    worst_ratio: float
    all_satisfied: bool


def contraction_check(dists, s, sigma_min):
    """Check dist_{k+1} <= (1 - s*sigma_min/100) * dist_k at every step."""
    dists = np.asarray(dists, dtype=np.float64)
    factor = 1.0 - s * sigma_min / CONTRACTION_DENOMINATOR
    if dists.size < 2:
        return ContractionReport(factor=factor, ratios=np.empty(0),
                                 satisfied=np.empty(0, dtype=bool),
                                 worst_ratio=0.0, all_satisfied=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = dists[1:] / dists[:-1]
    satisfied = dists[1:] <= factor * dists[:-1]
    finite = ratios[np.isfinite(ratios)]
    worst = float(np.max(finite)) if finite.size else 0.0
    return ContractionReport(factor=factor, ratios=ratios,
                             satisfied=satisfied, worst_ratio=worst,
                             all_satisfied=bool(np.all(satisfied)))


@dataclass
class BalancingDriftReport:
    initial: float
    initial_ok: bool       # starts at (numerically) zero imbalance
    bound: float           # 7400 * kappa * s * sigma_max * dist0^2
    max_drift: float
    drift_ok: bool


def balancing_drift_check(balancing_trace, kappa, s, sigma_max, dist0):
    """Check zero initial imbalance and the drift bound along a run."""
    trace = np.asarray(balancing_trace, dtype=np.float64)
    initial = float(trace[0])
    bound = BALANCING_DRIFT_FACTOR * kappa * s * sigma_max * dist0 ** 2
    max_drift = float(np.max(trace))
    return BalancingDriftReport(
        initial=initial,
        initial_ok=initial <= 1e-10 * sigma_max,
        bound=bound,
        max_drift=max_drift,
        drift_ok=max_drift <= bound)


def concentration_check(mask, trials, seed):
    """Worst observed ratio of |<(p^-1 P_Omega - I)(Xa Ya.T), Xb Yb.T>| to
    its concentration bound with the constant set to 1, where p = mask.p.

    A diagnostic (the theory's constant is unspecified), not a pass/fail.
    """
    _check_int(trials, "trials")
    rng = np.random.default_rng(seed)
    d1, d2, p = mask.d1, mask.d2, mask.p
    r = max(1, min(d1, d2) // 8)
    dmax = max(d1, d2)
    worst = 0.0
    for _ in range(trials):
        xa, xb = rng.standard_normal((2, d1, r))
        ya, yb = rng.standard_normal((2, d2, r))
        ma = xa @ ya.T
        lhs = abs(float(np.sum((project(ma, mask) / p - ma) * (xb @ yb.T))))
        row_norm = lambda m: float(np.max(np.linalg.norm(m, axis=1)))
        rhs = (math.sqrt(dmax / p)
               * min(frobenius_norm(xa) * row_norm(xb),
                     row_norm(xa) * frobenius_norm(xb))
               * min(frobenius_norm(ya) * row_norm(yb),
                     row_norm(ya) * frobenius_norm(yb)))
        if lhs > 0 and rhs > 0:
            worst = max(worst, lhs / rhs)
    return worst


@dataclass
class LooFamily:
    """Leave-one-out runs aligned with a main run's recording stride."""

    selectors: tuple
    results: dict  # l -> RunResult with stored factors


def default_selectors(d1, d2, n_rows=4, n_cols=4):
    """Evenly spaced row and column selectors over 1..d1+d2."""
    rows = np.unique(np.linspace(1, d1, num=min(n_rows, d1), dtype=int))
    cols = np.unique(np.linspace(d1 + 1, d1 + d2, num=min(n_cols, d2),
                                 dtype=int))
    return tuple(LooSelector(int(l)) for l in np.concatenate([rows, cols]))


def run_loo_family(gt, mask, config, selectors):
    """Run the leave-one-out solver from its own spectral initialization for
    each selector, recording iterates at the given stride."""
    results = {}
    for sel in selectors:
        cfg = replace(config, variant=SolverVariant.leave_one_out(sel),
                      compute_dist=False, store_factors=True)
        init = loo_init(gt, mask, gt.r, sel)
        results[sel.l] = run(gt, mask, cfg, init)
    return LooFamily(selectors=tuple(selectors), results=results)


@dataclass
class HypothesisRow:
    k: int
    clause: str
    lhs: float
    rhs: float
    satisfied: bool
    evaluable: bool = True
    vacuous: bool = False

    @property
    def slack(self):
        return self.rhs - self.lhs


@dataclass
class HypothesisReport:
    rows: list = field(default_factory=list)

    @property
    def fraction_satisfied(self):
        ev = [r for r in self.rows if r.evaluable]
        if not ev:
            return float("nan")
        return sum(r.satisfied for r in ev) / len(ev)

    def clause_rows(self, clause):
        return [r for r in self.rows if r.clause == clause]

    def to_csv(self, path):
        header = ["k", "clause", "lhs", "rhs", "slack", "satisfied"]
        _write_csv(path, header, (
            dict(zip(header, (r.k, r.clause, repr(r.lhs), repr(r.rhs),
                              repr(r.slack), int(r.satisfied))))
            for r in self.rows))


def _bounds(gt, s, p):
    """Right-hand sides of the five induction bounds (constants as printed,
    dimensions taken as max/min to cover either orientation)."""
    dmax, dmin = max(gt.d1, gt.d2), min(gt.d1, gt.d2)
    logd = math.log(dmax)
    mu, r, kap = gt.mu, gt.r, gt.kappa
    smax, smin = gt.sigma_max, gt.sigma_min
    rhs_a = (s * smin + math.sqrt(mu * r * kap ** 6 * logd / (p * dmin))) \
        * math.sqrt(smax)
    rhs_b = (1e3 * s * kap ** 2 * smin
             + 1e2 * math.sqrt(mu ** 2 * r ** 2 * kap ** 14 * logd
                               / (p * dmin))) * math.sqrt(mu * r * smax / dmin)
    rhs_c = (s * smin / kap
             + math.sqrt(mu ** 2 * r ** 2 * kap ** 10 * logd
                         / (p * dmin ** 2))) * math.sqrt(smax)
    rhs_e = 1.0 / (400.0 * kap)
    return rhs_a, rhs_b, rhs_c, rhs_e


def _loo_bounds(loo, ks, target, f_star):
    """Left-hand sides of clauses (b) and (c), as dicts over the records ks,
    which every leave-one-out run also recorded, given the aligned main
    iterates F O at them as a (K, d1+d2, r) stack.

    For every selector l, its iterates at ks are Procrustes-aligned in two
    stacked calls: to F* for (b), the row l of F_l O_l - F*, and to F O for
    (c), ||F O - F_l R_l||_F. Each bound is the maximum over the family, nan
    kept.
    """
    if not ks:
        return {}, {}
    d1, star = f_star.x.shape[0], f_star.stacked()
    lhs_b = lhs_c = np.zeros(len(ks))
    for sel in loo.selectors:
        res = loo.results[sel.l]
        f_l = [res.factors[i] for i in np.searchsorted(res.trace.k, ks)]
        stacked_l = np.stack([f.stacked() for f in f_l])
        x_l, y_l = stacked_l[:, :d1], stacked_l[:, d1:]
        o_l = _procrustes(x_l, y_l, f_star.x, f_star.y)[0]
        r_l = _procrustes(x_l, y_l, target[:, :d1], target[:, d1:])[0]
        rows = (stacked_l @ o_l)[:, sel.l - 1] - star[sel.l - 1]
        lhs_b = np.maximum(lhs_b, [np.linalg.norm(v) for v in rows])
        lhs_c = np.maximum(lhs_c, [frobenius_norm(v)
                                   for v in target - stacked_l @ r_l])
    return dict(zip(ks, lhs_b)), dict(zip(ks, lhs_c))


@np.errstate(over="ignore", invalid="ignore")
def hypothesis_check(main, loo, gt, s, p):
    """Evaluate the five induction bounds along a recorded run.

    `main` must be a RunResult with stored factors; `loo` a LooFamily from
    the same instance and stride. The records are taken in slices of
    DIST_CHUNK. A slice's main iterates are GL- and Procrustes-aligned in
    one stacked call, whose GL residuals are the distances of clause (d),
    and the leave-one-out iterates at those of its records that every run
    of the family recorded in two per selector. Clause (d) decays from the
    first record's distance. Each alignment of a stack treats its items
    independently, so the rows do not depend on the slice size.
    Rows whose alignment fails, or whose left-hand side is not finite (a
    diverged run overflows), are marked unevaluable rather than failed. A
    satisfied row is flagged vacuous when its bound exceeds the trivial
    scale ||F*||.
    """
    if main.factors is None:
        raise ValueError("main run must be executed with store_factors=True")
    f_star = gt.optimal_pair()
    f_star_stacked = f_star.stacked()
    scale = spectral_norm(f_star_stacked)
    rhs_a, rhs_b, rhs_c, rhs_e = _bounds(gt, s, p)
    factor = 1.0 - s * gt.sigma_min / CONTRACTION_DENOMINATOR
    common = set(main.trace.k) if loo.selectors else set()
    for res in loo.results.values():
        common &= set(res.trace.k)
    report = HypothesisReport()

    def add(k, clause, lhs, rhs, satisfied, evaluable=True, vacuous=False):
        finite = bool(np.isfinite(lhs))
        report.rows.append(HypothesisRow(
            k=k, clause=clause, lhs=float(lhs), rhs=float(rhs),
            satisfied=bool(finite and satisfied),
            evaluable=bool(finite and evaluable), vacuous=bool(vacuous)))

    for start in range(0, len(main.factors), DIST_CHUNK):
        ks = main.trace.k[start:start + DIST_CHUNK]
        stacked = np.stack([f.stacked()
                            for f in main.factors[start:start + DIST_CHUNK]])
        q, o, gl_res, gl_converged = _align_stack(
            stacked[:, :gt.d1], stacked[:, gt.d1:], f_star)
        aligned = stacked @ o
        del stacked  # from here only the aligned iterates are needed
        if start == 0:
            dist0 = gl_res[0]
        shared = [i for i, k in enumerate(ks) if k in common]
        lhs_b, lhs_c = _loo_bounds(loo, [ks[i] for i in shared],
                                   aligned[shared], f_star)

        for i, k in enumerate(ks):
            # (a) spectral-norm proximity of the aligned iterate.
            lhs_a = spectral_norm(aligned[i] - f_star_stacked)
            add(k, "a", lhs_a, rhs_a, lhs_a <= rhs_a, vacuous=rhs_a > scale)

            # (b), (c): worst case over the leave-one-out family.
            if k in lhs_b:
                add(k, "b", lhs_b[k], rhs_b, lhs_b[k] <= rhs_b,
                    vacuous=rhs_b > scale)
                add(k, "c", lhs_c[k], rhs_c, lhs_c[k] <= rhs_c,
                    vacuous=rhs_c > scale)

            # (d) linear decay of the aligned distance from the first
            # record's.
            rhs_d = factor ** k * dist0
            add(k, "d", gl_res[i], rhs_d, gl_res[i] <= rhs_d)

            # (e) proximity of the invertible and orthogonal alignments; a
            # degenerate iterate has a nan GL residual.
            lhs_e = (spectral_norm(q[i] - o[i])
                     if np.isfinite(gl_res[i]) else np.nan)
            add(k, "e", lhs_e, rhs_e, lhs_e <= rhs_e,
                evaluable=gl_converged[i])
    return report
