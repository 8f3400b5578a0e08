import dataclasses

import numpy as np
import pytest

from lrmc import diagnostics
from lrmc.diagnostics import (CONTRACTION_DENOMINATOR, HypothesisRow,
                              _bounds, balancing_drift_check,
                              concentration_check, contraction_check,
                              default_selectors, hypothesis_check,
                              run_loo_family)
from lrmc.experiments import gen_ground_truth
from lrmc.linalg import frobenius_norm, spectral_norm
from lrmc.metrics import _align_stack, _procrustes, procrustes_align
from lrmc.model import FactorPair
from lrmc.sampling import sample_mask
from lrmc.solvers import IterateTrace, SolverConfig, SolverVariant, run
from lrmc.spectral import spectral_init


def test_contraction_geometric_sequence():
    dists = [1.0 * 0.9 ** k for k in range(10)]
    rep = contraction_check(dists, s=0.5, sigma_min=20.0)
    # factor = 1 - 0.5*20/100 = 0.9, met with equality
    assert rep.factor == pytest.approx(0.9)
    assert rep.all_satisfied
    assert rep.worst_ratio == pytest.approx(0.9)


def test_contraction_flags_slow_step():
    rep = contraction_check([1.0, 0.99], s=0.5, sigma_min=20.0)
    assert not rep.all_satisfied
    assert rep.worst_ratio == pytest.approx(0.99)


def test_contraction_short_trace_vacuous():
    rep = contraction_check([1.0], s=0.5, sigma_min=1.0)
    assert rep.all_satisfied and rep.ratios.size == 0


def test_balancing_drift_flags():
    rep = balancing_drift_check([0.0, 1e-3, 2e-3], kappa=1.0, s=0.5,
                                sigma_max=1.0, dist0=0.1)
    assert rep.initial_ok
    assert rep.bound == pytest.approx(7400 * 0.5 * 0.01)
    assert rep.drift_ok
    bad = balancing_drift_check([0.5, 0.1], kappa=1.0, s=0.5,
                                sigma_max=1.0, dist0=0.1)
    assert not bad.initial_ok


def test_concentration_zero_at_full_observation():
    mask = sample_mask(20, 16, 1.0, seed=0)
    assert concentration_check(mask, trials=5, seed=1) < 1e-12


def test_concentration_finite_and_validated():
    mask = sample_mask(60, 40, 0.2, seed=2)
    ratio = concentration_check(mask, trials=20, seed=3)
    assert np.isfinite(ratio) and ratio > 0.0
    with pytest.raises(ValueError):
        concentration_check(mask, trials=0, seed=0)


def test_concentration_shrinks_with_denser_sampling():
    # average over a few seeds; the ratio should drop as p grows
    lo, hi = [], []
    for seed in range(4):
        m_lo = sample_mask(60, 40, 0.1, seed=10 + seed)
        m_hi = sample_mask(60, 40, 0.8, seed=10 + seed)
        lo.append(concentration_check(m_lo, trials=10, seed=seed))
        hi.append(concentration_check(m_hi, trials=10, seed=seed))
    assert np.mean(hi) < np.mean(lo)


def test_default_selectors_cover_both_axes():
    sels = default_selectors(10, 7)
    ls = [s.l for s in sels]
    assert len(set(ls)) == len(ls)
    assert any(l <= 10 for l in ls) and any(l > 10 for l in ls)
    for s in sels:
        s.validate(10, 7)


@pytest.fixture(scope="module")
def small_theory_run():
    gt = gen_ground_truth(30, 20, 3, 1.0, seed=0)
    mask = sample_mask(30, 20, 0.5, seed=1)
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=0.5,
                       max_iters=250, tol=1e-13, record_every=50,
                       compute_dist=True, store_factors=True)
    main = run(gt, mask, cfg, spectral_init(gt, mask, 3))
    sels = default_selectors(30, 20, n_rows=2, n_cols=2)
    loo = run_loo_family(gt, mask, cfg, sels)
    return gt, mask, cfg, main, loo


def test_loo_family_runs_all_selectors(small_theory_run):
    gt, mask, cfg, main, loo = small_theory_run
    assert set(loo.results) == {s.l for s in loo.selectors}
    for res in loo.results.values():
        assert res.factors is not None
        assert res.trace.k[0] == 0


def test_hypothesis_report_structure(small_theory_run):
    gt, mask, cfg, main, loo = small_theory_run
    rep = hypothesis_check(main, loo, gt, s=0.5, p=0.5)
    clauses = {r.clause for r in rep.rows}
    assert clauses == {"a", "b", "c", "d", "e"}
    assert 0.0 <= rep.fraction_satisfied <= 1.0
    for r in rep.rows:
        if r.evaluable:
            assert np.isfinite(r.lhs) and np.isfinite(r.rhs)
            assert r.slack == r.rhs - r.lhs


def test_hypothesis_clause_d_follows_contraction(small_theory_run):
    gt, mask, cfg, main, loo = small_theory_run
    contraction = contraction_check(main.trace.dist_to_truth, 0.5,
                                    gt.sigma_min)
    rep = hypothesis_check(main, loo, gt, s=0.5, p=0.5)
    if contraction.all_satisfied:
        assert all(r.satisfied for r in rep.clause_rows("d"))


def test_hypothesis_clause_d_needs_no_recorded_dist(small_theory_run):
    # Clause (d) comes from hypothesis_check's own alignment: a run without
    # compute_dist gets the same report, and its left-hand sides are the
    # recorded distances, bit for bit.
    gt, mask, cfg, main, loo = small_theory_run
    bare = run(gt, mask, dataclasses.replace(cfg, compute_dist=False),
               spectral_init(gt, mask, 3))
    assert not bare.trace.dist_to_truth
    rep = hypothesis_check(main, loo, gt, s=0.5, p=0.5)
    assert hypothesis_check(bare, loo, gt, s=0.5, p=0.5).rows == rep.rows
    assert [r.lhs for r in rep.clause_rows("d")] == main.trace.dist_to_truth


def _loo_clauses_one_at_a_time(main, loo, gt):
    """Clauses (b) and (c) with one procrustes_align call per selector and
    k, the reference for the stacked alignments of hypothesis_check."""
    f_star = gt.optimal_pair()
    star = f_star.stacked()
    out = {}
    for i, k in enumerate(main.trace.k):
        if not all(k in res.trace.k for res in loo.results.values()):
            continue
        f = main.factors[i]
        aligned = f.stacked() @ procrustes_align(f, f_star).matrix
        target = FactorPair(aligned[:gt.d1], aligned[gt.d1:])
        lhs_b = lhs_c = 0.0
        for sel in loo.selectors:
            res = loo.results[sel.l]
            f_l = res.factors[res.trace.k.index(k)]
            o_l = procrustes_align(f_l, f_star).matrix
            row = (f_l.stacked() @ o_l - star)[sel.l - 1]
            lhs_b = np.maximum(lhs_b, np.linalg.norm(row))
            r_l = procrustes_align(f_l, target).matrix
            lhs_c = np.maximum(lhs_c, frobenius_norm(
                aligned - f_l.stacked() @ r_l))
        out[k, "b"], out[k, "c"] = float(lhs_b), float(lhs_c)
    return out


def test_hypothesis_loo_clauses_match_single_alignments():
    # The runs end at different iterations off the stride, so only some of
    # the main run's k are shared by the whole family.
    gt = gen_ground_truth(30, 20, 3, 1.0, seed=0)
    mask = sample_mask(30, 20, 0.5, seed=1)
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=0.5,
                       max_iters=400, tol=1e-10, record_every=20,
                       compute_dist=True, store_factors=True)
    main = run(gt, mask, cfg, spectral_init(gt, mask, 3))
    loo = run_loo_family(gt, mask, cfg, default_selectors(30, 20, 2, 2))
    rep = hypothesis_check(main, loo, gt, s=0.5, p=0.5)
    got = {(r.k, r.clause): r.lhs for r in rep.rows if r.clause in "bc"}
    expected = _loo_clauses_one_at_a_time(main, loo, gt)
    assert 0 < len(expected) < 2 * len(main.trace.k)
    assert got == expected  # bitwise


@np.errstate(over="ignore", invalid="ignore")
def _hypothesis_rows_all_at_once(main, loo, gt, s, p):
    """hypothesis_check with every record in one stack: all main iterates
    aligned in one _align_stack call, and each selector's shared records in
    two _procrustes calls. The reference for its slices."""
    f_star = gt.optimal_pair()
    star = f_star.stacked()
    scale = spectral_norm(star)
    rhs_a, rhs_b, rhs_c, rhs_e = _bounds(gt, s, p)
    factor = 1.0 - s * gt.sigma_min / CONTRACTION_DENOMINATOR
    q_all, o_all, gl_res, gl_converged = _align_stack(
        np.stack([f.x for f in main.factors]),
        np.stack([f.y for f in main.factors]), f_star)
    aligned = [f.stacked() @ o for f, o in zip(main.factors, o_all)]

    common = set(main.trace.k)
    for res in loo.results.values():
        common &= set(res.trace.k)
    at = [i for i, k in enumerate(main.trace.k) if k in common]
    lhs_b = lhs_c = {}
    if loo.selectors and at:
        ks = [main.trace.k[i] for i in at]
        d1 = gt.d1
        target = np.stack([aligned[i] for i in at])
        b = c = np.zeros(len(ks))
        for sel in loo.selectors:
            res = loo.results[sel.l]
            loo_idx = {k: i for i, k in enumerate(res.trace.k)}
            f_l = [res.factors[loo_idx[k]] for k in ks]
            x_l = np.stack([f.x for f in f_l])
            y_l = np.stack([f.y for f in f_l])
            stacked_l = np.concatenate((x_l, y_l), axis=1)
            o_l = _procrustes(x_l, y_l, f_star.x, f_star.y)[0]
            r_l = _procrustes(x_l, y_l, target[:, :d1], target[:, d1:])[0]
            rows = (stacked_l @ o_l)[:, sel.l - 1] - star[sel.l - 1]
            b = np.maximum(b, [np.linalg.norm(v) for v in rows])
            c = np.maximum(c, [frobenius_norm(v)
                               for v in target - stacked_l @ r_l])
        lhs_b, lhs_c = dict(zip(ks, b)), dict(zip(ks, c))

    out = []

    def add(k, clause, lhs, rhs, satisfied, evaluable=True, vacuous=False):
        finite = bool(np.isfinite(lhs))
        out.append(HypothesisRow(
            k=k, clause=clause, lhs=float(lhs), rhs=float(rhs),
            satisfied=bool(finite and satisfied),
            evaluable=bool(finite and evaluable), vacuous=bool(vacuous)))

    for i, k in enumerate(main.trace.k):
        lhs_a = spectral_norm(aligned[i] - star)
        add(k, "a", lhs_a, rhs_a, lhs_a <= rhs_a, vacuous=rhs_a > scale)
        if k in lhs_b:
            add(k, "b", lhs_b[k], rhs_b, lhs_b[k] <= rhs_b,
                vacuous=rhs_b > scale)
            add(k, "c", lhs_c[k], rhs_c, lhs_c[k] <= rhs_c,
                vacuous=rhs_c > scale)
        rhs_d = factor ** k * gl_res[0]
        add(k, "d", gl_res[i], rhs_d, gl_res[i] <= rhs_d)
        lhs_e = (spectral_norm(q_all[i] - o_all[i])
                 if np.isfinite(gl_res[i]) else np.nan)
        add(k, "e", lhs_e, rhs_e, lhs_e <= rhs_e, evaluable=gl_converged[i])
    return out


def _exact(rows):
    """Rows as comparable tuples, floats by repr: bitwise, nan included."""
    return [(r.k, r.clause, repr(r.lhs), repr(r.rhs), r.satisfied,
             r.evaluable, r.vacuous) for r in rows]


@pytest.fixture(scope="module")
def nine_record_run():
    """A main run of 9 records (k = 0..8) and a family that stops at k = 5."""
    gt = gen_ground_truth(30, 20, 3, 2.0, seed=0)
    mask = sample_mask(30, 20, 0.5, seed=1)
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=0.5,
                       max_iters=8, tol=1e-15, record_every=1,
                       store_factors=True)
    main = run(gt, mask, cfg, spectral_init(gt, mask, 3))
    loo = run_loo_family(gt, mask, dataclasses.replace(cfg, max_iters=5),
                         default_selectors(30, 20, 2, 2))
    assert main.trace.k == list(range(9))
    return gt, main, loo


@pytest.mark.parametrize("records", [1, 3, 4, 5, 9])
def test_hypothesis_slices_match_all_records_at_once(nine_record_run,
                                                      records, monkeypatch):
    # Slices of 4 records: 1, chunk - 1, chunk, chunk + 1 and 2 chunk + 1
    # records. At 9 records the second slice is partly, and the third
    # wholly, past the family's last record, so without (b) and (c).
    monkeypatch.setattr(diagnostics, "DIST_CHUNK", 4)
    gt, main, loo = nine_record_run
    trace = IterateTrace(**{f.name: getattr(main.trace, f.name)[:records]
                            for f in dataclasses.fields(main.trace)})
    main = dataclasses.replace(main, trace=trace,
                               factors=main.factors[:records])
    rep = hypothesis_check(main, loo, gt, s=0.5, p=0.5)
    expected = _hypothesis_rows_all_at_once(main, loo, gt, s=0.5, p=0.5)
    assert _exact(rep.rows) == _exact(expected)
    assert len(rep.clause_rows("b")) == min(records, 6)


def test_hypothesis_csv_roundtrip(small_theory_run, tmp_path):
    import csv
    gt, mask, cfg, main, loo = small_theory_run
    rep = hypothesis_check(main, loo, gt, s=0.5, p=0.5)
    path = tmp_path / "hyp.csv"
    rep.to_csv(path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(rep.rows)
    assert set(rows[0]) == {"k", "clause", "lhs", "rhs", "slack", "satisfied"}
    assert float(rows[0]["lhs"]) == rep.rows[0].lhs


def test_hypothesis_full_observation_collapse():
    # with everything observed the leave-one-out problems coincide with the
    # imbalance-penalized problem, so clause (c) is exactly zero and the
    # invertible alignment agrees with the orthogonal one at k=0
    gt = gen_ground_truth(16, 12, 2, 1.0, seed=5)
    mask = sample_mask(16, 12, 1.0, seed=6)
    cfg = SolverConfig(variant=SolverVariant.balancing(), step=0.5,
                       max_iters=120, tol=1e-13, record_every=30,
                       compute_dist=True, store_factors=True)
    main = run(gt, mask, cfg, spectral_init(gt, mask, 2))
    sels = default_selectors(16, 12, n_rows=2, n_cols=2)
    loo = run_loo_family(gt, mask, cfg, sels)
    for sel in sels:
        for fa, fb in zip(main.factors, loo.results[sel.l].factors):
            assert (fa.x == fb.x).all() and (fa.y == fb.y).all()
    rep = hypothesis_check(main, loo, gt, s=0.5, p=1.0)
    for r in rep.clause_rows("c"):
        assert r.lhs < 1e-10
    e0 = rep.clause_rows("e")[0]
    assert e0.k == 0 and e0.lhs <= e0.rhs


def test_hypothesis_rows_with_nonfinite_lhs_are_unevaluable():
    # A diverged run overflows: its rows are reported, not failed, and the
    # check raises no numpy RuntimeWarning.
    import warnings
    gt = gen_ground_truth(30, 20, 2, 1.0, seed=0)
    mask = sample_mask(30, 20, 0.5, seed=1)
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=1e200,
                       max_iters=50, compute_dist=True, store_factors=True)
    main = run(gt, mask, cfg, spectral_init(gt, mask, 2))
    loo = run_loo_family(gt, mask, cfg, default_selectors(30, 20, 1, 1))
    assert main.status == "diverged"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = hypothesis_check(main, loo, gt, s=1e200, p=0.5)
    bad = [r for r in rep.rows if not np.isfinite(r.lhs)]
    assert bad and not any(r.evaluable or r.satisfied for r in bad)
    assert {r.clause for r in bad} >= {"d", "e"}
