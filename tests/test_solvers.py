import dataclasses
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from lrmc import sampling, solvers
from lrmc.experiments import derive_seed, gen_ground_truth
from lrmc.linalg import frobenius_norm
from lrmc.metrics import (AlignmentDegenerateError, balancing_norm, dist,
                          relative_error)
from lrmc.model import FactorPair
from lrmc.sampling import (LooSelector, ObservationMask, loo_cells,
                           loo_project, project, sample_mask)
from lrmc.solvers import (SolverConfig, SolverVariant, gradient, objective,
                          run, step)
from lrmc.spectral import loo_init, spectral_init

VARIANTS = [
    SolverVariant.vanilla(),
    SolverVariant.regularized(1e-3),
    SolverVariant.balancing(),
    SolverVariant.leave_one_out(2),
    SolverVariant.leave_one_out(12),  # column selector for a 10-row target
]


# The layout of every observed matrix, the residual's and the starts', is
# picked from d1 * d2 alone (sampling.DENSE_SIZE_LIMIT); setting the limit
# makes every size below bind the layout named here.
LAYOUT_LIMITS = {"dense": np.iinfo(np.int64).max, "csr": 0}


@pytest.fixture
def layout(request, monkeypatch):
    monkeypatch.setattr(sampling, "DENSE_SIZE_LIMIT",
                        LAYOUT_LIMITS[request.param])
    return request.param


def _assert_layout(layout, gt, mask, variant=SolverVariant.vanilla()):
    """The problem binds the layout the `layout` fixture set."""
    assert solvers._Problem(gt, mask, variant).dense == (layout == "dense")


def _in_both_layouts(values, ids):
    """pytest params for values x layouts; the dense layout keeps the bare
    id and the CSR/QR layout gets a "-csr" suffix."""
    return [pytest.param(v, lay, id=i if lay == "dense" else f"{i}-csr")
            for v, i in zip(values, ids) for lay in LAYOUT_LIMITS]


def _variant_id(v):
    return v.tag + str(v.sel.l if v.sel else "")


@pytest.fixture(scope="module")
def instance():
    gt = gen_ground_truth(10, 8, 2, 2.0, seed=0)
    mask = sample_mask(10, 8, 0.6, seed=1)
    return gt, mask


def _random_pair(rng, d1, d2, r):
    return FactorPair(rng.standard_normal((d1, r)),
                      rng.standard_normal((d2, r)))


def _fd_gradient(f, gt, mask, variant, h=1e-6):
    g = np.zeros(f.x.size + f.y.size)
    theta = np.concatenate([f.x.ravel(), f.y.ravel()])

    def value(vec):
        x = vec[:f.x.size].reshape(f.x.shape)
        y = vec[f.x.size:].reshape(f.y.shape)
        return objective(FactorPair(x, y), gt, mask, variant)

    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h * (1.0 + abs(theta[i]))
        g[i] = (value(theta + e) - value(theta - e)) / (2.0 * e[i])
    return FactorPair(g[:f.x.size].reshape(f.x.shape),
                      g[f.x.size:].reshape(f.y.shape))


# Dense reference for the solver's residual operator: the residual is
# scattered into a d1 x d2 matrix and multiplied densely.

def _indicator(mask):
    """Boolean d1 x d2 indicator of the mask's cells."""
    out = np.zeros((mask.d1, mask.d2), dtype=bool)
    out[mask.rows, mask.cols] = True
    return out


def _residual_cells(f, gt, mask):
    vals = np.einsum("ij,ij->i", f.x[mask.rows], f.y[mask.cols])
    return vals - gt.m_star[mask.rows, mask.cols]


def _scatter(mask, vals):
    out = np.zeros((mask.d1, mask.d2))
    out[mask.rows, mask.cols] = vals
    return out


def _loo_residual_matrix(f, gt, mask, sel):
    """(1/p) P_{Omega minus line}(R) + P_{line}(R), as a dense matrix."""
    e = _scatter(mask, _residual_cells(f, gt, mask) / mask.p)
    t = sel.index(mask.d1)
    if sel.axis(mask.d1) == "row":
        obs = np.nonzero(_indicator(mask)[t])[0]
        e[t, obs] *= mask.p
        unobs = np.setdiff1d(np.arange(mask.d2), obs, assume_unique=True)
        if unobs.size:
            e[t, unobs] = f.x[t] @ f.y[unobs].T - gt.m_star[t, unobs]
    else:
        obs = np.nonzero(_indicator(mask)[:, t])[0]
        e[obs, t] *= mask.p
        unobs = np.setdiff1d(np.arange(mask.d1), obs)
        if unobs.size:
            e[unobs, t] = f.x[unobs] @ f.y[t] - gt.m_star[unobs, t]
    return e


def _dense_objective(f, gt, mask, variant):
    p = mask.p
    if variant.tag == "leave_one_out":
        g = _loo_residual_matrix(f, gt, mask, variant.sel)
        t = variant.sel.index(mask.d1)
        line = g[t, :] if variant.sel.axis(mask.d1) == "row" else g[:, t]
        val = 0.5 * (p * np.sum(g * g) + (1.0 - p) * np.sum(line * line))
        return val + 0.125 * balancing_norm(f) ** 2
    vals = _residual_cells(f, gt, mask)
    val = vals @ vals / (2.0 * p)
    if variant.tag == "regularized":
        val += 0.5 * variant.lam * (np.sum(f.x * f.x) + np.sum(f.y * f.y))
    if variant.tag == "balancing":
        val += 0.125 * balancing_norm(f) ** 2
    return val


def _dense_gradient(f, gt, mask, variant):
    if variant.tag == "leave_one_out":
        g = _loo_residual_matrix(f, gt, mask, variant.sel)
    else:
        g = _scatter(mask, _residual_cells(f, gt, mask) / mask.p)
    gx, gy = g @ f.y, g.T @ f.x
    if variant.tag == "regularized":
        gx, gy = gx + variant.lam * f.x, gy + variant.lam * f.y
    if variant.tag in ("balancing", "leave_one_out"):
        b = f.x.T @ f.x - f.y.T @ f.y
        gx, gy = gx + 0.5 * f.x @ b, gy - 0.5 * f.y @ b
    return FactorPair(gx, gy)


def _mask_with_empty_lines():
    """A 10 x 8 mask whose row 3 and column 5 have no observed cell."""
    full = _indicator(sample_mask(10, 8, 0.6, seed=1))
    full[3, :] = False
    full[:, 5] = False
    rows, cols = np.nonzero(full)
    return ObservationMask.from_cells(10, 8, 0.6, rows, cols)


ORACLE_MASKS = {
    "bernoulli": lambda: sample_mask(10, 8, 0.6, seed=1),
    "empty_lines": _mask_with_empty_lines,
    "full": lambda: sample_mask(10, 8, 1.0, seed=2),
}

# Selectors 4 and 16 hit the empty row 3 and the empty column 5.
ORACLE_VARIANTS = VARIANTS + [SolverVariant.leave_one_out(4),
                              SolverVariant.leave_one_out(16)]


@pytest.mark.parametrize(
    "mask_name,layout",
    _in_both_layouts(sorted(ORACLE_MASKS), sorted(ORACLE_MASKS)),
    indirect=["layout"])
@pytest.mark.parametrize("variant", ORACLE_VARIANTS, ids=_variant_id)
def test_operator_matches_dense_oracle(mask_name, variant, layout):
    gt = gen_ground_truth(10, 8, 2, 2.0, seed=0)
    mask = ORACLE_MASKS[mask_name]()
    _assert_layout(layout, gt, mask, variant)
    rng = np.random.default_rng(15)
    for _ in range(3):
        f = _random_pair(rng, 10, 8, 2)
        assert objective(f, gt, mask, variant) == pytest.approx(
            _dense_objective(f, gt, mask, variant), rel=1e-12)
        g = gradient(f, gt, mask, variant)
        ref = _dense_gradient(f, gt, mask, variant)
        assert np.allclose(g.x, ref.x, rtol=1e-12, atol=1e-12)
        assert np.allclose(g.y, ref.y, rtol=1e-12, atol=1e-12)


STEP_VARIANTS = [SolverVariant.vanilla(), SolverVariant.leave_one_out(3),
                 SolverVariant.leave_one_out(14)]


@pytest.mark.parametrize(
    "variant,layout",
    _in_both_layouts(STEP_VARIANTS, map(_variant_id, STEP_VARIANTS)),
    indirect=["layout"])
def test_run_steps_match_dense_oracle(variant, layout):
    # Every step of a run, where the operator is reused across iterates,
    # must be the dense-oracle descent step from the recorded iterate.
    gt = gen_ground_truth(12, 9, 2, 2.0, seed=16)
    mask = sample_mask(12, 9, 0.5, seed=17)
    _assert_layout(layout, gt, mask, variant)
    init = spectral_init(gt, mask, 2)
    cfg = SolverConfig(variant=variant, step=0.5, max_iters=15, tol=1e-30,
                       store_factors=True)
    res = run(gt, mask, cfg, init)
    assert len(res.factors) == 16
    for f, nxt in zip(res.factors, res.factors[1:]):
        expected = step(f, _dense_gradient(f, gt, mask, variant), 0.5)
        assert np.allclose(nxt.x, expected.x, rtol=1e-12, atol=1e-14)
        assert np.allclose(nxt.y, expected.y, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("layout", list(LAYOUT_LIMITS), indirect=True)
def test_run_relative_error_matches_dense_at_converged_iterates(layout):
    gt = gen_ground_truth(60, 40, 3, 2.0, seed=18)
    mask = sample_mask(60, 40, 0.4, seed=19)
    _assert_layout(layout, gt, mask)
    init = spectral_init(gt, mask, 3)
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=0.5,
                       tol=1e-14, store_factors=True)
    res = run(gt, mask, cfg, init)
    assert res.status == "converged"
    pairs = [(rel, relative_error(f, gt.m_star))
             for rel, f in zip(res.trace.relative_error, res.factors)
             if rel < 1e-10]
    assert len(pairs) > 10
    assert max(abs(a - b) for a, b in pairs) <= 1e-16


@pytest.mark.parametrize(
    "variant", [SolverVariant.vanilla(), SolverVariant.balancing(),
                SolverVariant.leave_one_out(2),
                SolverVariant.leave_one_out(33)], ids=_variant_id)
def test_dense_load_matches_two_buffer_reference(variant):
    # The dense layout forms the residual in S and scales it there in
    # place. The relative error and S equal, bit for bit, those of a
    # residual held in a buffer of its own and then multiplied by W.
    gt = gen_ground_truth(30, 20, 3, 2.0, seed=21)
    mask = sample_mask(30, 20, 0.3, seed=22)
    f = _random_pair(np.random.default_rng(23), 30, 20, 3)
    problem = solvers._Problem(gt, mask, variant)
    assert problem.dense
    rel = problem.load(f.x, f.y)

    cells, div = mask, mask.p
    if variant.sel is not None:
        cells, div = loo_cells(mask, variant.sel)
    w = np.zeros((30, 20))
    w[cells.rows, cells.cols] = 1.0 / div
    d = (aug := np.block([[-(gt.u_star * gt.sigma_star).T, gt.v_star.T],
                          [f.x.T, f.y.T]]))[:, :30].T @ aug[:, 30:]
    s_ref = d * w
    assert rel == frobenius_norm(d) / frobenius_norm(gt.m_star)
    assert problem.s.tobytes() == s_ref.tobytes()
    # The data term, read from S alone, is (1/2) <D, S> up to rounding.
    data = 0.5 * float(np.vdot(d, s_ref))
    bal = 0.125 * balancing_norm(f) ** 2 if problem.balanced else 0.0
    assert problem.objective() == pytest.approx(data + bal, rel=1e-13)


@pytest.mark.parametrize("d1, d2, r", [(80, 60, 10), (160, 100, 5),
                                       (300, 200, 4), (400, 300, 5)],
                         ids=lambda v: str(v))
@pytest.mark.parametrize(
    "variant", [SolverVariant.vanilla(), SolverVariant.leave_one_out(2)],
    ids=_variant_id)
def test_dense_problem_matches_oracle_at_benchmark_sizes(variant, d1, d2, r):
    # The sizes of the phase, headline and theory instances and a dense one
    # close to sampling.DENSE_SIZE_LIMIT.
    # The residual formed from the target's factors is the oracle's
    # X Y.T - M* to a few ulps of ||M*||_F, the gradient is the oracle's,
    # and the problem keeps no d1 x d2 array besides W and S: M* is neither
    # held nor read.
    gt = gen_ground_truth(d1, d2, r, 2.0, seed=31)
    mask = sample_mask(d1, d2, 0.3, seed=32)
    f0 = spectral_init(gt, mask, r)
    f = FactorPair(2.0 * f0.x, 0.5 * f0.y)  # unbalanced, so b is not 0
    problem = solvers._Problem(gt, mask, variant)
    assert problem.dense
    rel = problem.load(f.x, f.y)

    cells, div = mask, mask.p
    if variant.sel is not None:
        cells, div = loo_cells(mask, variant.sel)
    w = np.zeros((d1, d2))
    w[cells.rows, cells.cols] = 1.0 / div
    d = f.x @ f.y.T - gt.m_star
    ulp = np.finfo(np.float64).eps * frobenius_norm(gt.m_star)
    assert abs(rel * frobenius_norm(gt.m_star) - frobenius_norm(d)) <= 4 * ulp
    assert np.all(np.abs(problem.s - d * w) <= 4 * ulp * w)
    g = FactorPair(np.empty_like(f.x), np.empty_like(f.y))
    problem.gradient(g.x, g.y)
    b = 0.5 * (f.x.T @ f.x - f.y.T @ f.y) * problem.balanced
    for got, want in ((g.x, (d * w) @ f.y + f.x @ b),
                      (g.y, (d * w).T @ f.x - f.y @ b)):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())
    arrays = {name: v for name, v in vars(problem).items()
              if isinstance(v, np.ndarray)}
    assert {name for name, v in arrays.items() if v.size >= d1 * d2} == {
        "w", "s", "s_vals", "st"}
    assert np.shares_memory(problem.s_vals, problem.s)
    assert np.shares_memory(problem.st, problem.s)
    assert not any(np.shares_memory(v, gt.m_star) for v in arrays.values())


@pytest.mark.parametrize("d1, d2, r", [(80, 60, 10), (160, 100, 5),
                                       (300, 200, 4)], ids=lambda v: str(v))
@pytest.mark.parametrize(
    "variant", [SolverVariant.vanilla(), SolverVariant.balancing(),
                SolverVariant.leave_one_out(2)], ids=_variant_id)
def test_dense_working_arrays_start_on_64_byte_boundaries(variant, d1, d2, r):
    # At the phase, headline and theory sizes. A dense iteration's speed
    # depends on where its arrays start (linalg._ALIGN); numpy alone puts
    # a mmapped 300x200 array at +16 bytes.
    gt = gen_ground_truth(d1, d2, r, 2.0, seed=31)
    mask = sample_mask(d1, d2, 0.3, seed=32)
    problem = solvers._Problem(gt, mask, variant)
    f = _random_pair(np.random.default_rng(33), d1, d2, r)
    problem.buffers(f.x, f.y)
    names = ["w", "s", "aug", "g"] + ["sign", "u"] * problem.balanced
    offsets = {name: getattr(problem, name).ctypes.data % 64
               for name in names}
    offsets["observed"] = sampling._observed_matrix(mask, 1.0).ctypes.data % 64
    assert offsets == dict.fromkeys(offsets, 0)


@pytest.mark.parametrize(
    "variant", [SolverVariant.vanilla(), SolverVariant.balancing()],
    ids=_variant_id)
def test_layouts_agree_on_headline_instance(variant, monkeypatch):
    # The 160x100, r=5, p=0.2 instance of the headline run (master seed 1),
    # which binds the dense layout at the default limit.
    gt = gen_ground_truth(160, 100, 5, 1.0, derive_seed(1, (0, 0), "VGD", 0))
    mask = sample_mask(160, 100, 0.2, derive_seed(1, (1, 0), "VGD", 0))
    init = spectral_init(gt, mask, 5)
    assert solvers._Problem(gt, mask, variant).dense
    cfg = SolverConfig(variant=variant, step=0.5, max_iters=5000, tol=1e-14)
    rel = {}
    for name, limit in LAYOUT_LIMITS.items():
        monkeypatch.setattr(sampling, "DENSE_SIZE_LIMIT", limit)
        assert solvers._Problem(gt, mask, variant).dense == (name == "dense")
        res = run(gt, mask, cfg, init)
        assert res.status == "converged"
        assert abs(res.iterations - 786) <= 1
        rel[name] = res.trace.relative_error
    small = [abs(a - b) for a, b in zip(rel["dense"], rel["csr"])
             if a < 1e-10 and b < 1e-10]
    assert len(small) > 100
    assert max(small) <= 1e-16


def test_objective_at_optimum(instance):
    gt, mask = instance
    f = gt.optimal_pair()
    assert objective(f, gt, mask, SolverVariant.vanilla()) == pytest.approx(
        0.0, abs=1e-24)
    lam = 1e-3
    expected = 0.5 * lam * (np.sum(f.x ** 2) + np.sum(f.y ** 2))
    assert objective(f, gt, mask, SolverVariant.regularized(lam)) == \
        pytest.approx(expected, rel=1e-12)
    # the optimal pair is balanced, so the imbalance penalty vanishes too
    assert objective(f, gt, mask, SolverVariant.balancing()) == \
        pytest.approx(0.0, abs=1e-20)


def test_vanilla_gradient_zero_at_optimum(instance):
    gt, mask = instance
    g = gradient(gt.optimal_pair(), gt, mask, SolverVariant.vanilla())
    assert np.max(np.abs(g.x)) < 1e-12 and np.max(np.abs(g.y)) < 1e-12


@pytest.mark.parametrize("variant", VARIANTS, ids=_variant_id)
def test_gradient_matches_finite_differences(instance, variant):
    gt, mask = instance
    rng = np.random.default_rng(7)
    for _ in range(4):
        f = _random_pair(rng, gt.d1, gt.d2, gt.r)
        g = gradient(f, gt, mask, variant)
        fd = _fd_gradient(f, gt, mask, variant)
        num = np.linalg.norm(g.x - fd.x) + np.linalg.norm(g.y - fd.y)
        den = np.linalg.norm(g.x) + np.linalg.norm(g.y)
        assert num / den < 1e-6


def test_balancing_gradient_identity(instance):
    gt, mask = instance
    rng = np.random.default_rng(8)
    f = _random_pair(rng, gt.d1, gt.d2, gt.r)
    gv = gradient(f, gt, mask, SolverVariant.vanilla())
    gb = gradient(f, gt, mask, SolverVariant.balancing())
    b = f.x.T @ f.x - f.y.T @ f.y
    assert np.allclose(gb.x, gv.x + 0.5 * f.x @ b, atol=1e-12)
    assert np.allclose(gb.y, gv.y - 0.5 * f.y @ b, atol=1e-12)


def test_full_observation_gradient_matches_dense_oracle():
    gt = gen_ground_truth(9, 7, 2, 1.0, seed=3)
    mask = sample_mask(9, 7, 1.0, seed=4)
    rng = np.random.default_rng(9)
    f = _random_pair(rng, 9, 7, 2)
    e = f.product() - gt.m_star
    g = gradient(f, gt, mask, SolverVariant.vanilla())
    assert np.allclose(g.x, e @ f.y, atol=1e-12)
    assert np.allclose(g.y, e.T @ f.x, atol=1e-12)


def test_step_is_affine():
    f = FactorPair(np.ones((3, 2)), np.ones((4, 2)))
    g = FactorPair(np.full((3, 2), 2.0), np.full((4, 2), -1.0))
    out = step(f, g, 0.5)
    assert (out.x == 0.0).all() and (out.y == 1.5).all()


def test_every_entry_point_makes_one_shape_check():
    gt = gen_ground_truth(10, 8, 2, 1.0, seed=0)
    mask = sample_mask(10, 9, 0.5, seed=0)
    f = FactorPair(np.ones((10, 2)), np.ones((8, 2)))
    cfg = SolverConfig(SolverVariant.vanilla(), step=0.5)
    for call in (lambda: spectral_init(gt, mask, 2),
                 lambda: loo_init(gt, mask, 2, LooSelector(1)),
                 lambda: run(gt, mask, cfg, f),
                 lambda: objective(f, gt, mask, SolverVariant.vanilla()),
                 lambda: gradient(f, gt, mask, SolverVariant.vanilla())):
        with pytest.raises(ValueError, match=r"^mask \(10, 9\) does not fit "
                                             r"target shape \(10, 8\)$"):
            call()
    for call in (lambda: project(gt.m_star, mask),
                 lambda: loo_project(gt.m_star, mask, LooSelector(1))):
        with pytest.raises(ValueError, match=r"^mask \(10, 9\) does not fit "
                                             r"matrix shape \(10, 8\)$"):
            call()
    short = FactorPair(np.ones((10, 2)), np.ones((7, 2)))
    with pytest.raises(ValueError, match=r"^mask \(10, 8\) does not fit "
                                         r"factor heights \(10, 7\)$"):
        run(gt, sample_mask(10, 8, 0.5, seed=0), cfg, short)


def test_variant_and_config_validation():
    with pytest.raises(ValueError):
        SolverVariant.regularized(0.0)
    with pytest.raises(ValueError):
        SolverConfig(variant=SolverVariant.vanilla(), step=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(variant=SolverVariant.vanilla(), step=0.5, tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(variant=SolverVariant.vanilla(), step=0.5, max_iters=0)


def test_run_from_optimum_converges_immediately(instance):
    gt, mask = instance
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=0.5)
    res = run(gt, mask, cfg, gt.optimal_pair())
    assert res.status == "converged" and res.iterations == 0
    assert res.trace.relative_error[0] < 1e-14


def test_run_diverges_with_huge_step(instance):
    gt, mask = instance
    init = spectral_init(gt, mask, gt.r)
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=50.0,
                       max_iters=200)
    res = run(gt, mask, cfg, init)
    assert res.status == "diverged"


def test_run_overflowing_step_ends_diverged(instance):
    gt, mask = instance
    init = spectral_init(gt, mask, gt.r)
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=1e200,
                       max_iters=50, compute_dist=True)
    with np.errstate(all="ignore"):
        res = run(gt, mask, cfg, init)
    assert res.status == "diverged" and res.iterations == 1
    assert not res.trace.relative_error[-1] <= 1e6
    assert np.isnan(res.trace.dist_to_truth[-1])


def test_run_objective_monotone(instance):
    gt, mask = instance
    init = spectral_init(gt, mask, gt.r)
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=0.5,
                       max_iters=200, tol=1e-12)
    res = run(gt, mask, cfg, init)
    obj = np.array(res.trace.objective)
    assert np.all(np.diff(obj) <= 1e-12 * (1.0 + obj[:-1]))


def test_run_records_terminal_iterate(instance):
    gt, mask = instance
    init = spectral_init(gt, mask, gt.r)
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=0.5,
                       max_iters=157, tol=1e-30, record_every=50)
    res = run(gt, mask, cfg, init)
    assert res.trace.k[-1] == 157
    assert res.status == "max_iters"


# Settings that end a run on the instance below in each of its three ways,
# at iterations 213, 2 and 157, none a multiple of the recording stride 7.
ENDINGS = {
    "converged": dict(step=0.5, tol=1e-10),
    "diverged": dict(step=50.0, max_iters=200),
    "max_iters": dict(step=0.5, max_iters=157, tol=1e-30),
}


@pytest.mark.parametrize(
    "ending,layout", _in_both_layouts(list(ENDINGS), list(ENDINGS)),
    indirect=["layout"])
def test_run_records_terminal_iterate_once_off_stride(ending, layout):
    gt = gen_ground_truth(24, 18, 2, 2.0, seed=3)
    mask = sample_mask(24, 18, 0.5, seed=4)
    _assert_layout(layout, gt, mask)
    cfg = SolverConfig(variant=SolverVariant.vanilla(), record_every=7,
                       compute_dist=True, store_factors=True,
                       **ENDINGS[ending])
    res = run(gt, mask, cfg, spectral_init(gt, mask, 2))
    tr = res.trace
    assert res.status == ending and res.iterations % 7 != 0
    assert {len(getattr(tr, fld.name))
            for fld in dataclasses.fields(tr)} == {len(tr.k)}
    assert len(res.factors) == len(tr.k)
    assert res.iterations == tr.k[-1]
    assert tr.k == list(range(0, res.iterations, 7)) + [res.iterations]
    assert res.factors[-1] is res.final


# The endings above plus an overflowing step, whose terminal iterate has no
# finite alignment: its dist is nan. Chunks of 5 leave a remainder in every
# case (the record counts are 214, 32, 3, 2, 158, 24, 2 and 2).
DIST_ENDINGS = dict(ENDINGS, overflow=dict(step=1e200, max_iters=50))


def _dist_or_nan(f, target):
    try:
        return dist(f, target)
    except AlignmentDegenerateError:
        return float("nan")


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize(
    "ending,layout", _in_both_layouts(list(DIST_ENDINGS), list(DIST_ENDINGS)),
    indirect=["layout"])
def test_run_chunked_dist_matches_dist_per_iterate(ending, layout, stride,
                                                   monkeypatch):
    monkeypatch.setattr(solvers, "DIST_CHUNK", 5)
    gt = gen_ground_truth(24, 18, 2, 2.0, seed=3)
    mask = sample_mask(24, 18, 0.5, seed=4)
    _assert_layout(layout, gt, mask)
    cfg = SolverConfig(variant=SolverVariant.vanilla(), record_every=stride,
                       compute_dist=True, store_factors=True,
                       **DIST_ENDINGS[ending])
    res = run(gt, mask, cfg, spectral_init(gt, mask, 2))
    tr = res.trace
    assert res.status == ("diverged" if ending == "overflow" else ending)
    assert len(tr.k) % solvers.DIST_CHUNK != 0
    assert {len(getattr(tr, fld.name))
            for fld in dataclasses.fields(tr)} == {len(tr.k)}
    target = gt.optimal_pair()
    expected = [_dist_or_nan(f, target) for f in res.factors]
    # bitwise, nan where the alignment is degenerate
    np.testing.assert_array_equal(tr.dist_to_truth, expected)
    assert np.isnan(tr.dist_to_truth[-1]) == (ending == "overflow")
    assert np.isfinite(tr.dist_to_truth[:-1]).all()


def test_run_seconds_exclude_alignment(instance, monkeypatch):
    # Alignment made slow: seconds stay the solver's own time.
    gt, mask = instance
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=0.5,
                       max_iters=20, tol=1e-30, compute_dist=True)
    init = spectral_init(gt, mask, gt.r)
    align = solvers._align_stack

    def slow(*args):
        time.sleep(0.05)
        return align(*args)

    monkeypatch.setattr(solvers, "_align_stack", slow)
    monkeypatch.setattr(solvers, "DIST_CHUNK", 4)
    tr = run(gt, mask, cfg, init).trace
    assert len(tr.seconds) == 21 and np.isfinite(tr.dist_to_truth).all()
    assert tr.seconds == sorted(tr.seconds) and tr.seconds[-1] < 0.1


def test_run_seconds_exclude_recording(instance, monkeypatch):
    # Recording made slow outside the alignment: seconds stay the loop's
    # own time.
    gt, mask = instance
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=0.5,
                       max_iters=20, tol=1e-30)
    init = spectral_init(gt, mask, gt.r)

    def slow(f):
        time.sleep(0.02)
        return balancing_norm(f)

    monkeypatch.setattr(solvers, "balancing_norm", slow)
    res = run(gt, mask, cfg, init)
    tr = res.trace
    assert len(tr.seconds) == 21 and res.seconds_record >= 0.4
    assert tr.seconds == sorted(tr.seconds) and tr.seconds[-1] < 0.1


def test_run_splits_its_time_between_loop_and_record(instance, monkeypatch):
    # Alignment made slow: it lands in seconds_record, not seconds_loop.
    gt, mask = instance
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=0.5,
                       max_iters=20, tol=1e-30, compute_dist=True)
    init = spectral_init(gt, mask, gt.r)
    align = solvers._align_stack

    def slow(*args):
        time.sleep(0.05)
        return align(*args)

    monkeypatch.setattr(solvers, "_align_stack", slow)
    monkeypatch.setattr(solvers, "DIST_CHUNK", 4)
    t = time.perf_counter()
    res = run(gt, mask, cfg, init)
    wall = time.perf_counter() - t
    # six alignments: five full chunks and the terminal one
    assert res.seconds_record >= 0.3 and 0.0 < res.seconds_loop < 0.1
    assert res.seconds_loop + res.seconds_record <= wall
    assert res.trace.seconds[-1] <= res.seconds_loop + res.seconds_record


def test_run_computes_balancing_norm_once_per_record(instance, monkeypatch):
    gt, mask = instance
    cfg = SolverConfig(variant=SolverVariant.balancing(), step=0.5,
                       max_iters=30, tol=1e-30, record_every=3,
                       store_factors=True)
    calls = []

    def counted(f):
        calls.append(f)
        return balancing_norm(f)

    monkeypatch.setattr(solvers, "balancing_norm", counted)
    res = run(gt, mask, cfg, spectral_init(gt, mask, gt.r))
    assert len(calls) == len(res.trace.k) == 11
    monkeypatch.undo()
    assert res.trace.balancing_norm == [balancing_norm(f)
                                        for f in res.factors]
    assert res.trace.objective == [objective(f, gt, mask, cfg.variant)
                                   for f in res.factors]


def test_run_deterministic(instance):
    gt, mask = instance
    init = spectral_init(gt, mask, gt.r)
    cfg = SolverConfig(variant=SolverVariant.balancing(), step=0.5,
                       max_iters=80, tol=1e-30)
    a = run(gt, mask, cfg, init)
    b = run(gt, mask, cfg, init)
    assert (a.final.x == b.final.x).all() and (a.final.y == b.final.y).all()
    assert a.trace.relative_error == b.trace.relative_error


def test_run_warns_when_underdetermined():
    gt = gen_ground_truth(20, 15, 4, 1.0, seed=5)
    mask = sample_mask(20, 15, 0.1, seed=6)
    assert mask.n_cells < 4 * 35
    init = spectral_init(gt, mask, 4)
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=0.5, max_iters=3)
    with pytest.warns(UserWarning, match="underdetermined"):
        run(gt, mask, cfg, init)


def test_run_rejects_nonfinite_init(instance):
    gt, mask = instance
    bad = FactorPair(np.full((gt.d1, gt.r), np.nan),
                     np.zeros((gt.d2, gt.r)))
    cfg = SolverConfig(variant=SolverVariant.vanilla(), step=0.5)
    with pytest.raises(ValueError):
        run(gt, mask, cfg, bad)


@pytest.mark.parametrize("layout", list(LAYOUT_LIMITS), indirect=True)
def test_loo_full_observation_matches_balancing_bitwise(layout):
    gt = gen_ground_truth(12, 9, 3, 2.0, seed=10)
    mask = sample_mask(12, 9, 1.0, seed=11)
    _assert_layout(layout, gt, mask, SolverVariant.balancing())
    init = spectral_init(gt, mask, 3)
    kw = dict(step=0.5, max_iters=60, tol=1e-30, store_factors=True)
    main = run(gt, mask, SolverConfig(variant=SolverVariant.balancing(), **kw),
               init)
    for l in (1, 12, 13, 21):
        loo = run(gt, mask,
                  SolverConfig(variant=SolverVariant.leave_one_out(l), **kw),
                  init)
        for fa, fb in zip(main.factors, loo.factors):
            assert (fa.x == fb.x).all() and (fa.y == fb.y).all()


def test_loo_objective_reduces_to_balancing_at_full_observation():
    gt = gen_ground_truth(8, 6, 2, 1.0, seed=12)
    mask = sample_mask(8, 6, 1.0, seed=13)
    rng = np.random.default_rng(14)
    f = _random_pair(rng, 8, 6, 2)
    a = objective(f, gt, mask, SolverVariant.balancing())
    b = objective(f, gt, mask, SolverVariant.leave_one_out(5))
    assert a == pytest.approx(b, rel=1e-12)


# The four variants, with a ridge weight small enough that the regularized
# run also reaches the tolerance of the converged ending below.
BITWISE_VARIANTS = [SolverVariant.vanilla(), SolverVariant.regularized(1e-9),
                    SolverVariant.balancing(), SolverVariant.leave_one_out(3),
                    SolverVariant.leave_one_out(30)]
BITWISE_ENDINGS = {
    "converged": dict(step=0.5, tol=1e-8),
    "diverged": dict(step=50.0, max_iters=200),
    "max_iters": dict(step=0.5, max_iters=40, tol=1e-30),
}


def _bits(f):
    return f.x.tobytes(), f.y.tobytes()


@pytest.mark.parametrize("ending", list(BITWISE_ENDINGS))
@pytest.mark.parametrize(
    "variant,layout",
    _in_both_layouts(BITWISE_VARIANTS, map(_variant_id, BITWISE_VARIANTS)),
    indirect=["layout"])
def test_run_iterates_are_bitwise_public_steps(variant, layout, ending):
    # The in-place loop takes exactly the step the public functions take.
    gt = gen_ground_truth(24, 18, 2, 2.0, seed=3)
    mask = sample_mask(24, 18, 0.5, seed=4)
    _assert_layout(layout, gt, mask, variant)
    cfg = SolverConfig(variant=variant, store_factors=True,
                       **BITWISE_ENDINGS[ending])
    init = spectral_init(gt, mask, 2)
    res = run(gt, mask, cfg, init)
    assert res.status == ending
    assert len(res.factors) == res.iterations + 1
    assert _bits(res.factors[0]) == _bits(init)
    with np.errstate(over="ignore", invalid="ignore"):
        for f, nxt in zip(res.factors, res.factors[1:]):
            expected = step(f, gradient(f, gt, mask, variant), cfg.step)
            assert _bits(nxt) == _bits(expected)


@pytest.mark.parametrize("layout", list(LAYOUT_LIMITS), indirect=True)
def test_run_leaves_init_alone_and_returns_unshared_factors(layout):
    gt = gen_ground_truth(24, 18, 2, 2.0, seed=3)
    mask = sample_mask(24, 18, 0.5, seed=4)
    _assert_layout(layout, gt, mask, SolverVariant.balancing())
    init = spectral_init(gt, mask, 2)
    before = _bits(init)
    cfg = SolverConfig(variant=SolverVariant.balancing(), step=0.5,
                       max_iters=20, tol=1e-30, compute_dist=True,
                       store_factors=True)
    res = run(gt, mask, cfg, init)
    assert _bits(init) == before
    arrays = [init.x, init.y] + [a for f in res.factors for a in (f.x, f.y)]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    assert res.factors[-1] is res.final

    res = run(gt, mask, dataclasses.replace(cfg, store_factors=False), init)
    assert _bits(init) == before
    assert _bits(res.final) == _bits(FactorPair(*arrays[-2:]))
    for a in (init.x, init.y):
        assert not np.shares_memory(res.final.x, a)
        assert not np.shares_memory(res.final.y, a)


@pytest.mark.parametrize("store", [False, True])
@pytest.mark.parametrize("layout", list(LAYOUT_LIMITS), indirect=True)
def test_run_builds_factor_pairs_only_at_the_boundaries(layout, store,
                                                        monkeypatch):
    # The count of FactorPair constructions in a run does not grow with the
    # number of iterations, only with the number of recorded iterates.
    gt = gen_ground_truth(24, 18, 2, 2.0, seed=3)
    mask = sample_mask(24, 18, 0.5, seed=4)
    _assert_layout(layout, gt, mask)
    init = spectral_init(gt, mask, 2)
    built = []
    check = FactorPair.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(FactorPair, "__post_init__", counting)
    counts = []
    for max_iters in (50, 500):
        cfg = SolverConfig(variant=SolverVariant.vanilla(), step=0.5,
                           max_iters=max_iters, tol=1e-30,
                           record_every=max_iters, store_factors=store)
        built.clear()
        res = run(gt, mask, cfg, init)
        assert res.status == "max_iters" and len(res.trace.k) == 2
        counts.append(len(built))
    assert counts[0] == counts[1] <= 4


# The CSR residual is formed in blocks of cells (solvers.RESIDUAL_BLOCK_BYTES
# of gathered factor rows). BLOCK_INSTANCE is above DENSE_SIZE_LIMIT, and
# its 72,000 or so cells fill several default blocks at each rank below.
# No cell count of BLOCK_VARIANTS is a multiple of 8, so every block size
# leaves a ragged last block. The iterate's rank, which sizes the blocks,
# need not be the target's.
BLOCK_INSTANCE = """
import numpy as np
from lrmc.experiments import gen_ground_truth
from lrmc.model import FactorPair
from lrmc.sampling import sample_mask
gt = gen_ground_truth(600, 400, 5, 2.0, seed=11)
mask = sample_mask(600, 400, 0.3, seed=13)

def block_pair(r):
    rng = np.random.default_rng(r)
    return FactorPair(rng.standard_normal((600, r)),
                      rng.standard_normal((400, r)))
"""
BLOCK_RANKS = [1, 5, 20]
BLOCK_VARIANTS = [SolverVariant.vanilla(), SolverVariant.leave_one_out(7),
                  SolverVariant.leave_one_out(609)]


@pytest.fixture(scope="module")
def block_instance():
    space = {}
    exec(BLOCK_INSTANCE, space)
    assert 600 * 400 > sampling.DENSE_SIZE_LIMIT
    return space["gt"], space["mask"], space["block_pair"]


def _csr_load(gt, mask, variant, f):
    """(S.data, relative error) of one CSR load."""
    problem = solvers._Problem(gt, mask, variant)
    assert not problem.dense
    rel = problem.load(f.x, f.y)
    return problem.s.data.copy(), rel


@pytest.mark.parametrize("r", BLOCK_RANKS)
@pytest.mark.parametrize("variant", BLOCK_VARIANTS, ids=_variant_id)
def test_csr_residual_does_not_depend_on_the_block_size(block_instance, r,
                                                        variant, monkeypatch):
    gt, mask, block_pair = block_instance
    f = block_pair(r)
    want, want_rel = _csr_load(gt, mask, variant, f)
    assert want.size * r * 8 > 2 * solvers.RESIDUAL_BLOCK_BYTES
    for cells in (8, 24, 1000):
        assert want.size % cells  # the last block is ragged
        monkeypatch.setattr(solvers, "RESIDUAL_BLOCK_BYTES", 8 * r * cells)
        got, rel = _csr_load(gt, mask, variant, f)
        assert got.tobytes() == want.tobytes() and rel == want_rel


@pytest.mark.parametrize("r", BLOCK_RANKS)
@pytest.mark.parametrize("variant", BLOCK_VARIANTS, ids=_variant_id)
def test_csr_residual_matches_dense_oracle(block_instance, r, variant):
    gt, mask, block_pair = block_instance
    f = block_pair(r)
    got, rel = _csr_load(gt, mask, variant, f)
    cells, div = mask, mask.p
    if variant.sel is not None:
        cells, div = loo_cells(mask, variant.sel)
    resid = f.x @ f.y.T - gt.m_star
    want = resid[cells.rows, cells.cols] / div
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-13 * np.abs(want).max())
    assert rel == pytest.approx(
        frobenius_norm(resid) / frobenius_norm(gt.m_star), rel=1e-10)


def test_csr_residual_does_not_depend_on_the_blas_thread_count():
    # The same loads in two fresh processes, at 1 and 2 OpenBLAS threads,
    # each printing a digest of the bytes of S's data.
    code = BLOCK_INSTANCE + f"""
import hashlib
from lrmc.solvers import SolverVariant, _Problem
for r in {BLOCK_RANKS!r}:
    for variant in (SolverVariant.vanilla(), SolverVariant.leave_one_out(7)):
        problem = _Problem(gt, mask, variant)
        f = block_pair(r)
        problem.load(f.x, f.y)
        print(hashlib.sha256(problem.s.data.tobytes()).hexdigest())
"""
    src = os.path.dirname(os.path.dirname(solvers.__file__))
    out = [subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src,
                                   OPENBLAS_NUM_THREADS=threads)).stdout
           for threads in ("1", "2")]
    assert out[0].count("\n") == 2 * len(BLOCK_RANKS)
    assert out[0] == out[1]
