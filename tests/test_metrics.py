import numpy as np
import pytest

from lrmc.experiments import gen_ground_truth
from lrmc.metrics import (AlignmentDegenerateError, balancing_norm, dist,
                          gl_align, incoherence, procrustes_align,
                          relative_error)
from lrmc.model import FactorPair


def _random_pair(rng, d1, d2, r):
    return FactorPair(rng.standard_normal((d1, r)),
                      rng.standard_normal((d2, r)))


def test_relative_error_basic():
    f = FactorPair(np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]]))
    m = f.product()
    assert relative_error(f, m) == 0.0
    assert relative_error(f, 2 * m) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        relative_error(f, np.zeros((2, 2)))


def test_procrustes_identity():
    rng = np.random.default_rng(0)
    f = _random_pair(rng, 6, 5, 2)
    res = procrustes_align(f, f)
    assert res.residual < 1e-12
    assert np.allclose(res.matrix @ res.matrix.T, np.eye(2), atol=1e-12)


def test_procrustes_recovers_rotation():
    rng = np.random.default_rng(1)
    target = _random_pair(rng, 8, 6, 3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    f = FactorPair(target.x @ q.T, target.y @ q.T)
    res = procrustes_align(f, target)
    assert res.residual < 1e-10
    assert np.allclose(res.matrix, q, atol=1e-10)


def test_procrustes_matches_grid_oracle_r2():
    rng = np.random.default_rng(2)
    f = _random_pair(rng, 7, 5, 2)
    target = _random_pair(rng, 7, 5, 2)
    res = procrustes_align(f, target)
    a, b = f.stacked(), target.stacked()
    best = np.inf
    thetas = np.linspace(0.0, 2 * np.pi, 50000, endpoint=False)
    for det in (1.0, -1.0):
        flip = np.diag([1.0, det])
        for th in thetas:
            c, s = np.cos(th), np.sin(th)
            o = np.array([[c, -s], [s, c]]) @ flip
            best = min(best, np.linalg.norm(a @ o - b))
    assert abs(res.residual - best) < 1e-6
    assert res.residual <= best + 1e-12


def test_gl_align_absorbs_diagonal_rescaling():
    gt = gen_ground_truth(20, 15, 3, 2.0, seed=3)
    target = gt.optimal_pair()
    d = np.diag([2.0, 0.5, 3.0])
    f = FactorPair(target.x @ d, target.y @ np.linalg.inv(d).T)
    pro = procrustes_align(f, target)
    assert pro.residual > 0.1
    gl = gl_align(f, target)
    assert gl.residual < 1e-8
    assert gl.converged


def test_gl_align_never_worse_than_procrustes():
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = _random_pair(rng, 9, 7, 3)
        target = _random_pair(rng, 9, 7, 3)
        assert gl_align(f, target).residual <= \
            procrustes_align(f, target).residual + 1e-10
        # dist carries the Procrustes candidate unsquared: the bound is exact
        assert dist(f, target) <= procrustes_align(f, target).residual


def test_gl_align_rank_deficient_raises():
    f = FactorPair(np.zeros((5, 2)), np.ones((4, 2)))
    target = FactorPair(np.ones((5, 2)), np.ones((4, 2)))
    with pytest.raises(AlignmentDegenerateError):
        gl_align(f, target)


def test_gl_align_nonfinite_factors_raise_degenerate():
    # Factors an overflowing step produces: every alignment candidate has
    # a non-finite residual, so dist must report nan rather than fail.
    gt = gen_ground_truth(10, 8, 2, 1.0, seed=3)
    rng = np.random.default_rng(4)
    f = FactorPair(1e200 * rng.standard_normal((10, 2)),
                   1e200 * rng.standard_normal((8, 2)))
    with np.errstate(all="ignore"), pytest.raises(AlignmentDegenerateError):
        gl_align(f, gt.optimal_pair())


def test_rank_mismatch_raises():
    f = FactorPair(np.ones((4, 2)), np.ones((3, 2)))
    t = FactorPair(np.ones((4, 3)), np.ones((3, 3)))
    with pytest.raises(ValueError):
        procrustes_align(f, t)
    with pytest.raises(ValueError):
        gl_align(f, t)


def test_dist_invariant_under_gl_reparametrization():
    rng = np.random.default_rng(5)
    gt = gen_ground_truth(15, 12, 3, 1.5, seed=6)
    target = gt.optimal_pair()
    f = FactorPair(target.x + 0.01 * rng.standard_normal((15, 3)),
                   target.y + 0.01 * rng.standard_normal((12, 3)))
    base = dist(f, target)
    q = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    g = FactorPair(f.x @ q, f.y @ np.linalg.inv(q).T)
    assert dist(g, target) == pytest.approx(base, rel=1e-4, abs=1e-8)


def test_dist_zero_at_target():
    gt = gen_ground_truth(10, 8, 2, 1.0, seed=7)
    assert dist(gt.optimal_pair(), gt.optimal_pair()) < 1e-10


def test_balancing_norm():
    f = FactorPair(np.array([[2.0, 0.0], [0.0, 1.0]]),
                   np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert balancing_norm(f) == pytest.approx(3.0)
    gt = gen_ground_truth(9, 6, 2, 2.0, seed=8)
    assert balancing_norm(gt.optimal_pair()) < 1e-12


def test_incoherence_extremes():
    d, r = 12, 3
    # spread-out frame: Fourier-like columns hit the floor mu = 1
    k = np.arange(d)
    u = np.column_stack([np.ones(d) / np.sqrt(d),
                         np.sqrt(2 / d) * np.cos(2 * np.pi * k / d),
                         np.sqrt(2 / d) * np.sin(2 * np.pi * k / d)])
    assert incoherence(u, u) == pytest.approx(1.0, rel=1e-10)
    # spiky frame: standard basis vectors max out at d / r
    e = np.eye(d)[:, :r]
    assert incoherence(e, e) == pytest.approx(d / r)


def test_incoherence_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        incoherence(np.ones((5, 2)), np.eye(5)[:, :2])


def test_incoherence_at_least_one_on_random_frames():
    rng = np.random.default_rng(9)
    for _ in range(200):
        u, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        assert incoherence(u, v) >= 1.0 - 1e-9
