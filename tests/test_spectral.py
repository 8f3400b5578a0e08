import numpy as np
import pytest

from lrmc.diagnostics import default_selectors
from lrmc.experiments import derive_seed, gen_ground_truth
from lrmc.linalg import full_svd
from lrmc.model import FactorPair
from lrmc.sampling import LooSelector, loo_cells, loo_project, sample_mask
from lrmc.solvers import SolverConfig, SolverVariant, run
from lrmc.spectral import (FULL_SVD_DIM_LIMIT, _randomized_svd, loo_init,
                           spectral_init, truncated_svd)


def test_truncated_svd_diagonal():
    t = truncated_svd(np.diag([4.0, 2.0, 1.0]), 2)
    assert np.allclose(t.sigma0, [4.0, 2.0])
    assert np.allclose(np.abs(t.u0), np.eye(3)[:, :2])


def test_truncated_svd_rank_check():
    with pytest.raises(ValueError):
        truncated_svd(np.zeros((3, 2)), 3)


def test_truncated_svd_matches_full_svd_values():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((30, 20))
    t = truncated_svd(m, 5)
    _, s, _ = full_svd(m)
    assert np.max(np.abs(t.sigma0 - s[:5])) < 1e-8
    recon_err = np.linalg.norm(
        t.u0 @ (t.sigma0[:, None] * t.v0.T)
        - sum(s[i] * np.outer(full_svd(m)[0][:, i], full_svd(m)[2][:, i])
              for i in range(5)))
    assert recon_err < 1e-8


def test_randomized_path_matches_full_svd():
    # above the dense cutoff the randomized route kicks in; use a matrix
    # with a clear spectral gap so subspace iteration is sharp
    rng = np.random.default_rng(1)
    d1, d2, r = 600, 520, 4
    u, _ = np.linalg.qr(rng.standard_normal((d1, r)))
    v, _ = np.linalg.qr(rng.standard_normal((d2, r)))
    s = np.array([5.0, 4.0, 3.0, 2.0])
    m = u @ (s[:, None] * v.T) + 1e-8 * rng.standard_normal((d1, d2))
    t = truncated_svd(m, r, seed=3)
    sv = np.linalg.svd(m, compute_uv=False)[:r]
    assert np.max(np.abs(t.sigma0 - sv)) < 1e-6
    recon = t.u0 @ (t.sigma0[:, None] * t.v0.T)
    assert np.linalg.norm(recon - u @ (s[:, None] * v.T)) < 1e-4


def test_spectral_init_full_observation_recovers_target():
    gt = gen_ground_truth(20, 15, 3, 2.0, seed=0)
    mask = sample_mask(20, 15, 1.0, seed=1)
    f0 = spectral_init(gt, mask, 3)
    assert np.linalg.norm(f0.product() - gt.m_star) < 1e-10


def test_spectral_init_balanced():
    gt = gen_ground_truth(40, 30, 4, 3.0, seed=2)
    mask = sample_mask(40, 30, 0.4, seed=3)
    f0 = spectral_init(gt, mask, 4)
    b0 = np.linalg.norm(f0.x.T @ f0.x - f0.y.T @ f0.y)
    assert b0 <= 1e-12 * gt.sigma_max


def test_spectral_init_dim_mismatch():
    gt = gen_ground_truth(10, 8, 2, 1.0, seed=0)
    mask = sample_mask(10, 9, 0.5, seed=0)
    with pytest.raises(ValueError):
        spectral_init(gt, mask, 2)


@pytest.mark.parametrize("l", [1, 15, 16, 40])
def test_loo_init_matches_explicit_matrix(l):
    gt = gen_ground_truth(15, 25, 3, 2.0, seed=4)
    mask = sample_mask(15, 25, 0.5, seed=5)
    sel = LooSelector(l)
    m0 = loo_project(gt.m_star, mask, sel, mask.p) / mask.p
    t = truncated_svd(m0, 3)
    f0 = loo_init(gt, mask, 3, sel)
    root = np.sqrt(t.sigma0)
    assert (f0.x == t.u0 * root).all()
    assert (f0.y == t.v0 * root).all()


def test_loo_init_full_observation_equals_plain_init():
    gt = gen_ground_truth(12, 10, 2, 1.5, seed=6)
    mask = sample_mask(12, 10, 1.0, seed=7)
    plain = spectral_init(gt, mask, 2)
    loo = loo_init(gt, mask, 2, LooSelector(3))
    assert (plain.x == loo.x).all() and (plain.y == loo.y).all()


def test_loo_init_matches_loo_project_start_on_headline_instance():
    # The 160x100, r=5 headline instance (master seed 1) at p=0.2, which
    # is not a power of two: the dense start divides p * m by p on the
    # line, the cell-set start takes m itself, so the two may differ by
    # rounding but must give the same runs.
    gt = gen_ground_truth(160, 100, 5, 1.0, derive_seed(1, (0, 0), "VGD", 0))
    mask = sample_mask(160, 100, 0.2, derive_seed(1, (1, 0), "VGD", 0))
    iterations = []
    for sel in default_selectors(160, 100):
        t = truncated_svd(loo_project(gt.m_star, mask, sel, 0.2) / 0.2, 5)
        root = np.sqrt(t.sigma0)
        dense = FactorPair(t.u0 * root, t.v0 * root)
        f0 = loo_init(gt, mask, 5, sel)
        assert np.max(np.abs(f0.x - dense.x)) <= 1e-13
        assert np.max(np.abs(f0.y - dense.y)) <= 1e-13
        cfg = SolverConfig(variant=SolverVariant.leave_one_out(sel), step=0.5)
        runs = [run(gt, mask, cfg, f) for f in (f0, dense)]
        assert [r.status for r in runs] == ["converged", "converged"]
        assert runs[0].iterations == runs[1].iterations
        iterations.append(runs[0].iterations)
    assert iterations == [784, 786, 786, 788, 780, 786, 785, 723]


def _dense_start(gt, cells, div, r):
    """The randomized start from the dense d1 x d2 observed matrix."""
    m0 = np.zeros((gt.d1, gt.d2))
    m0[cells.rows, cells.cols] = gt.m_star[cells.rows, cells.cols] / div
    t = _randomized_svd(m0, r, 0)
    root = np.sqrt(t.sigma0)
    return FactorPair(t.u0 * root, t.v0 * root)


def _close(f, g, rtol):
    return (np.linalg.norm(f.x - g.x) <= rtol * np.linalg.norm(g.x)
            and np.linalg.norm(f.y - g.y) <= rtol * np.linalg.norm(g.y))


@pytest.mark.parametrize("shape", [(600, 520), (300, 700)])
def test_randomized_starts_match_dense_observed_matrix(shape):
    # Above FULL_SVD_DIM_LIMIT the starts take the cells as a CSR matrix;
    # the dense matrix holding the same cells is the oracle.
    d1, d2 = shape
    assert max(d1, d2) > FULL_SVD_DIM_LIMIT
    gt = gen_ground_truth(d1, d2, 3, 2.0, seed=8)
    mask = sample_mask(d1, d2, 0.1, seed=9)
    assert _close(spectral_init(gt, mask, 3),
                  _dense_start(gt, mask, mask.p, 3), 1e-12)
    for sel in (LooSelector(2), LooSelector(d1 + d2)):
        assert _close(loo_init(gt, mask, 3, sel),
                      _dense_start(gt, *loo_cells(mask, sel), 3), 1e-12)


def test_randomized_starts_check_rank():
    gt = gen_ground_truth(600, 520, 2, 1.0, seed=10)
    mask = sample_mask(600, 520, 0.1, seed=11)
    with pytest.raises(ValueError, match="rank"):
        spectral_init(gt, mask, 521)
    with pytest.raises(ValueError, match="rank"):
        loo_init(gt, mask, 521, LooSelector(1))
    with pytest.raises(ValueError, match="rank"):
        truncated_svd(np.zeros((600, 520)), 521)
