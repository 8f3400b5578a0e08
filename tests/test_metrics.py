import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from lrmc import metrics
from lrmc.experiments import derive_seed, gen_ground_truth
from lrmc.metrics import (RANK_DEFICIENCY_TOL, AlignmentDegenerateError,
                          _align_stack, _gl_derivatives, _gl_newton,
                          _gl_offset, balancing_norm, dist, gl_align,
                          incoherence, procrustes_align, relative_error)
from lrmc.model import FactorPair
from lrmc.sampling import sample_mask
from lrmc.solvers import SolverConfig, SolverVariant, run
from lrmc.spectral import spectral_init


def _random_pair(rng, d1, d2, r):
    return FactorPair(rng.standard_normal((d1, r)),
                      rng.standard_normal((d2, r)))


# --- dense oracle: the L-BFGS-B alignment on the d x r factors -------------

def _gl_value_grad(q, x, y, x_t, y_t):
    """Objective ||XQ - X*||_F^2 + ||Y Q^-T - Y*||_F^2 and its gradient."""
    sign, logdet = np.linalg.slogdet(q)
    if sign == 0 or logdet < -60 * q.shape[0]:
        return np.inf, np.zeros_like(q)
    qinv = np.linalg.inv(q)
    rx = x @ q - x_t
    ry = y @ qinv.T - y_t
    val = np.sum(rx * rx) + np.sum(ry * ry)
    grad = 2.0 * (x.T @ rx) - 2.0 * qinv.T @ ry.T @ y @ qinv.T
    return val, grad


def _oracle_residual(f, target):
    """Smallest residual of an L-BFGS-B refinement from the Procrustes
    rotation, the Procrustes rotation itself and the two one-sided
    least-squares solutions."""
    r = f.r
    x, y, x_t, y_t = f.x, f.y, target.x, target.y
    pro = procrustes_align(f, target)

    def fun(vec):
        val, grad = _gl_value_grad(vec.reshape(r, r), x, y, x_t, y_t)
        return val, grad.ravel()

    res = minimize(fun, pro.matrix.ravel(), jac=True, method="L-BFGS-B",
                   options={"maxiter": 200, "ftol": 1e-18, "gtol": 1e-14})
    cands = [res.x.reshape(r, r), np.linalg.lstsq(x, x_t, rcond=None)[0],
             np.linalg.inv(np.linalg.lstsq(y, y_t, rcond=None)[0]).T]
    vals = [np.sqrt(_gl_value_grad(q, x, y, x_t, y_t)[0]) for q in cands]
    return min(vals + [pro.residual])


@pytest.fixture(scope="module")
def headline_factors():
    """Every iterate of the 160x100 r=5 p=0.2 headline run, VGD and BGD."""
    gt = gen_ground_truth(160, 100, 5, 1.0, derive_seed(1, (0, 0), "VGD", 0))
    mask = sample_mask(160, 100, 0.2, derive_seed(1, (1, 0), "VGD", 0))
    init = spectral_init(gt, mask, 5)
    runs = {}
    for name, variant in (("VGD", SolverVariant.vanilla()),
                          ("BGD", SolverVariant.balancing())):
        cfg = SolverConfig(variant=variant, step=0.5, max_iters=5000,
                           tol=1e-14, store_factors=True)
        res = run(gt, mask, cfg, init)
        assert res.status == "converged"
        runs[name] = res.factors
    return gt.optimal_pair(), runs


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
        assert gl_align(f, target).residual <= \
            _oracle_residual(f, target) + 1e-15


def test_gl_align_never_worse_than_oracle_along_headline_run(
        headline_factors):
    target, runs = headline_factors
    for factors in runs.values():
        for f in factors[::10]:
            assert gl_align(f, target).residual <= \
                _oracle_residual(f, target) + 1e-15


def test_gl_align_converged_on_every_headline_iterate(headline_factors):
    # The flag means stationary: clause (e) of the hypothesis check counts
    # an iterate only when it is set.
    target, runs = headline_factors
    for name, factors in runs.items():
        flags = [gl_align(f, target).converged for f in factors]
        assert all(flags), (name, [k for k, ok in enumerate(flags) if not ok])


def test_gl_align_starts_near_an_unbalanced_optimum(monkeypatch):
    # Gradient descent converges to (X* G, Y* G^-T) with G invertible but
    # not orthogonal, far from the Procrustes rotation; from the
    # least-squares start the solve is converged within two Newton steps.
    gt = gen_ground_truth(40, 30, 3, 1.0, seed=12)
    target = gt.optimal_pair()
    rng = np.random.default_rng(13)
    g = np.diag([3.0, 1.0, 0.4]) + 0.5 * np.triu(np.ones((3, 3)), 1)
    f = FactorPair(target.x @ g + 1e-6 * rng.standard_normal((40, 3)),
                   target.y @ np.linalg.inv(g).T
                   + 1e-6 * rng.standard_normal((30, 3)))
    assert procrustes_align(f, target).residual > 0.5
    steps = []
    derivatives = metrics._gl_derivatives

    def counted(*args):
        steps.append(args)
        return derivatives(*args)

    monkeypatch.setattr(metrics, "_gl_derivatives", counted)
    res = gl_align(f, target)
    assert res.converged and len(steps) <= 2
    assert res.residual <= _oracle_residual(f, target) + 1e-15


def test_align_stack_rank_check_matches_dense_svd():
    # sigma_min of 1e-9 and 1e-11 straddle RANK_DEFICIENCY_TOL; the stacked
    # check flags exactly the items a dense SVD of the factors would.
    rng = np.random.default_rng(14)
    gt = gen_ground_truth(12, 9, 3, 1.0, seed=15)
    target = gt.optimal_pair()

    def with_sigma_min(d, smin):
        u, _ = np.linalg.qr(rng.standard_normal((d, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        return u @ np.diag([2.0, 1.0, smin]) @ v.T

    pairs = [(sx, sy) for sx in (0.5, 1e-9, 1e-11)
             for sy in (0.5, 1e-9, 1e-11)]
    x = np.stack([with_sigma_min(12, sx) for sx, _ in pairs])
    y = np.stack([with_sigma_min(9, sy) for _, sy in pairs])
    dense = [np.linalg.svd(m, compute_uv=False)[:, -1] > RANK_DEFICIENCY_TOL
             for m in (x, y)]
    expected = ~(dense[0] & dense[1])
    assert expected.tolist() == [sx == 1e-11 or sy == 1e-11
                                 for sx, sy in pairs]
    q, _, res, converged = _align_stack(x, y, target)
    np.testing.assert_array_equal(np.isnan(res), expected)
    assert np.isnan(q[expected]).all() and not converged[expected].any()
    assert np.isfinite(q[~expected]).all()


def test_rank_screen_sends_near_tolerance_factors_to_qr_svd(monkeypatch):
    # A sigma_min within 1e-3 of RANK_DEFICIENCY_TOL is far below what the
    # Cholesky screen of the Grams resolves, so those factors, and only
    # those, take the QR + SVD path, which decides them as a dense SVD does.
    rng = np.random.default_rng(17)
    target = gen_ground_truth(12, 9, 3, 1.0, seed=15).optimal_pair()

    def with_sigma_min(d, smin):
        u, _ = np.linalg.qr(rng.standard_normal((d, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        return u @ np.diag([2.0, 1.0, smin]) @ v.T

    tol = RANK_DEFICIENCY_TOL
    sigmas = (0.5, tol * (1 + 1e-3), tol * (1 - 1e-3))
    pairs = [(sx, sy) for sx in sigmas for sy in sigmas]
    x = np.stack([with_sigma_min(12, sx) for sx, _ in pairs])
    y = np.stack([with_sigma_min(9, sy) for _, sy in pairs])
    dense = [np.linalg.svd(m, compute_uv=False)[:, -1] > tol for m in (x, y)]
    assert (dense[0] & dense[1]).tolist() == [
        sx != sigmas[2] and sy != sigmas[2] for sx, sy in pairs]
    sent = []
    full_rank = metrics._full_rank

    def counted(m):
        sent.append(len(m))
        return full_rank(m)

    monkeypatch.setattr(metrics, "_full_rank", counted)
    _, _, res, _ = _align_stack(x, y, target)
    # X: the 6 items with sigma_min near the tolerance; Y: of the 6 items
    # whose X passed, the 4 with sigma_min near it.
    assert sent == [6, 4]
    np.testing.assert_array_equal(np.isnan(res), ~(dense[0] & dense[1]))
    sent.clear()
    _align_stack(x[:1].repeat(4, axis=0), y[:1].repeat(4, axis=0), target)
    assert sent == []


def test_gl_hessian_equals_four_einsum_outer_products():
    def einsum_hessian(a, b, xe, yf, d, p, h):
        r = d.shape[-1]
        pt = p.swapaxes(-1, -2)
        s = p @ (yf + b @ h).swapaxes(-1, -2) @ p
        hess = (np.einsum("...ij,kl->...ikjl", a, np.eye(r))
                + np.einsum("...ij,...kl->...ikjl", p @ pt, pt @ b @ p)
                + np.einsum("...il,...jk->...ikjl", p, s)
                + np.einsum("...il,...jk->...ikjl", s, p))
        return hess.reshape(*hess.shape[:-4], r * r, r * r)

    rng = np.random.default_rng(18)
    for shape in ((32, 5, 5), (3, 1, 1), (2, 4, 4), (3, 3)):
        args = [rng.standard_normal(shape) for _ in range(7)]
        hess = _gl_derivatives(*args)[1]
        assert hess.tobytes() == einsum_hessian(*args).tobytes()


def test_gl_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    r = 3
    f = _random_pair(rng, 9, 7, r)
    target = _random_pair(rng, 9, 7, r)
    x, y, x_t, y_t = f.x, f.y, target.x, target.y
    o = procrustes_align(f, target).matrix
    a, b = x.T @ x, y.T @ y
    xe, yf = x.T @ (x @ o - x_t), y.T @ (y @ o - y_t)
    f_o = _gl_value_grad(o, x, y, x_t, y_t)[0]

    def at(q):
        p, h, off, _ = _gl_offset(o, a, b, xe, yf, q - o)
        grad, hess = _gl_derivatives(a, b, xe, yf, q - o, p, h)
        return off, 2.0 * grad, 2.0 * hess

    for _ in range(5):
        # singular values in [0.5, 2]: well conditioned, far from O
        u, _ = np.linalg.qr(rng.standard_normal((r, r)))
        v, _ = np.linalg.qr(rng.standard_normal((r, r)))
        q = u @ np.diag(rng.uniform(0.5, 2.0, r)) @ v.T
        off, grad, hess = at(q)
        val, grad_oracle = _gl_value_grad(q, x, y, x_t, y_t)
        assert off == pytest.approx(val - f_o, rel=1e-10, abs=1e-10)
        assert np.allclose(grad, grad_oracle, rtol=1e-10, atol=1e-10)
        eps = 1e-6
        fd_grad = np.empty(r * r)
        fd_hess = np.empty((r * r, r * r))
        for j in range(r * r):
            e = np.zeros(r * r)
            e[j] = eps
            e = e.reshape(r, r)
            up, dn = at(q + e), at(q - e)
            fd_grad[j] = (up[0] - dn[0]) / (2 * eps)
            fd_hess[:, j] = (up[1] - dn[1]).ravel() / (2 * eps)
        assert np.allclose(fd_grad, grad.ravel(), rtol=1e-6, atol=1e-6)
        assert np.allclose(fd_hess, hess, rtol=1e-6, atol=1e-6)


def test_gl_align_rank_deficient_raises():
    f = FactorPair(np.zeros((5, 2)), np.ones((4, 2)))
    target = FactorPair(np.ones((5, 2)), np.ones((4, 2)))
    with pytest.raises(AlignmentDegenerateError):
        gl_align(f, target)


def test_factors_with_fewer_rows_than_rank_are_degenerate():
    # A d x r factor with d < r has rank d < r, whatever its d singular
    # values: its QR triangle has only d rows.
    rng = np.random.default_rng(16)
    for d1, d2, r in ((2, 6, 3), (6, 2, 3), (1, 4, 2)):
        target = _random_pair(rng, d1, d2, r)
        with pytest.raises(AlignmentDegenerateError):
            gl_align(_random_pair(rng, d1, d2, r), target)
        pairs = [_random_pair(rng, d1, d2, r) for _ in range(3)]
        x = np.stack([f.x for f in pairs] + [target.x * 1.5])
        y = np.stack([f.y for f in pairs] + [target.y / 1.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            q, _, res, converged = _align_stack(x, y, target)
        assert np.isnan(res).all() and np.isnan(q).all()
        assert not converged.any()
    full = gl_align(_random_pair(rng, 3, 3, 3), _random_pair(rng, 3, 3, 3))
    assert np.isfinite(full.residual) and np.isfinite(full.matrix).all()


def test_newton_step_cap_counts_accepted_steps():
    # This unrelated pair takes 70 accepted Newton steps and 69 rejected
    # damped trials, 139 in all: a cap on trials would end it unconverged.
    rng = np.random.default_rng(717)
    f = FactorPair(rng.standard_normal((5, 4)), rng.standard_normal((5, 4)))
    target = FactorPair(rng.standard_normal((5, 4)),
                        rng.standard_normal((5, 4)))
    res = gl_align(f, target)
    assert res.converged
    assert res.residual <= _oracle_residual(f, target) + 1e-15


def test_gl_align_ends_when_the_damping_bound_overflows(monkeypatch):
    # Grams near 1e300 put 1e16 times their trace above the largest float;
    # the damping must still end the solve (each trial evaluates one
    # offset), and the result is no worse than the Procrustes rotation.
    f = FactorPair(np.full((2, 1), 1e150), np.full((3, 1), 1e145))
    target = FactorPair(np.ones((2, 1)), np.ones((3, 1)))
    offsets = []
    offset = metrics._gl_offset

    def counted(*args):
        offsets.append(args)
        assert len(offsets) <= 1000, "the damped Newton solve does not end"
        return offset(*args)

    monkeypatch.setattr(metrics, "_gl_offset", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = gl_align(f, target)
    assert res.residual <= procrustes_align(f, target).residual


def test_gl_align_nonfinite_factors_raise_degenerate():
    # Factors an overflowing step produces: every alignment candidate has
    # a non-finite residual, so dist must report nan rather than fail, and
    # without a numpy RuntimeWarning.
    gt = gen_ground_truth(10, 8, 2, 1.0, seed=3)
    rng = np.random.default_rng(4)
    f = FactorPair(1e200 * rng.standard_normal((10, 2)),
                   1e200 * rng.standard_normal((8, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(AlignmentDegenerateError):
            gl_align(f, gt.optimal_pair())
        # Finite Grams whose Newton steps overflow: the damping loop ends.
        g = FactorPair(f.x * 1e-50, f.y * 1e-50)
        res = gl_align(g, gt.optimal_pair())
        assert res.residual <= procrustes_align(g, gt.optimal_pair()).residual
    # Non-finite Grams stop the solve at once instead of damping forever.
    o = np.eye(2)
    nan = np.full((2, 2), np.nan)
    q, stationary = _gl_newton(o, nan, nan, nan, nan)
    assert q is o and not stationary


def test_procrustes_residual_overflows_to_inf_without_warning():
    # Finite factors whose residual overflows: procrustes_align reports an
    # inf residual, as _align_stack does, and raises no RuntimeWarning;
    # gl_align has no finite candidate on the pair.
    f = FactorPair(np.full((2, 1), 1e160), np.full((3, 1), 1e160))
    target = FactorPair(np.ones((2, 1)), np.ones((3, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = procrustes_align(f, target)
        with pytest.raises(AlignmentDegenerateError):
            gl_align(f, target)
    np.testing.assert_array_equal(res.matrix, [[1.0]])
    assert res.residual == np.inf


def test_align_stack_items_match_their_single_calls():
    # One chunk mixing regular iterates with the degenerate and overflowing
    # pairs of the tests above: every item equals its own K = 1 call bit for
    # bit, the degenerate ones are nan, and no RuntimeWarning is raised.
    gt = gen_ground_truth(10, 8, 2, 1.0, seed=3)
    target = gt.optimal_pair()
    rng = np.random.default_rng(4)
    huge = FactorPair(1e200 * rng.standard_normal((10, 2)),
                      1e200 * rng.standard_normal((8, 2)))
    pairs = [FactorPair(target.x + 0.1 * rng.standard_normal((10, 2)),
                        target.y + 0.1 * rng.standard_normal((8, 2)))
             for _ in range(3)]
    pairs.insert(1, FactorPair(np.zeros((10, 2)), np.ones((8, 2))))
    pairs.insert(3, huge)
    pairs.append(FactorPair(huge.x * 1e-50, huge.y * 1e-50))
    pairs.append(FactorPair(np.full((10, 2), np.inf), target.y))
    degenerate = [False, True, False, True, False, False, True]
    x = np.stack([f.x for f in pairs])
    y = np.stack([f.y for f in pairs])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stacked = _align_stack(x, y, target)
        for j, f in enumerate(pairs):
            single = _align_stack(x[j:j + 1], y[j:j + 1], target)
            for whole, one in zip(stacked, single):
                np.testing.assert_array_equal(whole[j], one[0])
            assert np.isnan(stacked[2][j]) == degenerate[j]
            if degenerate[j]:
                assert np.isnan(stacked[0][j]).all() and not stacked[3][j]
                with pytest.raises(AlignmentDegenerateError):
                    gl_align(f, target)
            else:
                res = gl_align(f, target)
                assert res.residual == stacked[2][j]
                np.testing.assert_array_equal(res.matrix, stacked[0][j])


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
    for pair in (f, g):
        assert dist(pair, target) <= _oracle_residual(pair, target) + 1e-15


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
