"""Distances, alignments, and diagnostic quantities.

Two alignments are exposed: the orthogonal (Procrustes) rotation and the
best invertible alignment over GL(r) that also absorbs diagonal
rescalings between the factors. The GL alignment is a damped Newton solve
on r x r Grams around the Procrustes point, so each step costs O(r^3)
whatever the factor sizes. `dist` reports the GL residual, which never
exceeds the Procrustes one.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv, dposv

from .linalg import frobenius_norm, full_svd
from .model import FactorPair

__all__ = [
    "AlignmentDegenerateError",
    "AlignmentResult",
    "relative_error",
    "procrustes_align",
    "gl_align",
    "dist",
    "balancing_norm",
    "incoherence",
]

RANK_DEFICIENCY_TOL = 1e-10
NEWTON_MAX_STEPS = 100
STATIONARY_STEP = 1e-10


class AlignmentDegenerateError(Exception):
    """Raised when a factor pair is too rank-deficient to align."""


@dataclass(frozen=True)
class AlignmentResult:
    matrix: np.ndarray   # r x r; orthogonal for Procrustes, invertible for GL
    residual: float      # aligned distance value
    converged: bool


def relative_error(f, m_star):
    """||X Y.T - M*||_F / ||M*||_F."""
    m_star = np.asarray(m_star, dtype=np.float64)
    denom = frobenius_norm(m_star)
    if denom == 0.0:
        raise ValueError("m_star is zero; relative error undefined")
    return frobenius_norm(f.product() - m_star) / denom


def procrustes_align(f, target):
    """Best orthogonal O minimizing ||F O - F_target||_F."""
    if f.r != target.r:
        raise ValueError("rank mismatch between factor pairs")
    a = f.stacked()
    b = target.stacked()
    u, _, v = full_svd(a.T @ b)
    o = u @ v.T
    residual = frobenius_norm(a @ o - b)
    return AlignmentResult(matrix=o, residual=residual, converged=True)


def _inv_t(q):
    """Q^-T, or None when Q is singular."""
    _, _, p, info = dgesv(q.T, np.eye(q.shape[0]))
    return p if info == 0 else None


def _gl_residual(q, x, y, x_t, y_t):
    """sqrt(||XQ - X*||_F^2 + ||Y Q^-T - Y*||_F^2), on the d x r factors."""
    p = _inv_t(q)
    if p is None:
        return np.inf
    rx = x @ q - x_t
    ry = y @ p - y_t
    return float(np.sqrt(np.sum(rx * rx) + np.sum(ry * ry)))


def _gl_offset(o, a, b, xe, yf, d):
    """(P, H, off, mag) at Q = O + D: P = Q^-T, H = P - O = -P D^T O and

        off = 2<X^T E, D> + <D, A D> + 2<Y^T F, H> + <H, B H>,

    which the objective exceeds ||E||^2 + ||F||^2 by (O^-T = O), written
    with no large norm to cancel. `mag` is the sum of the four terms'
    magnitudes, the scale of off's rounding. off is inf when Q is singular.
    """
    p = _inv_t(o + d)
    if p is None:
        return None, None, np.inf, 0.0
    h = -p @ d.T @ o
    terms = (2.0 * np.vdot(xe, d), np.vdot(d, a @ d),
             2.0 * np.vdot(yf, h), np.vdot(h, b @ h))
    return p, h, sum(terms), sum(map(abs, terms))


def _gl_derivatives(a, b, xe, yf, d, p, h):
    """Half the gradient (r x r) and half the Hessian (r^2 x r^2, row-major
    vec) of the objective at Q = O + D, with P, H from `_gl_offset`."""
    r = d.shape[0]
    s = p @ (yf + b @ h).T @ p
    grad = xe + a @ d - s
    # hess[i, k, j, l] = d grad[i, k] / d Q[j, l]
    #   = A[i, j] I[k, l] + (P P^T)[i, j] (P^T B P)[k, l]
    #     + P[i, l] S[j, k] + S[i, l] P[j, k].
    # The last two terms are the outer product P (x) S indexed
    # [(i, l), (j, k)] plus its transpose.
    kron = np.multiply.outer(a, np.eye(r)) + np.multiply.outer(p @ p.T,
                                                              p.T @ b @ p)
    swap = np.multiply.outer(p, s).reshape(r * r, r * r)
    swap = (swap + swap.T).reshape(r, r, r, r)
    hess = kron.transpose(0, 2, 1, 3) + swap.transpose(0, 3, 2, 1)
    return grad, hess.reshape(r * r, r * r)


def _gl_newton(o, a, b, xe, yf):
    """Damped Newton for min ||XQ - X*||^2 + ||Y Q^-T - Y*||^2 over Q = O + D.

    `o` is the Procrustes rotation, `a`, `b` the Grams X^T X, Y^T Y and
    `xe`, `yf` the cross terms X^T E, Y^T F with E = X O - X*,
    F = Y O - Y*. Steps start at D = 0, cost O(r^3) plus a Cholesky solve
    with the r^2 x r^2 Hessian, and are compared by `_gl_offset`. A step
    that raises the offset beyond rounding, or a Hessian that is not
    positive definite, adds Levenberg damping mu I. Returns
    (Q, stationary): stationary when an undamped step moved Q by at most
    STATIONARY_STEP relative.
    """
    n = o.size
    scale = np.trace(a) + np.trace(b)
    # An overflowed iterate: no step can be measured on non-finite Grams.
    if not (np.isfinite(scale) and np.isfinite(xe).all()
            and np.isfinite(yf).all()):
        return o, False
    eye_n = np.eye(n)
    mu_min, mu_max = 1e-6 * scale, 1e16 * scale
    # Each offset sums four inner products of n terms, each exact to a few
    # ulps of its own magnitude: a rise below that is rounding, not ascent.
    rounding = 4 * n * np.finfo(np.float64).eps

    d = np.zeros_like(o)
    p, h = o, d
    off = mag = mu = 0.0
    for _ in range(NEWTON_MAX_STEPS):
        grad, hess = _gl_derivatives(a, b, xe, yf, d, p, h)
        while True:
            _, step, info = dposv(hess + mu * eye_n, -grad.ravel())
            if info == 0:
                d_new = d + step.reshape(o.shape)
                p_new, h_new, off_new, mag_new = _gl_offset(o, a, b, xe, yf,
                                                            d_new)
                if off_new <= off + rounding * (mag + mag_new):
                    break
            mu = max(4.0 * mu, mu_min)
            if not mu <= mu_max:
                return o + d, False
        q = o + d_new
        if mu == 0.0 and (np.vdot(step, step)
                          <= STATIONARY_STEP ** 2 * np.vdot(q, q)):
            return q, True
        d, p, h, off, mag = d_new, p_new, h_new, off_new, mag_new
        mu = mu / 4.0 if mu >= 4.0 * mu_min else 0.0
    return o + d, False


@np.errstate(over="ignore", invalid="ignore")
def gl_align(f, target):
    """Minimize ||XQ - X*||^2 + ||Y Q^-T - Y*||^2 over invertible Q.

    A damped Newton solve on r x r Grams around the Procrustes point: it
    starts at the Procrustes rotation O and steps on Q = O + D using only
    X^T X, Y^T Y, X^T (X O - X*) and Y^T (Y O - Y*), built once per call.
    The Newton point and O are compared by their d x r residual, so the
    result never exceeds the Procrustes residual. `converged` means the
    solve ended at a stationary point (an undamped Newton step on a
    positive definite Hessian that barely moved Q) and the chosen Q is well
    conditioned. Overflow on diverged factors is not reported as a
    warning: it makes a candidate non-finite, and a pair with no finite
    candidate raises AlignmentDegenerateError.
    """
    if f.r != target.r:
        raise ValueError("rank mismatch between factor pairs")
    smin_x = np.linalg.svd(f.x, compute_uv=False)[-1] if f.x.size else 0.0
    smin_y = np.linalg.svd(f.y, compute_uv=False)[-1] if f.y.size else 0.0
    if min(smin_x, smin_y) <= RANK_DEFICIENCY_TOL:
        raise AlignmentDegenerateError(
            f"factor smallest singular value {min(smin_x, smin_y):.3e} below "
            f"{RANK_DEFICIENCY_TOL}")

    pro = procrustes_align(f, target)
    o = pro.matrix
    x, y = f.x, f.y
    x_t, y_t = target.x, target.y
    q, stationary = _gl_newton(o, x.T @ x, y.T @ y, x.T @ (x @ o - x_t),
                               y.T @ (y @ o - y_t))

    # Candidates are compared by residual, with the Procrustes one as
    # computed rather than squared and rooted again, so that the result is
    # exactly at most the Procrustes residual.
    candidates = [(_gl_residual(q, x, y, x_t, y_t), q), (pro.residual, o)]
    candidates = [(v, c) for v, c in candidates if np.isfinite(v)]
    if not candidates:
        raise AlignmentDegenerateError(
            "no alignment candidate has a finite residual")
    residual, q = min(candidates, key=lambda vc: vc[0])
    converged = bool(stationary
                     and np.linalg.svd(q, compute_uv=False)[-1] > 1e-8)
    return AlignmentResult(matrix=q, residual=residual, converged=converged)


def dist(f, target):
    """Aligned distance between factor pairs: the GL-aligned residual."""
    return gl_align(f, target).residual


def balancing_norm(f):
    """||X.T X - Y.T Y||_F, the norm-imbalance between the factors."""
    return frobenius_norm(f.x.T @ f.x - f.y.T @ f.y)


def incoherence(u, v, orthonormal_tol=1e-8):
    """Smallest mu with max row norms of u, v below sqrt(mu r / d)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    r = u.shape[1]
    if v.shape[1] != r:
        raise ValueError("u and v must have the same column count")
    for name, m in (("u", u), ("v", v)):
        gram_err = np.max(np.abs(m.T @ m - np.eye(r)))
        if gram_err > orthonormal_tol:
            raise ValueError(f"{name} columns not orthonormal "
                             f"(gram deviation {gram_err:.3e})")
    mu_u = u.shape[0] / r * np.max(np.sum(u * u, axis=1))
    mu_v = v.shape[0] / r * np.max(np.sum(v * v, axis=1))
    return float(max(mu_u, mu_v))
