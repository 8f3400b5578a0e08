"""Distances, alignments, and diagnostic quantities.

Two alignments are exposed: the orthogonal (Procrustes) rotation and the
best invertible alignment over GL(r) that also absorbs diagonal
rescalings between the factors. `dist` reports the GL residual, which
never exceeds the Procrustes one: an upper bound on the infimum over
GL(r) that is tight in practice.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

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
GL_MAX_ITERS = 200


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


@np.errstate(over="ignore", invalid="ignore")
def gl_align(f, target):
    """Approximately minimize ||XQ - X*||^2 + ||Y Q^-T - Y*||^2 over GL(r).

    A quasi-Newton refinement starting from the Procrustes rotation; the
    Procrustes rotation is one of the candidates, so the result never
    exceeds the Procrustes residual. Overflow on diverged factors is not
    reported as a warning: it makes a candidate non-finite, and a pair with
    no finite candidate raises AlignmentDegenerateError.
    """
    if f.r != target.r:
        raise ValueError("rank mismatch between factor pairs")
    r = f.r
    smin_x = np.linalg.svd(f.x, compute_uv=False)[-1] if f.x.size else 0.0
    smin_y = np.linalg.svd(f.y, compute_uv=False)[-1] if f.y.size else 0.0
    if min(smin_x, smin_y) <= RANK_DEFICIENCY_TOL:
        raise AlignmentDegenerateError(
            f"factor smallest singular value {min(smin_x, smin_y):.3e} below "
            f"{RANK_DEFICIENCY_TOL}")

    pro = procrustes_align(f, target)
    q0 = pro.matrix
    x, y = f.x, f.y
    x_t, y_t = target.x, target.y

    def fun(vec):
        val, grad = _gl_value_grad(vec.reshape(r, r), x, y, x_t, y_t)
        return val, grad.ravel()

    res = minimize(fun, q0.ravel(), jac=True, method="L-BFGS-B",
                   options={"maxiter": GL_MAX_ITERS, "ftol": 1e-18,
                            "gtol": 1e-14})

    def gl_residual(q):
        return float(np.sqrt(max(_gl_value_grad(q, x, y, x_t, y_t)[0], 0.0)))

    # Candidates are compared by residual, with the Procrustes one as
    # computed rather than squared and rooted again, so that the result is
    # exactly at most the Procrustes residual.
    q = res.x.reshape(r, r)
    candidates = [(gl_residual(q), q), (pro.residual, q0)]
    # When X Y.T matches the target product, the optimum solves either
    # one-sided least-squares problem exactly; those closed forms reach a
    # far lower floor than the iterative refinement, so try them too.
    qx = np.linalg.lstsq(x, x_t, rcond=None)[0]
    qy = np.linalg.lstsq(y, y_t, rcond=None)[0]
    extra = [qx]
    try:
        extra.append(np.linalg.inv(qy).T)
    except np.linalg.LinAlgError:
        pass
    candidates += [(gl_residual(cand), cand) for cand in extra]
    candidates = [(v, c) for v, c in candidates if np.isfinite(v)]
    if not candidates:
        raise AlignmentDegenerateError(
            "no alignment candidate has a finite residual")
    residual, q = min(candidates, key=lambda vc: vc[0])
    converged = bool(res.success)
    if np.linalg.svd(q, compute_uv=False)[-1] <= 1e-8:
        converged = False
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
