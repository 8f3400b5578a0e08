"""Distances, alignments, and diagnostic quantities.

Two alignments are exposed: the orthogonal (Procrustes) rotation and the
best invertible alignment over GL(r) that also absorbs diagonal
rescalings between the factors. The GL alignment is a damped Newton solve
on r x r Grams, each step an r^2 x r^2 system whatever the factor sizes.
`dist` reports the GL residual, which never exceeds the Procrustes one.

The solve starts from the one-sided least-squares alignment
Q_x = (X^T X)^-1 X^T X* where that is better than the Procrustes rotation
O, and from O otherwise. Vanilla gradient descent keeps the imbalance
X^T X - Y^T Y small but not zero, so it converges to (X* G, Y* G^-T) with
G invertible and not orthogonal: O stays a fixed distance from the GL
optimum however small `dist` gets, while Q_x is within the noise of it.
When the factors are balanced, G is near orthogonal and O is close too.

`_align_stack` aligns K iterates, as (K, d1, r) and (K, d2, r) stacks,
with one target in batched numpy calls; `gl_align` and `dist` are its K = 1
calls. An item's result does not depend on the rest of its stack, bit for
bit, so a trajectory aligned in chunks matches `dist` on each iterate.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import frobenius_norm

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
ORTHONORMAL_TOL = 1e-8  # largest Gram deviation incoherence accepts


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
    d = f.product()
    d -= m_star
    return frobenius_norm(d) / denom


def _dot(u, v):
    """<U, V> for each item of (..., m, n) stacks."""
    return (u * v).sum(axis=(-2, -1))


def _each(fn, out, *stacks):
    """out = fn(*stacks) over (..., m, n) stacks, batched; where LAPACK
    rejects an item, item by item, leaving nan there. Returns out."""
    try:
        out[...] = fn(*stacks)
    except np.linalg.LinAlgError:
        for j in np.ndindex(out.shape[:-2]):
            try:
                out[j] = fn(*(m[j] for m in stacks))
            except np.linalg.LinAlgError:
                out[j] = np.nan
    return out


@np.errstate(over="ignore", invalid="ignore")
def _procrustes(x, y, x_t, y_t):
    """Procrustes rotations O of (K, d1, r), (K, d2, r) stacks, and the
    residual sqrt(||X O - X*||^2 + ||Y O - Y*||^2) with its two blocks. O is
    nan where X^T X* + Y^T Y* is not finite: LAPACK's SVD can hang on inf.
    A residual that overflows is inf, with no warning."""
    c = x.swapaxes(1, 2) @ x_t + y.swapaxes(1, 2) @ y_t
    bad = ~np.isfinite(c).all(axis=(1, 2))[:, None, None]
    u, _, vt = np.linalg.svd(np.where(bad, 0.0, c))
    o = np.where(bad, np.nan, u @ vt)
    ex, ey = x @ o - x_t, y @ o - y_t
    return o, np.sqrt(_dot(ex, ex) + _dot(ey, ey)), ex, ey


def procrustes_align(f, target):
    """Best orthogonal O minimizing ||F O - F_target||_F."""
    if f.r != target.r:
        raise ValueError("rank mismatch between factor pairs")
    o, res, _, _ = _procrustes(f.x[None], f.y[None], target.x, target.y)
    return AlignmentResult(matrix=o[0], residual=float(res[0]),
                           converged=True)


def _gl_offset(o, a, b, xe, yf, d):
    """(P, H, off, mag) at Q = O + D, per item of (..., r, r) stacks:
    P = Q^-T, H = P - O = -P D^T O and

        off = 2<X^T E, D> + <D, A D> + 2<Y^T F, H> + <H, B H>,

    which the objective exceeds ||E||^2 + ||F||^2 by (O^-T = O), written
    with no large norm to cancel. `mag` is the sum of the four terms'
    magnitudes, the scale of off's rounding. off is nan where Q is singular.
    """
    p = _each(np.linalg.inv, np.empty_like(d), (o + d).swapaxes(-1, -2))
    h = -p @ d.swapaxes(-1, -2) @ o
    terms = (2.0 * _dot(xe, d), _dot(d, a @ d), 2.0 * _dot(yf, h),
             _dot(h, b @ h))
    return p, h, sum(terms), sum(map(abs, terms))


def _gl_derivatives(a, b, xe, yf, d, p, h):
    """Half the gradient (..., r, r) and half the Hessian (..., r^2, r^2),
    row-major vec, of the objective at Q = O + D, with P, H from
    `_gl_offset`."""
    r = d.shape[-1]
    pt = p.swapaxes(-1, -2)
    s = p @ (yf + b @ h).swapaxes(-1, -2) @ p
    grad = xe + a @ d - s
    # hess[i, k, j, l] = d grad[i, k] / d Q[j, l]
    #   = A[i, j] I[k, l] + (P P^T)[i, j] (P^T B P)[k, l]
    #     + P[i, l] S[j, k] + S[i, l] P[j, k]: four outer products, formed
    # as broadcast products over the axes (i, k, j, l) and summed into one
    # array in this order.
    hess = a[..., :, None, :, None] * np.eye(r)[:, None, :]
    term = np.empty_like(hess)
    for u, v in (((p @ pt)[..., :, None, :, None],
                  (pt @ b @ p)[..., None, :, None, :]),
                 (p[..., :, None, None, :],
                  s.swapaxes(-1, -2)[..., None, :, :, None]),
                 (s[..., :, None, None, :], pt[..., None, :, :, None])):
        hess += np.multiply(u, v, out=term)
    return grad, hess.reshape(*hess.shape[:-4], r * r, r * r)


def _gl_newton(o, a, b, xe, yf):
    """Damped Newton for min ||XQ - X*||^2 + ||Y Q^-T - Y*||^2 over Q = O + D.

    On (..., r, r) stacks of the Procrustes rotation O, the Grams X^T X,
    Y^T Y and the cross terms X^T E, Y^T F (E = X O - X*, F = Y O - Y*),
    one solve per item, each batched pass over the items still iterating.
    An item starts from the least-squares alignment (module docstring),
    D = -A^-1 X^T E with A = X^T X, where `_gl_offset` puts it below O, and
    at D = 0 otherwise. Each pass makes one trial per item, the Newton step
    with damping mu I, accepted unless its offset rises beyond rounding or
    the damped Hessian is not positive definite. A rejected trial is retried
    on the next pass with 4 mu; an accepted one quarters mu. An item leaves
    at a stationary step (undamped, moving Q by at most STATIONARY_STEP
    relative), once mu passes mu_max, or after NEWTON_MAX_STEPS accepted
    steps. Returns (Q, stationary), Q the last accepted point."""
    shape, r = o.shape, o.shape[-1]
    o3, a, b, xe, yf = (m.reshape(-1, r, r) for m in (o, a, b, xe, yf))
    scale = np.trace(a, axis1=1, axis2=2) + np.trace(b, axis1=1, axis2=2)
    # An overflowed iterate: no step can be measured on non-finite Grams.
    act = np.flatnonzero(np.isfinite(scale) & np.isfinite(xe).all(axis=(1, 2))
                         & np.isfinite(yf).all(axis=(1, 2)))
    q, stationary = o3.copy(), np.zeros(len(o3), dtype=bool)
    if not act.size:
        return o, stationary.reshape(shape[:-2])
    o3, a, b, xe, yf, scale = (m[act] for m in (o3, a, b, xe, yf, scale))
    # mu_max at most the largest float: an overflowed bound is never passed.
    mu_min, eye_n = 1e-6 * scale, np.eye(r * r)
    mu_max = np.minimum(1e16 * scale, np.finfo(np.float64).max)
    # Each offset sums four inner products of r^2 terms, each exact to a few
    # ulps of its own magnitude: a rise below that is rounding, not ascent.
    rounding = 4 * r * r * np.finfo(np.float64).eps
    d, h, p = np.zeros_like(o3), np.zeros_like(o3), o3.copy()
    off, mag, mu, steps = np.zeros((4, len(act)))
    d0 = -_each(np.linalg.solve, np.empty_like(xe), a, xe)
    start = (d0,) + _gl_offset(o3, a, b, xe, yf, d0)
    use = start[3] < 0.0
    for v, t in zip((d, p, h, off, mag), start):
        v[use] = t[use]
    while act.size:
        grad, hess = _gl_derivatives(a, b, xe, yf, d, p, h)
        sys = hess + mu[:, None, None] * eye_n
        pd = np.isfinite(_each(np.linalg.cholesky, np.empty_like(sys), sys))
        rhs = -grad.reshape(-1, r * r, 1)
        step = _each(np.linalg.solve, np.empty_like(rhs), sys, rhs)
        d_new = d + step.reshape(d.shape)
        trial = (d_new,) + _gl_offset(o3, a, b, xe, yf, d_new)
        take = pd.all(axis=(1, 2)) & (
            trial[3] <= off + rounding * (mag + trial[4]))
        for v, t in zip((d, p, h, off, mag), trial):
            v[take] = t[take]
        q[act] = q_act = o3 + d
        stationary[act] = done = take & (mu == 0.0) & (
            _dot(step, step) <= STATIONARY_STEP ** 2 * _dot(q_act, q_act))
        steps += take
        mu = np.where(take, np.where(mu >= 4.0 * mu_min, mu / 4.0, 0.0),
                      np.maximum(4.0 * mu, mu_min))
        keep = ~done & (steps < NEWTON_MAX_STEPS) & (mu <= mu_max)
        if not keep.all():
            act, o3, a, b, xe, yf, mu_min, mu_max, d, p, h, off, mag, mu, \
                steps = (m[keep] for m in (act, o3, a, b, xe, yf, mu_min,
                                           mu_max, d, p, h, off, mag, mu,
                                           steps))
    return q.reshape(shape), stationary.reshape(shape[:-2])


def _full_rank(m):
    """sigma_min > RANK_DEFICIENCY_TOL for each item of a (K, d, r) stack,
    d >= r, from the r x r triangle of a QR: a Gram cannot resolve sigma
    below about 1e-8 sigma_max, and RANK_DEFICIENCY_TOL is a singular
    value."""
    return np.linalg.svd(np.linalg.qr(m, mode="r"),
                         compute_uv=False)[:, -1] > RANK_DEFICIENCY_TOL


@np.errstate(over="ignore", invalid="ignore")
def _align_stack(x, y, target):
    """`gl_align` on K iterates, x (K, d1, r) and y (K, d2, r), with one
    target, the Grams and cross terms built once, the Newton solve started
    as the module docstring says. Returns (Q, O, residual, converged), Q
    and O the (K, r, r) GL and Procrustes alignments. A degenerate item
    (non-finite or rank-deficient factors, fewer rows than r included, or
    no finite candidate) gets a nan Q and residual, unconverged; nothing is
    raised.
    """
    x_t, y_t = target.x, target.y
    k, r = len(x), x.shape[2]
    grams = np.empty((2 * k, r, r))
    a, b = grams[:k], grams[k:]
    np.matmul(x.swapaxes(1, 2), x, out=a)
    np.matmul(y.swapaxes(1, 2), y, out=b)
    # Rank check: sigma_min > RANK_DEFICIENCY_TOL for both factors, as
    # `_full_rank` decides it. One Cholesky call screens all 2K Grams first,
    # each G = M^T M (M d x r) shifted down by c = TOL^2 + m tr G; an item
    # it passes is full rank by `_full_rank` too, and only the rest take
    # that path. With u = eps / 2, a pass bounds sigma_min(M)^2 from below:
    #   - fl(G) = G + E, |E| <= gamma_d |M|^T |M|, so ||E|| <= d u tr G;
    #   - the Cholesky of fl(G) - c I succeeds only if fl(G) - c I + E' is
    #     positive definite for some ||E'|| <= (r + 1) u tr G;
    #   so sigma_min(M)^2 >= TOL^2 + (m - (d + r + 1) u) tr G. The QR + SVD
    # finds sigma_min of M + F, ||F|| <= c' d r u ||M||_F (Householder QR,
    # Higham Thm 19.4, with the SVD of the triangle), and, as no G with
    # tr G < TOL^2 passes, (TOL + c' d r u ||M||_F)^2 <= TOL^2 +
    # 3 c' d r u tr G. So m = 8 (d + 1)(r + 1) eps covers all three for any
    # c' <= 5; at 160 x 5 it sends on only condition numbers above ~3e5.
    # A factor with d < r rows has rank below r whatever its d singular
    # values.
    ok = (np.isfinite(x).all(axis=(1, 2)) & np.isfinite(y).all(axis=(1, 2))
          & (x.shape[1] >= r > 0) & (y.shape[1] >= r))
    screened = np.concatenate((ok, ok))
    if screened.any():
        g = grams[screened]
        d = np.repeat((x.shape[1], y.shape[1]), k)[screened]
        m = 8 * (d + 1) * (r + 1) * np.finfo(np.float64).eps
        c = RANK_DEFICIENCY_TOL ** 2 + m * np.trace(g, axis1=1, axis2=2)
        g -= c[:, None, None] * np.eye(r)
        screened[screened] = np.isfinite(_each(
            np.linalg.cholesky, np.empty_like(g), g)).all(axis=(1, 2))
    for fac, passed in ((x, screened[:k]), (y, screened[k:])):
        rest = ok & ~passed
        if rest.any():
            ok[rest] = _full_rank(fac[rest])
    o, rp, ex, ey = _procrustes(x, y, x_t, y_t)
    i = slice(None) if ok.all() else np.flatnonzero(ok)
    xs, ys, os = x[i], y[i], o[i]
    qn, stationary = _gl_newton(os, a[i], b[i], xs.swapaxes(1, 2) @ ex[i],
                                ys.swapaxes(1, 2) @ ey[i])
    pn = _each(np.linalg.inv, np.empty_like(qn), qn.swapaxes(1, 2))
    rx, ry = xs @ qn - x_t, ys @ pn - y_t
    rn = np.sqrt(_dot(rx, rx) + _dot(ry, ry))
    # Candidates are compared by residual, the Procrustes one as computed,
    # so the result is exactly at most it. Ties go to the Newton point.
    newton = np.isfinite(rn) & ~(rn > rp[i])
    res, q = np.full(len(x), np.nan), np.full_like(o, np.nan)
    res[i], q[i] = np.where(newton, rn, rp[i]), np.where(newton[:, None, None],
                                                         qn, os)
    fin, converged = np.isfinite(res), np.zeros(len(x), dtype=bool)
    res[~fin], q[~fin], converged[i] = np.nan, np.nan, stationary
    converged[fin] &= np.linalg.svd(q[fin], compute_uv=False)[:, -1] > 1e-8
    return q, o, res, converged


def gl_align(f, target):
    """Minimize ||XQ - X*||^2 + ||Y Q^-T - Y*||^2 over invertible Q: the
    K = 1 call of `_align_stack`, never above the Procrustes residual.
    `converged` means the solve ended at a stationary point (an undamped
    Newton step on a positive definite Hessian that barely moved Q) and the
    chosen Q is well conditioned. A rank-deficient pair, or one with no
    finite candidate, raises AlignmentDegenerateError."""
    if f.r != target.r:
        raise ValueError("rank mismatch between factor pairs")
    q, _, res, converged = _align_stack(f.x[None], f.y[None], target)
    if np.isnan(res[0]):
        raise AlignmentDegenerateError(
            "factor pair rank-deficient or with no finite alignment residual")
    return AlignmentResult(matrix=q[0], residual=float(res[0]),
                           converged=bool(converged[0]))


def dist(f, target):
    """Aligned distance between factor pairs: the GL-aligned residual."""
    return gl_align(f, target).residual


def balancing_norm(f):
    """||X.T X - Y.T Y||_F, the norm-imbalance between the factors."""
    return frobenius_norm(f.x.T @ f.x - f.y.T @ f.y)


def incoherence(u, v):
    """Smallest mu with max row norms of u, v below sqrt(mu r / d)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    r = u.shape[1]
    if v.shape[1] != r:
        raise ValueError("u and v must have the same column count")
    for name, m in (("u", u), ("v", v)):
        gram_err = np.max(np.abs(m.T @ m - np.eye(r)))
        if gram_err > ORTHONORMAL_TOL:
            raise ValueError(f"{name} columns not orthonormal "
                             f"(gram deviation {gram_err:.3e})")
    mu_u = u.shape[0] / r * np.max(np.sum(u * u, axis=1))
    mu_v = v.shape[0] / r * np.max(np.sum(v * v, axis=1))
    return float(max(mu_u, mu_v))
