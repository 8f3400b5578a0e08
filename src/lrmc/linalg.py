"""Dense matrix norms and decompositions used by every other module.

Matrices are plain float64 numpy arrays (row-major). All functions are pure
and deterministic.
"""

import numpy as np

__all__ = [
    "DecompositionError",
    "frobenius_norm",
    "spectral_norm",
    "two_inf_norm",
    "full_svd",
    "fix_signs",
]


class DecompositionError(Exception):
    """Raised when a factorization fails to converge."""


def frobenius_norm(m):
    """Square root of the sum of squared entries."""
    m = np.asarray(m, dtype=np.float64)
    return float(np.sqrt(np.sum(m * m)))


def spectral_norm(m, tol=1e-10, max_iters=10000):
    """Largest singular value, via power iteration on m.T @ m.

    Converges to relative tolerance `tol` on the singular value. The start
    vector is deterministic, so repeated calls agree bitwise.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.size == 0 or not np.any(m):
        return 0.0
    n = m.shape[1]
    # Deterministic start with decaying components so it is (generically)
    # not orthogonal to the leading singular subspace.
    v = 1.0 / np.sqrt(1.0 + np.arange(n))
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iters):
        w = m.T @ (m @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            # Start vector lies in the null space; restart shifted.
            v = np.roll(v, 1) + 1e-3
            v /= np.linalg.norm(v)
            continue
        sigma_new = np.sqrt(norm_w)
        v = w / norm_w
        if abs(sigma_new - sigma) <= tol * max(sigma_new, 1e-300):
            return float(sigma_new)
        sigma = sigma_new
    return float(sigma)


def two_inf_norm(m):
    """Largest Euclidean norm over the rows of m."""
    m = np.asarray(m, dtype=np.float64)
    if m.size == 0:
        return 0.0
    return float(np.max(np.sqrt(np.sum(m * m, axis=1))))


def full_svd(m):
    """Thin SVD with a deterministic sign convention.

    Returns (u, sigma, v) with m = u @ diag(sigma) @ v.T, sigma nonnegative
    and descending, and u, v with orthonormal columns. In each left singular
    vector the entry of largest magnitude (lowest index on ties) is made
    nonnegative, so factors are reproducible across platforms.
    """
    m = np.asarray(m, dtype=np.float64)
    try:
        u, sigma, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD did not converge: {exc}") from exc
    u, v = fix_signs(u, vt.T)
    return u, sigma, v


def fix_signs(u, v):
    """Flip singular-vector pairs so that in each column of u the entry of
    largest magnitude (lowest index on ties) is nonnegative."""
    dominant = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    flip = np.where(dominant < 0, -1.0, 1.0)
    return u * flip, v * flip
