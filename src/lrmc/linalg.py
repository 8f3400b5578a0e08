"""Dense matrix norms and decompositions used by every other module.

Matrices are plain float64 numpy arrays (row-major). All functions are pure
and deterministic. `frobenius_norm` is the package's one whole-matrix
Frobenius norm kernel (metrics._dot batches inner products over stacks).
"""

import math

import numpy as np

__all__ = [
    "frobenius_norm",
    "spectral_norm",
    "full_svd",
    "fix_signs",
]


def frobenius_norm(m):
    """sqrt(<m, m>) of a float64 array from one BLAS dot, which sums in
    another order than the pairwise np.sum(m * m) used before: values moved
    in the last bits.

    The dot runs over the entries in memory order, so a contiguous array of
    either order is read in place, not copied; an F-ordered matrix's value
    can differ from its C-ordered copy's in the last bits."""
    v = m.ravel(order="K")
    return math.sqrt(v.dot(v))


def spectral_norm(m):
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(m, dtype=np.float64), 2))


def full_svd(m):
    """Thin SVD with a deterministic sign convention.

    Returns (u, sigma, v) with m = u @ diag(sigma) @ v.T, sigma nonnegative
    and descending, and u, v with orthonormal columns. In each left singular
    vector the entry of largest magnitude (lowest index on ties) is made
    nonnegative, so factors are reproducible across platforms. Raises
    np.linalg.LinAlgError, a ValueError, when the SVD does not converge.
    """
    m = np.asarray(m, dtype=np.float64)
    u, sigma, vt = np.linalg.svd(m, full_matrices=False)
    u, v = fix_signs(u, vt.T)
    return u, sigma, v


def fix_signs(u, v):
    """Flip singular-vector pairs so that in each column of u the entry of
    largest magnitude (lowest index on ties) is nonnegative."""
    dominant = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    flip = np.where(dominant < 0, -1.0, 1.0)
    return u * flip, v * flip
