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

# Dense working arrays start on this many bytes; numpy puts a large array
# at +16. Five dense-iteration ops (1 BLAS thread, timeit) with S at each
# 8-byte offset took at 300x200 r=4 50 us at 0 and 69-71 elsewhere, and at
# 160x100 r=5 32 us at 0, 34 at +32 and 38 elsewhere.
_ALIGN = 64


def frobenius_norm(m):
    """sqrt(<m, m>) of a float64 array from one BLAS dot, which sums in
    another order than the pairwise np.sum(m * m) used before: values moved
    in the last bits.

    The dot runs over the entries in memory order, so a contiguous array of
    either order is read in place, not copied; an F-ordered matrix's value
    can differ from its C-ordered copy's in the last bits."""
    v = m.ravel(order="K")
    return math.sqrt(v.dot(v))


def _aligned_zeros(shape):
    """A zeroed C-contiguous float64 array of `shape` that starts on an
    _ALIGN-byte boundary: a slice of a buffer _ALIGN bytes longer."""
    n = math.prod(shape)
    buf = np.zeros(n + _ALIGN // 8)
    lo = -buf.ctypes.data % _ALIGN // 8
    return buf[lo:lo + n].reshape(shape)


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
