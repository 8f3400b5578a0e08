"""Truncated SVD and spectral initialization of the gradient iteration.

Both starts, the plain one and the leave-one-out one, take the top-r SVD of
the observed matrix M*[cells] / div of their weighted cell set (see
`sampling`), zero off the cells. Up to FULL_SVD_DIM_LIMIT that matrix is
scattered into a dense d1 x d2 array for a full SVD. Above it, randomized
subspace iteration (Halko, Martinsson and Tropp, 2011) touches the matrix
only through products with it and its transpose, so the cells go in as a
CSR matrix and the start costs O(|cells| r) per product and holds no
d1 x d2 array. scipy.sparse, which holds the CSR matrix, is imported with
the first such start.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .linalg import fix_signs, full_svd
from .model import FactorPair
from .sampling import loo_cells

__all__ = ["TruncatedSvd", "truncated_svd", "spectral_init", "loo_init"]

# Above this dimension the truncated SVD switches to randomized subspace
# iteration; below it, a full SVD is cheap enough.
FULL_SVD_DIM_LIMIT = 512
OVERSAMPLING = 10
POWER_ITERS = 4


@dataclass(frozen=True)
class TruncatedSvd:
    u0: np.ndarray      # d1 x r
    sigma0: np.ndarray  # length r, nonnegative descending
    v0: np.ndarray      # d2 x r


def truncated_svd(m, r, seed=0):
    """Top-r singular triplets of m.

    Uses a full SVD for max(d1, d2) <= 512 and seeded randomized subspace
    iteration above that.
    """
    m = np.asarray(m, dtype=np.float64)
    d1, d2 = m.shape
    if max(d1, d2) > FULL_SVD_DIM_LIMIT:
        return _randomized_svd(m, r, seed)
    _check_rank(r, d1, d2)
    u, s, v = full_svd(m)
    return TruncatedSvd(u[:, :r].copy(), s[:r].copy(), v[:, :r].copy())


def _check_rank(r, d1, d2):
    if r > min(d1, d2):
        raise ValueError(f"rank r={r} exceeds min dimension {min(d1, d2)}")


def _randomized_svd(m, r, seed):
    """Top-r triplets of m, a dense array or a scipy.sparse matrix, by
    seeded randomized subspace iteration. m enters only through products;
    for a sparse m, q.T @ m is scipy's (m.T @ q).T."""
    d1, d2 = m.shape
    _check_rank(r, d1, d2)
    k = min(r + OVERSAMPLING, min(d1, d2))
    rng = Generator(Philox(key=np.uint64(seed)))
    q = rng.standard_normal((d2, k))
    q, _ = np.linalg.qr(m @ q)
    for _ in range(POWER_ITERS):
        q, _ = np.linalg.qr(m.T @ q)
        q, _ = np.linalg.qr(m @ q)
    b = q.T @ m
    ub, s, v = full_svd(b)
    # Re-apply the sign convention on the full-height left vectors.
    u, v = fix_signs(q @ ub, v)
    return TruncatedSvd(u[:, :r].copy(), s[:r].copy(), v[:, :r].copy())


def _start(gt, cells, div, r, seed):
    """X0 = U0 S0^1/2, Y0 = V0 S0^1/2 from the top-r SVD of the d1 x d2
    matrix holding M*[cells] / div on the cells and 0 elsewhere, dense up
    to FULL_SVD_DIM_LIMIT and CSR above it (see the module docstring)."""
    if (cells.d1, cells.d2) != (gt.d1, gt.d2):
        raise ValueError("mask dims do not match ground truth")
    vals = gt.m_star[cells.rows, cells.cols] / div
    if max(cells.d1, cells.d2) <= FULL_SVD_DIM_LIMIT:
        m0 = np.zeros((cells.d1, cells.d2))
        m0[cells.rows, cells.cols] = vals
        t = truncated_svd(m0, r, seed=seed)
    else:
        from scipy.sparse import csr_array  # see the module docstring
        m0 = csr_array((vals, cells.cols, cells.row_ptr),
                       shape=(cells.d1, cells.d2))
        t = _randomized_svd(m0, r, seed)
    # Tiny negative values from roundoff are clamped before the square root.
    root = np.sqrt(np.maximum(t.sigma0, 0.0))
    return FactorPair(t.u0 * root, t.v0 * root)


def spectral_init(gt, mask, r, seed=0):
    """X0 = U0 S0^1/2, Y0 = V0 S0^1/2 from the top-r SVD of (1/p) P_Omega(M*)."""
    return _start(gt, mask, mask.p, r, seed)


def loo_init(gt, mask, r, sel, seed=0):
    """Spectral initialization of the leave-one-out problem for selector
    sel, from (1/p) P_{Omega minus line}(M*) + P_{line}(M*): the observed
    matrix with the selected row (column) fully revealed."""
    return _start(gt, *loo_cells(mask, sel), r, seed)
