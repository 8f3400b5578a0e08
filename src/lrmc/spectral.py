"""Truncated SVD and spectral initialization of the gradient iteration.

Both starts, the plain one and the leave-one-out one, take the top-r SVD of
the observed matrix M*[cells] / div of their weighted cell set, zero off
the cells, built as the solve builds its own (sampling._observed_matrix).
Of a dense one only the top r triplets are computed (_gram_svd). A CSR
one goes to randomized subspace iteration (Halko, Martinsson and Tropp,
2011), which touches it only through products with it and its transpose,
so the start costs O(|cells| r) per product and holds no d1 x d2 array.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .linalg import fix_signs, full_svd
from .model import FactorPair, _check_int
from .sampling import _check_dims, _fits_dense, _observed_matrix, loo_cells

__all__ = ["TruncatedSvd", "truncated_svd", "spectral_init", "loo_init"]

OVERSAMPLING = 10
POWER_ITERS = 4
START_SEED = 0  # seeds the starts' randomized SVD, so each start is fixed


@dataclass(frozen=True)
class TruncatedSvd:
    u0: np.ndarray      # d1 x r
    sigma0: np.ndarray  # length r, nonnegative descending
    v0: np.ndarray      # d2 x r


def truncated_svd(m, r, seed=0):
    """Top-r singular triplets of m, a dense array or a scipy.sparse matrix.

    A dense m up to sampling.DENSE_SIZE_LIMIT entries: the top r
    eigenvectors of the smaller Gram matrix and one Rayleigh-Ritz step
    (_gram_svd). Otherwise: seeded randomized subspace iteration.
    """
    sparse = hasattr(m, "tocsr")  # scipy.sparse, left unimported here
    m = m if sparse else np.asarray(m, dtype=np.float64)
    _check_rank(r, *m.shape)
    if sparse or not _fits_dense(*m.shape):
        return _randomized_svd(m, r, seed)
    return _gram_svd(m, r)


def _check_rank(r, d1, d2):
    if _check_int(r, "rank r") > min(d1, d2):
        raise ValueError(f"rank r={r} exceeds min dimension {min(d1, d2)}")


def _gram_svd(m, r):
    """Top-r triplets of a dense m. With t = m or m.T, whichever is tall,
    the top r eigenvectors v_r of the Gram t.T @ t span the right vectors;
    q, from a QR of t @ v_r, spans the left ones, and the Rayleigh-Ritz
    step, the SVD of q.T @ t, gives the triplets. That step keeps the
    small singular values the Gram's squaring loses: taken from the
    eigenpairs alone, at r = min(d1, d2) and condition 1e10, they were off
    by 2.0 relative and u was not orthonormal."""
    t = m.T if m.shape[0] < m.shape[1] else m
    _, vecs = np.linalg.eigh(t.T @ t)  # ascending eigenvalues
    q, _ = np.linalg.qr(t @ vecs[:, ::-1][:, :r])
    return _rayleigh_ritz(t, q, r, transposed=t is not m)


def _randomized_svd(m, r, seed):
    """Top-r triplets of m, a dense array or a scipy.sparse matrix, by
    seeded randomized subspace iteration. m enters only through products;
    for a sparse m, q.T @ m is scipy's (m.T @ q).T."""
    k = min(r + OVERSAMPLING, *m.shape)
    rng = Generator(Philox(key=np.uint64(seed)))
    q = rng.standard_normal((m.shape[1], k))
    q, _ = np.linalg.qr(m @ q)
    for _ in range(POWER_ITERS):
        q, _ = np.linalg.qr(m.T @ q)
        q, _ = np.linalg.qr(m @ q)
    return _rayleigh_ritz(m, q, r)


def _rayleigh_ritz(m, q, r, transposed=False):
    """Top-r triplets of m within the left subspace spanned by the
    orthonormal columns of q, from the SVD of q.T @ m; transposed swaps
    the factors, for an m that is the transpose of the caller's matrix.
    The sign convention is re-applied on the full-height left vectors."""
    ub, s, v = full_svd(q.T @ m)
    u = q @ ub
    if transposed:
        u, v = v, u
    u, v = fix_signs(u, v)
    return TruncatedSvd(u[:, :r].copy(), s[:r].copy(), v[:, :r].copy())


def _start(gt, cells, div, r):
    """X0 = U0 S0^1/2, Y0 = V0 S0^1/2 from the top-r SVD of the d1 x d2
    matrix holding M*[cells] / div on the cells and 0 elsewhere."""
    _check_dims((gt.d1, gt.d2), cells, "target shape")
    observed = _observed_matrix(cells, gt.m_star[cells.rows, cells.cols] / div)
    t = truncated_svd(observed, r, START_SEED)
    # Tiny negative values from roundoff are clamped before the square root.
    root = np.sqrt(np.maximum(t.sigma0, 0.0))
    return FactorPair(t.u0 * root, t.v0 * root)


def spectral_init(gt, mask, r):
    """X0 = U0 S0^1/2, Y0 = V0 S0^1/2 from the top-r SVD of (1/p) P_Omega(M*)."""
    return _start(gt, mask, mask.p, r)


def loo_init(gt, mask, r, sel):
    """Spectral initialization of the leave-one-out problem for selector
    sel, from (1/p) P_{Omega minus line}(M*) + P_{line}(M*): the observed
    matrix with the selected row (column) fully revealed."""
    return _start(gt, *loo_cells(mask, sel), r)
