"""Truncated SVD and spectral initialization of the gradient iteration."""

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .linalg import fix_signs, full_svd
from .model import FactorPair
from .sampling import loo_project, project

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
    if r > min(d1, d2):
        raise ValueError(f"rank r={r} exceeds min dimension {min(d1, d2)}")
    if max(d1, d2) <= FULL_SVD_DIM_LIMIT:
        u, s, v = full_svd(m)
        return TruncatedSvd(u[:, :r].copy(), s[:r].copy(), v[:, :r].copy())
    return _randomized_svd(m, r, seed)


def _randomized_svd(m, r, seed):
    d1, d2 = m.shape
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


def _factors_from_svd(t):
    # Tiny negative values from roundoff are clamped before the square root.
    root = np.sqrt(np.maximum(t.sigma0, 0.0))
    return FactorPair(t.u0 * root, t.v0 * root)


def spectral_init(gt, mask, r, seed=0):
    """X0 = U0 S0^1/2, Y0 = V0 S0^1/2 from the top-r SVD of (1/p) P_Omega(M*)."""
    if (mask.d1, mask.d2) != (gt.d1, gt.d2):
        raise ValueError("mask dims do not match ground truth")
    m0 = project(gt.m_star, mask) / mask.p
    return _factors_from_svd(truncated_svd(m0, r, seed=seed))


def loo_init(gt, mask, r, sel, seed=0):
    """Spectral initialization of the leave-one-out problem.

    Applies the same recipe to the observed matrix whose selected row
    (column) is fully revealed.
    """
    if (mask.d1, mask.d2) != (gt.d1, gt.d2):
        raise ValueError("mask dims do not match ground truth")
    m0 = loo_project(gt.m_star, mask, sel, mask.p) / mask.p
    return _factors_from_svd(truncated_svd(m0, r, seed=seed))
