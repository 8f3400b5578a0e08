"""Factor-pair and ground-truth data model."""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import frobenius_norm

__all__ = ["FactorPair", "GroundTruth"]

# GroundTruth compares m_star with its factors in row blocks of about this
# many entries, so the check holds no d1 x d2 temporary.
_CHECK_BLOCK = 1 << 16


@dataclass(frozen=True)
class FactorPair:
    """The iterate (X, Y) with X d1 x r and Y d2 x r."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.ndim != 2:
            raise ValueError("factors must be 2-D")
        if self.x.shape[1] != self.y.shape[1]:
            raise ValueError(
                f"factor column counts differ: {self.x.shape[1]} vs "
                f"{self.y.shape[1]}")

    @property
    def r(self):
        return self.x.shape[1]

    def stacked(self):
        """The (d1+d2) x r matrix [X; Y]."""
        return np.vstack([self.x, self.y])

    def product(self):
        """X @ Y.T, the completed matrix this pair represents."""
        return self.x @ self.y.T


@dataclass(frozen=True)
class GroundTruth:
    """Planted low-rank target with its SVD factors and derived constants."""

    u_star: np.ndarray      # d1 x r, orthonormal columns
    sigma_star: np.ndarray  # length r, positive descending
    v_star: np.ndarray      # d2 x r, orthonormal columns
    m_star: np.ndarray      # d1 x d2
    kappa: float            # sigma_max / sigma_min
    mu: float               # incoherence coefficient (>= 1)

    def __post_init__(self):
        if np.shape(self.m_star) != (self.d1, self.d2):
            raise ValueError("m_star does not match its factorization")
        # ||U* S* V*.T - M*||_F, accumulated over row blocks.
        sv = self.sigma_star[:, None] * self.v_star.T
        step = max(1, _CHECK_BLOCK // self.d2)
        err2 = 0.0
        for i in range(0, self.d1, step):
            block = self.u_star[i:i + step] @ sv
            block -= self.m_star[i:i + step]
            err2 += np.vdot(block, block)
        if math.sqrt(err2) > 1e-12 * max(frobenius_norm(self.m_star), 1e-300):
            raise ValueError("m_star does not match its factorization")
        if self.kappa < 1.0 - 1e-12:
            raise ValueError(f"kappa={self.kappa} < 1")
        if self.mu < 1.0 - 1e-9:
            raise ValueError(f"mu={self.mu} < 1")

    @property
    def d1(self):
        return self.u_star.shape[0]

    @property
    def d2(self):
        return self.v_star.shape[0]

    @property
    def r(self):
        return self.sigma_star.size

    @property
    def sigma_max(self):
        return float(self.sigma_star[0])

    @property
    def sigma_min(self):
        return float(self.sigma_star[-1])

    def optimal_pair(self):
        """The balanced optimal factors (U* S^1/2, V* S^1/2)."""
        root = np.sqrt(self.sigma_star)
        return FactorPair(self.u_star * root, self.v_star * root)
