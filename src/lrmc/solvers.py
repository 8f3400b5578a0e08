"""Objectives, gradients, and the gradient-descent loop.

Four problem variants share one loop: the plain least-squares objective
("vanilla"), the ridge-penalized one ("regularized"), the one with the
norm-imbalance penalty ("balancing"), and the leave-one-out problem where
one row or column is treated as fully observed.

The leave-one-out gradient uses the operator (1/p) P_{Omega minus line} +
P_{line}; its data term is written as the matching quadratic form
(1/2p) <loo_project(R), R> so that objective and gradient stay consistent
(finite differences of the objective reproduce the gradient).
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgeqrf
from scipy.sparse import csr_array

from .linalg import frobenius_norm
from .metrics import AlignmentDegenerateError, balancing_norm, dist
from .model import FactorPair
from .sampling import LooSelector

__all__ = [
    "SolverVariant",
    "SolverConfig",
    "IterateTrace",
    "RunResult",
    "objective",
    "gradient",
    "step",
    "run",
]

DIVERGENCE_REL_ERR = 1e6


@dataclass(frozen=True)
class SolverVariant:
    """One of vanilla / regularized(lam) / balancing / leave_one_out(sel)."""

    tag: str
    lam: float | None = None
    sel: LooSelector | None = None

    @classmethod
    def vanilla(cls):
        return cls(tag="vanilla")

    @classmethod
    def regularized(cls, lam):
        if lam <= 0:
            raise ValueError(f"regularization parameter lam={lam} must be > 0")
        return cls(tag="regularized", lam=float(lam))

    @classmethod
    def balancing(cls):
        return cls(tag="balancing")

    @classmethod
    def leave_one_out(cls, sel):
        if isinstance(sel, int):
            sel = LooSelector(sel)
        return cls(tag="leave_one_out", sel=sel)


@dataclass(frozen=True)
class SolverConfig:
    variant: SolverVariant
    step: float
    max_iters: int = 5000
    tol: float = 1e-14
    record_every: int = 1
    compute_dist: bool = False
    store_factors: bool = False

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError(f"step size {self.step} must be > 0")
        if self.tol <= 0:
            raise ValueError(f"tolerance {self.tol} must be > 0")
        if self.max_iters < 1 or self.record_every < 1:
            raise ValueError("max_iters and record_every must be >= 1")


@dataclass
class IterateTrace:
    """Per recorded iteration metrics; `seconds` is cumulative wall clock."""

    k: list = field(default_factory=list)
    relative_error: list = field(default_factory=list)
    dist_to_truth: list = field(default_factory=list)
    balancing_norm: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    seconds: list = field(default_factory=list)


@dataclass
class RunResult:
    final: FactorPair
    trace: IterateTrace
    status: str  # converged | max_iters | diverged
    iterations: int
    factors: list | None = None  # recorded iterates when requested


class _Problem:
    """The problem (gt, mask, variant) bound once, evaluated per iterate.

    One evaluation of an iterate computes the residual X Y.T - M* at the
    observed cells and writes it, scaled by 1/p, in place into the data of
    a CSR matrix S over the mask; objective and gradient both read it, and
    the data gradient is (S Y, S.T X) at O(|cells| r). The leave-one-out
    data term keeps the raw residual on the observed cells of its line and
    adds the line's unobserved cells as a separate correction, so with a
    fully observed mask it is the balancing data term bitwise.

    The relative error never forms X Y.T: with A = [X, -U* S*] and
    B = [Y, V*], X Y.T - M* = A B.T, and ||A B.T||_F = ||B R_A.T||_F for
    the triangular factor R_A of a QR of A, at O((d1+d2) r^2).
    """

    def __init__(self, gt, mask, variant):
        if variant.tag not in ("vanilla", "regularized", "balancing",
                               "leave_one_out"):
            raise ValueError(f"unknown variant {variant.tag!r}")
        self.p = mask.p
        self.rows, self.cols = mask.rows, mask.cols
        self.m_obs = gt.m_star[mask.rows, mask.cols]
        self.s = csr_array((np.zeros(mask.n_cells), mask.cols, mask.row_ptr),
                           shape=(mask.d1, mask.d2))
        self.st = self.s.T  # shares self.s.data
        self.m_norm = frobenius_norm(gt.m_star)
        if self.m_norm == 0.0:
            raise ValueError("m_star is zero; relative error undefined")
        self.a_star = -(gt.u_star * gt.sigma_star)
        self.b_star = gt.v_star
        self.lam = variant.lam if variant.tag == "regularized" else None
        self.balanced = variant.tag in ("balancing", "leave_one_out")
        self.line = None
        if variant.tag == "leave_one_out":
            sel = variant.sel
            sel.validate(mask.d1, mask.d2)
            t = sel.index(mask.d1)
            self.on_row = sel.axis(mask.d1) == "row"
            if self.on_row:
                self.line = np.arange(mask.row_ptr[t], mask.row_ptr[t + 1])
                self.unobs = np.setdiff1d(np.arange(mask.d2),
                                          mask.row_cells(t))
                self.m_unobs = gt.m_star[t, self.unobs]
            else:
                self.line = mask.col_order[mask.col_ptr[t]:mask.col_ptr[t + 1]]
                self.unobs = np.setdiff1d(np.arange(mask.d1),
                                          mask.col_cells(t))
                self.m_unobs = gt.m_star[self.unobs, t]
            self.t = t
        self.f = None

    def _load(self, f):
        """Evaluate the residual at f, unless f is the iterate last loaded."""
        if f is self.f:
            return
        vals = np.einsum("ij,ij->i", f.x.take(self.rows, 0),
                         f.y.take(self.cols, 0))
        vals -= self.m_obs
        np.divide(vals, self.p, out=self.s.data)
        if self.line is not None:
            self.s.data[self.line] = vals[self.line]
            if self.on_row:
                self.corr = f.y[self.unobs] @ f.x[self.t] - self.m_unobs
            else:
                self.corr = f.x[self.unobs] @ f.y[self.t] - self.m_unobs
        self.f, self.vals = f, vals

    def relative_error(self, f):
        a = np.empty((f.x.shape[0], f.r + self.a_star.shape[1]), order="F")
        a[:, :f.r] = f.x
        a[:, f.r:] = self.a_star
        r_a = np.triu(dgeqrf(a, overwrite_a=True)[0][:min(a.shape)])
        b = np.hstack((f.y, self.b_star))
        return frobenius_norm(b @ r_a.T) / self.m_norm

    def objective(self, f):
        self._load(f)
        p = self.p
        if self.line is None:
            val = float(self.vals @ self.vals) / (2.0 * p)
        else:
            # Off-line cells carry R/p (objective share R^2/2p per cell),
            # the selected line carries R itself (share R^2/2 per cell).
            data, on = self.s.data, self.vals[self.line]
            val = 0.5 * (p * float(data @ data) + (1.0 - p) * float(on @ on)
                         + float(self.corr @ self.corr))
        if self.lam is not None:
            val += 0.5 * self.lam * (float(np.sum(f.x * f.x))
                                     + float(np.sum(f.y * f.y)))
        if self.balanced:
            val += 0.125 * balancing_norm(f) ** 2
        return val

    def gradient(self, f):
        self._load(f)
        gx = self.s @ f.y
        gy = self.st @ f.x
        if self.line is not None and self.unobs.size:
            if self.on_row:
                gx[self.t] += self.corr @ f.y[self.unobs]
                gy[self.unobs] += np.outer(self.corr, f.x[self.t])
            else:
                gx[self.unobs] += np.outer(self.corr, f.y[self.t])
                gy[self.t] += self.corr @ f.x[self.unobs]
        if self.lam is not None:
            gx += self.lam * f.x
            gy += self.lam * f.y
        if self.balanced:
            b = f.x.T @ f.x - f.y.T @ f.y
            gx += 0.5 * f.x @ b
            gy -= 0.5 * f.y @ b
        return FactorPair(gx, gy)


def objective(f, gt, mask, variant):
    """Evaluate the selected objective at the factor pair f."""
    _check_shapes(f, gt, mask)
    return _Problem(gt, mask, variant).objective(f)


def gradient(f, gt, mask, variant):
    """Gradient of the selected objective, as a FactorPair."""
    _check_shapes(f, gt, mask)
    return _Problem(gt, mask, variant).gradient(f)


def step(f, g, s):
    """One descent update (X - s Gx, Y - s Gy)."""
    return FactorPair(f.x - s * g.x, f.y - s * g.y)


def _check_shapes(f, gt, mask):
    if f.x.shape[0] != gt.d1 or f.y.shape[0] != gt.d2:
        raise ValueError(
            f"factor heights ({f.x.shape[0]}, {f.y.shape[0]}) do not match "
            f"target dims ({gt.d1}, {gt.d2})")
    if (mask.d1, mask.d2) != (gt.d1, gt.d2):
        raise ValueError("mask dims do not match ground truth")


def run(gt, mask, config, init):
    """Gradient descent from `init` until the relative error drops below
    config.tol, the iteration cap is hit, or the run diverges.

    Deterministic for fixed inputs (the seconds column aside).
    """
    _check_shapes(init, gt, mask)
    if not (np.all(np.isfinite(init.x)) and np.all(np.isfinite(init.y))):
        raise ValueError("initial factors contain non-finite entries")
    if mask.n_cells < init.r * (gt.d1 + gt.d2):
        warnings.warn(
            f"underdetermined: |cells|={mask.n_cells} < "
            f"r(d1+d2)={init.r * (gt.d1 + gt.d2)}; proceeding",
            stacklevel=2)

    problem = _Problem(gt, mask, config.variant)
    f_star = gt.optimal_pair()
    trace = IterateTrace()
    factors = [] if config.store_factors else None
    f = init
    status = "max_iters"
    iterations = config.max_iters
    t0 = time.perf_counter()

    def record(k, rel, obj_val):
        trace.k.append(k)
        trace.relative_error.append(rel)
        trace.balancing_norm.append(balancing_norm(f))
        trace.objective.append(obj_val)
        if config.compute_dist:
            try:
                d = dist(f, f_star)
            except AlignmentDegenerateError:
                d = float("nan")
            trace.dist_to_truth.append(d)
        trace.seconds.append(time.perf_counter() - t0)
        if factors is not None:
            factors.append(f)

    for k in range(config.max_iters + 1):
        rel = problem.relative_error(f)
        if k % config.record_every == 0 or k == config.max_iters:
            record(k, rel, problem.objective(f))
        if not np.isfinite(rel) or rel > DIVERGENCE_REL_ERR:
            status, iterations = "diverged", k
            break
        if rel < config.tol:
            status, iterations = "converged", k
            break
        if k == config.max_iters:
            break
        f = step(f, problem.gradient(f), config.step)

    # Make sure the terminal iterate is always on the trace.
    if trace.k[-1] != min(iterations, config.max_iters):
        record(min(iterations, config.max_iters),
               problem.relative_error(f), problem.objective(f))
    return RunResult(final=f, trace=trace, status=status,
                     iterations=iterations, factors=factors)
