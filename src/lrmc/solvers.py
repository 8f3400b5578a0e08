"""Objectives, gradients, and the gradient-descent loop.

Four problem variants share one loop: the plain least-squares objective
("vanilla"), the ridge-penalized one ("regularized"), the one with the
norm-imbalance penalty ("balancing"), and the leave-one-out problem where
one row or column is treated as fully observed.

All four share one data term, a weighted least-squares sum over a set of
cells: (1/2) sum_c R_c^2 / w_c with R = X Y.T - M*. The first three use
the observed cells with w_c = p. Leave-one-out uses the observed cells
together with its whole line, with w_c = 1 on the line and p elsewhere
(sampling.loo_cells), which is the operator (1/p) P_{Omega minus line} +
P_{line}. The ridge and imbalance penalties are added to that data term.

The residual has two storage layouts, picked once per problem from
d1 * d2 alone. Up to DENSE_SIZE_LIMIT entries it is a dense d1 x d2
matrix, and the one matrix X Y.T - M* per iterate gives the relative
error, the objective and the gradient. Above the limit it lives only on
the cells, in a CSR matrix, and the relative error comes from numpy's QR
of the factors; there, forming X Y.T would cost more than it saves.
scipy.sparse, which holds the CSR matrix, is imported with the first CSR
problem, or with the first spectral start with max(d1, d2) > 512
(spectral.FULL_SVD_DIM_LIMIT), which also takes a CSR matrix; a process
that makes neither does not load scipy.

`run` holds the iterate in one (d1+d2) x r buffer [X; Y] and the gradient
in a second one, and steps in place, so an iteration allocates no factor
arrays. A FactorPair is built only at the boundaries: a copy of each
recorded iterate when factors are stored, the final iterate, and the
inputs and outputs of the public objective, gradient and step.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import frobenius_norm
from .metrics import _align_stack, balancing_norm
from .model import FactorPair
from .sampling import LooSelector, loo_cells

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
# Up to this many entries d1 * d2 the residual is held as a dense matrix;
# above it, on the cells only (see the module docstring). The crossover
# measured at one BLAS thread lies between 6e4 and 2e5 entries.
DENSE_SIZE_LIMIT = 1 << 17
# With compute_dist, recorded iterates are aligned this many at a time, in
# one stacked call (metrics._align_stack). On the 160x100 r=5 headline VGD
# run (1 BLAS thread, 3 runs) chunks of 16, 32 and 64 align its 787
# iterates in 82-94, 79-80 and 72-75 ms, against 0.43-0.55 s in single
# calls; the chunk buffers stay small.
DIST_CHUNK = 32


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
    """Per recorded iteration metrics.

    `seconds` is the solver's cumulative wall clock, with the time spent
    aligning for `dist_to_truth` left out, so it means the same with and
    without compute_dist. `dist_to_truth` is computed in chunks of
    DIST_CHUNK recorded iterates, and once more for the rest at the end.
    """

    k: list = field(default_factory=list)
    relative_error: list = field(default_factory=list)
    dist_to_truth: list = field(default_factory=list)
    balancing_norm: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    seconds: list = field(default_factory=list)


@dataclass
class RunResult:
    """The outcome of `run`. `final` shares no memory with the initial
    factors or with anything `run` keeps; it belongs to the caller. With
    stored factors it is the last of them, the terminal iterate."""

    final: FactorPair
    trace: IterateTrace
    status: str  # converged | max_iters | diverged
    iterations: int
    factors: list | None = None  # recorded iterates when requested
    # Where the solve's wall clock went: seconds_record in `record` (the
    # trace metrics, stored factors and, with compute_dist, every chunked
    # alignment), seconds_loop in the rest, the iterations themselves.
    seconds_loop: float = 0.0
    seconds_record: float = 0.0


class _Problem:
    """The problem (gt, mask, variant) bound once, evaluated per iterate.

    The variant's cells and per-cell divisors are fixed at bind time (see
    the module docstring). One evaluation of an iterate, `load(x, y)`,
    computes the residual X Y.T - M* and its relative error, and writes the
    residual, divided by the divisors on the cells and zero elsewhere, into
    a matrix S; objective and gradient both read it, the objective as
    (1/2) <residual, S> and the data gradient as (S Y, S.T X). `run` loads
    views of its [X; Y] buffer and has `gradient(gx, gy)` write into views
    of its gradient buffer, so no FactorPair is built per iterate; the
    loaded x and y are the attributes a FactorPair has, so balancing_norm
    reads the problem as the loaded pair. With a
    fully observed mask the leave-one-out cells are the mask's and every
    divisor is 1, so it is the balancing problem bitwise.

    In the dense layout (module docstring) the residual D goes into a
    preallocated d1 x d2 buffer and S = D * W, W holding 1/divisor on the
    cells and 0 elsewhere. In the CSR layout the residual is written in
    place into the data of a CSR matrix S, so the gradient costs
    O(|cells| r). There the relative error takes O((d1+d2) r^2): with
    A = [X, -U* S*] and B = [Y, V*], X Y.T - M* = A B.T, and
    ||A B.T||_F = ||B R_A.T||_F for the triangular factor R_A of a QR of A.
    """

    def __init__(self, gt, mask, variant):
        if variant.tag not in ("vanilla", "regularized", "balancing",
                               "leave_one_out"):
            raise ValueError(f"unknown variant {variant.tag!r}")
        div = mask.p
        if variant.tag == "leave_one_out":
            mask, div = loo_cells(mask, variant.sel)
        self.m_norm = frobenius_norm(gt.m_star)
        if self.m_norm == 0.0:
            raise ValueError("m_star is zero; relative error undefined")
        self.lam = variant.lam if variant.tag == "regularized" else None
        self.balanced = variant.tag in ("balancing", "leave_one_out")
        self.dense = mask.d1 * mask.d2 <= DENSE_SIZE_LIMIT
        if self.dense:
            self.m_star = np.ascontiguousarray(gt.m_star, dtype=np.float64)
            self.w = np.zeros((mask.d1, mask.d2))
            self.w[mask.rows, mask.cols] = 1.0 / div
            self.resid = np.empty((mask.d1, mask.d2))
            self.s = self.s_vals = np.empty((mask.d1, mask.d2))
        else:
            from scipy.sparse import csr_array  # see the module docstring
            self.div = div
            self.rows, self.cols = mask.rows, mask.cols
            self.m_obs = gt.m_star[mask.rows, mask.cols]
            self.s = csr_array((np.zeros(mask.n_cells), mask.cols,
                                mask.row_ptr), shape=(mask.d1, mask.d2))
            self.s_vals = self.s.data
            self.a_star = -(gt.u_star * gt.sigma_star)
            self.b_star = gt.v_star
        self.st = self.s.T  # shares the storage of self.s

    def load(self, x, y):
        """Evaluate the residual at (x, y) and return its relative error.

        x and y are held, not copied: objective() and gradient() read the
        iterate loaded last, so it must not change in between.
        """
        self.x, self.y = x, y
        if self.dense:
            np.matmul(x, y.T, out=self.resid)
            self.resid -= self.m_star
            np.multiply(self.resid, self.w, out=self.s)
            return frobenius_norm(self.resid) / self.m_norm
        self.resid = np.einsum("ij,ij->i", x.take(self.rows, 0),
                               y.take(self.cols, 0))
        self.resid -= self.m_obs
        np.divide(self.resid, self.div, out=self.s_vals)
        r_a = np.linalg.qr(np.hstack((x, self.a_star)), mode="r")
        b = np.hstack((y, self.b_star))
        return frobenius_norm(b @ r_a.T) / self.m_norm

    def objective(self, bal=None):
        """The objective at the loaded iterate; `bal`, when given, is its
        balancing_norm, so a caller that has it is not made to redo it."""
        x, y = self.x, self.y
        val = 0.5 * float(np.vdot(self.resid, self.s_vals))
        if self.lam is not None:
            val += 0.5 * self.lam * float(np.vdot(x, x) + np.vdot(y, y))
        if self.balanced:
            val += 0.125 * (balancing_norm(self) if bal is None else bal) ** 2
        return val

    def gradient(self, gx, gy):
        """Write the gradient at the loaded iterate into gx and gy."""
        x, y = self.x, self.y
        if self.dense:
            np.matmul(self.s, y, out=gx)
            np.matmul(self.st, x, out=gy)
        else:
            gx[...] = self.s @ y
            gy[...] = self.st @ x
        if self.lam is not None:
            gx += self.lam * x
            gy += self.lam * y
        if self.balanced:
            b = x.T @ x - y.T @ y
            gx += 0.5 * x @ b
            gy -= 0.5 * y @ b


def objective(f, gt, mask, variant):
    """Evaluate the selected objective at the factor pair f."""
    _check_shapes(f, gt, mask)
    problem = _Problem(gt, mask, variant)
    problem.load(f.x, f.y)
    return problem.objective()


def gradient(f, gt, mask, variant):
    """Gradient of the selected objective, as a FactorPair."""
    _check_shapes(f, gt, mask)
    problem = _Problem(gt, mask, variant)
    problem.load(f.x, f.y)
    g = FactorPair(np.empty((gt.d1, f.r)), np.empty((gt.d2, f.r)))
    problem.gradient(g.x, g.y)
    return g


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

    The trace holds every record_every-th iterate and the terminal one,
    whose index is `iterations`. Deterministic for fixed inputs (the
    seconds column aside).
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
    # The iterate lives in one buffer z = [X; Y], updated in place from the
    # gradient buffer g = [Gx; Gy]; x, y, gx and gy are views of them.
    z = np.concatenate((init.x, init.y), dtype=np.float64)
    g = np.empty_like(z)
    x, y = z[:gt.d1], z[gt.d1:]
    gx, gy = g[:gt.d1], g[gt.d1:]
    if config.compute_dist:
        buf_x = np.empty((DIST_CHUNK, gt.d1, init.r))
        buf_y = np.empty((DIST_CHUNK, gt.d2, init.r))
    held = 0          # recorded iterates waiting in the buffers
    aligning = 0.0    # seconds spent on dist, left out of trace.seconds
    recording = 0.0   # seconds spent in record
    t0 = time.perf_counter()

    def record(k, rel, last):
        # The terminal iterate (last) also aligns what the buffers hold.
        nonlocal held, aligning, recording
        t_in = time.perf_counter()
        trace.k.append(k)
        trace.relative_error.append(rel)
        bal = balancing_norm(problem)
        trace.balancing_norm.append(bal)
        trace.objective.append(problem.objective(bal))
        if factors is not None:
            factors.append(FactorPair(x.copy(), y.copy()))
        if config.compute_dist:
            t = time.perf_counter()
            buf_x[held], buf_y[held] = x, y
            held += 1
            if held == DIST_CHUNK or last:
                # A degenerate iterate gets a nan residual.
                _, _, res, _ = _align_stack(buf_x[:held], buf_y[:held],
                                            f_star)
                trace.dist_to_truth.extend(res.tolist())
                held = 0
            aligning += time.perf_counter() - t
        t = time.perf_counter()
        trace.seconds.append(t - t0 - aligning)
        recording += t - t_in

    # A diverging iterate overflows; the non-finite relative error that
    # results is the divergence signal, reported by the status, so numpy's
    # overflow and invalid-value warnings are not raised here.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.max_iters + 1):
            rel = problem.load(x, y)
            if not rel <= DIVERGENCE_REL_ERR:  # nan included
                status = "diverged"
            elif rel < config.tol:
                status = "converged"
            elif k == config.max_iters:
                status = "max_iters"
            else:
                status = None
            if status or k % config.record_every == 0:
                record(k, rel, status is not None)
            if status:
                break
            problem.gradient(gx, gy)
            np.multiply(g, config.step, out=g)
            np.subtract(z, g, out=z)
    seconds = time.perf_counter() - t0
    # The terminal iterate is always recorded, so with stored factors
    # final is the last of them; otherwise it is the buffer itself.
    final = factors[-1] if factors else FactorPair(x, y)
    return RunResult(final=final, trace=trace, status=status, iterations=k,
                     factors=factors, seconds_loop=seconds - recording,
                     seconds_record=recording)
