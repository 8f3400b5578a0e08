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
It is read from the scaled residual S = R / w on the cells alone, as
(1/2) sum_c w_c S_c^2: (1/2) p <S, S>, plus (1/2) (1 - p) ||S_line||^2
for leave-one-out's line.

The residual has two storage layouts, those of the observed matrix
(sampling._observed_matrix), picked once per problem from d1 * d2 alone.
Up to sampling.DENSE_SIZE_LIMIT entries it is a dense d1 x d2 matrix,
held in one buffer per problem: X Y.T - M* is formed there, its norm
gives the relative error, and it is then scaled in place into S, which
gives the objective and the gradient. Above the limit it lives only on
the cells, in a CSR matrix, and the relative error comes from numpy's QR
of the factors; there, forming X Y.T would cost more than it saves.

The CSR residual is formed in blocks of cells whose gathered factor rows
take about RESIDUAL_BLOCK_BYTES, so they stay in cache. Per block, the
rows of X and of Y at its cells are gathered and multiplied in place,
and each row is summed by one matrix-vector product with a vector of
ones, written straight into S's data; M* at the cells is then
subtracted and the divisors divided out, in place. OpenBLAS sums a
product's rows in groups of 4 from its first row, and the rows past the
last group another way, which can differ in the last bit. Every block
starts at a multiple of 8 cells, so each cell is summed the same way at
any block size, and blocks are too small for OpenBLAS to split a product
across threads, so S does not depend on the BLAS thread count either.

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
from .model import FactorPair, _check_int, _check_real
from .sampling import LooSelector, _check_dims, _observed_matrix, loo_cells

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
# With compute_dist, recorded iterates are aligned this many at a time, in
# one stacked call (metrics._align_stack). On the 160x100 r=5 headline runs
# (1 BLAS thread, medians of 30 interleaved passes, two runs) chunks of 32,
# 64 and 128 align BGD's 787 iterates in 102-108, 91-94 and 85-89 ms, and
# VGD's in 117-121 ms at each size. 32 stays because it also sets the size
# of diagnostics.hypothesis_check's slices, which bounds its memory.
DIST_CHUNK = 32
# The CSR residual is formed this many bytes of gathered factor rows at a
# time (module docstring): for an iterate of rank r, a block holds
# RESIDUAL_BLOCK_BYTES // (8 r) cells, rounded down to a multiple of 8. At
# 2000x1500 and 3000x2000, p=0.05, r=5 and r=20 (1 BLAS thread, medians
# of 41 interleaved calls), blocks of 128 KB and 256 KB were equally fast,
# 64 KB blocks 3-14 % slower, and one gather of every cell 2.8-3.6x slower.
# A block's product, 32,768 entries, is far below the size at which 2
# OpenBLAS threads changed a product's sums: 480,000 entries did, and
# 400,000 did not.
RESIDUAL_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class SolverVariant:
    """One of vanilla / regularized(lam) / balancing / leave_one_out(sel)."""

    tag: str
    lam: float | None = None
    sel: LooSelector | None = None

    def __post_init__(self):
        if self.tag not in ("vanilla", "regularized", "balancing",
                            "leave_one_out"):
            raise ValueError(f"unknown variant {self.tag!r}")
        if (self.lam is None) == (self.tag == "regularized"):
            raise ValueError("lam is for the regularized variant, and only it")
        if self.lam is not None:
            object.__setattr__(self, "lam", _check_real(self.lam, "lam"))
        if isinstance(self.sel, LooSelector) != (self.tag == "leave_one_out"):
            raise ValueError("sel, a LooSelector, is for the leave_one_out "
                             "variant, and only it")

    @classmethod
    def vanilla(cls):
        return cls(tag="vanilla")

    @classmethod
    def regularized(cls, lam):
        return cls(tag="regularized", lam=lam)

    @classmethod
    def balancing(cls):
        return cls(tag="balancing")

    @classmethod
    def leave_one_out(cls, sel):
        if not isinstance(sel, LooSelector):
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
        for name, check in (("step", _check_real), ("tol", _check_real),
                            ("max_iters", _check_int),
                            ("record_every", _check_int)):
            object.__setattr__(self, name, check(getattr(self, name), name))


@dataclass
class IterateTrace:
    """Per recorded iteration metrics.

    `seconds` is the iterations' own time: the time since the solve started
    less the time spent recording earlier iterates, under any compute_dist,
    store_factors or record_every. `dist_to_truth` is computed in chunks of
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
    a matrix S; objective and gradient read S alone, the objective as
    (1/2) p <S, S> plus leave-one-out's line term (module docstring) and
    the data gradient as (S Y, S.T X). `run` loads views of its [X; Y]
    buffer and has `gradient(gx, gy)` write into views of its gradient
    buffer, so no FactorPair is built per iterate; the loaded x and y are
    the attributes a FactorPair has, so balancing_norm reads the problem as
    the loaded pair. With a fully observed mask the leave-one-out cells are
    the mask's and every divisor is 1, so it is the balancing problem
    bitwise.

    In the dense layout (module docstring) the residual D goes into S, the
    one preallocated d1 x d2 buffer, and once its norm is taken it is
    multiplied in place by W, which holds 1/divisor on the cells and 0
    elsewhere. In the CSR layout the residual is written in place into the
    data of a CSR matrix S, so the gradient costs O(|cells| r); it is
    formed block by block (module docstring), so no |cells| x r array is
    held. There the relative error takes O((d1+d2) r^2): with
    A = [X, -U* S*] and B = [Y, V*], X Y.T - M* = A B.T, and
    ||A B.T||_F = ||B R_A.T||_F for the triangular factor R_A of a QR of
    A.
    """

    def __init__(self, gt, mask, variant):
        div, self.line = mask.p, None
        if variant.tag == "leave_one_out":
            mask, div = loo_cells(mask, variant.sel)
            self.line = np.flatnonzero(div != mask.p)  # in cell order
        self.p = mask.p
        self.m_norm = frobenius_norm(gt.m_star)
        if self.m_norm == 0.0:
            raise ValueError("m_star is zero; relative error undefined")
        self.lam = variant.lam
        self.balanced = variant.tag in ("balancing", "leave_one_out")
        # W, or the CSR matrix S whose data load overwrites.
        observed = _observed_matrix(mask, 1.0 / div)
        self.dense = isinstance(observed, np.ndarray)
        if self.dense:
            self.m_star = np.ascontiguousarray(gt.m_star, dtype=np.float64)
            self.w = observed
            self.s = np.empty((mask.d1, mask.d2))
            self.s_vals = self.s.reshape(-1)  # a view of s
            if self.line is not None:  # cell order -> s_vals order
                self.line = (mask.rows[self.line] * mask.d2
                             + mask.cols[self.line])
        else:
            self.div = div
            self.rows, self.cols = mask.rows, mask.cols
            self.m_obs = gt.m_star[mask.rows, mask.cols]
            self.s = observed
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
            np.matmul(x, y.T, out=self.s)
            self.s -= self.m_star
            rel = frobenius_norm(self.s) / self.m_norm
            self.s *= self.w
            return rel
        r = x.shape[1]
        step = max(8, RESIDUAL_BLOCK_BYTES // (64 * r) * 8)
        ones = np.ones(r)
        for lo in range(0, self.s_vals.size, step):
            block = x.take(self.rows[lo:lo + step], 0)
            block *= y.take(self.cols[lo:lo + step], 0)
            np.matmul(block, ones, out=self.s_vals[lo:lo + step])
        self.s_vals -= self.m_obs
        self.s_vals /= self.div
        r_a = np.linalg.qr(np.hstack((x, self.a_star)), mode="r")
        b = np.hstack((y, self.b_star))
        return frobenius_norm(b @ r_a.T) / self.m_norm

    def objective(self, bal=None):
        """The objective at the loaded iterate; `bal`, when given, is its
        balancing_norm, so a caller that has it is not made to redo it."""
        x, y = self.x, self.y
        val = 0.5 * self.p * float(np.vdot(self.s_vals, self.s_vals))
        if self.line is not None:
            s_line = self.s_vals[self.line]
            val += 0.5 * (1.0 - self.p) * float(np.vdot(s_line, s_line))
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
            # Scaling b by 0.5 is exact: the terms equal 0.5 * x @ b's.
            b = x.T @ x
            b -= y.T @ y
            b *= 0.5
            gx += x @ b
            gy -= y @ b


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
    _check_dims((gt.d1, gt.d2), mask, "target shape")
    _check_dims((f.x.shape[0], f.y.shape[0]), mask, "factor heights")


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
    recording = 0.0   # seconds spent in record, left out of trace.seconds
    t0 = time.perf_counter()

    def record(k, rel, last):
        # The terminal iterate (last) also aligns what the buffers hold.
        nonlocal held, recording
        t_in = time.perf_counter()
        trace.seconds.append(t_in - t0 - recording)
        trace.k.append(k)
        trace.relative_error.append(rel)
        bal = balancing_norm(problem)
        trace.balancing_norm.append(bal)
        trace.objective.append(problem.objective(bal))
        if factors is not None:
            factors.append(FactorPair(x.copy(), y.copy()))
        if config.compute_dist:
            buf_x[held], buf_y[held] = x, y
            held += 1
            if held == DIST_CHUNK or last:
                # A degenerate iterate gets a nan residual.
                _, _, res, _ = _align_stack(buf_x[:held], buf_y[:held],
                                            f_star)
                trace.dist_to_truth.extend(res.tolist())
                held = 0
        recording += time.perf_counter() - t_in

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
