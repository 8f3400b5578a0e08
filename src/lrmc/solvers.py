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
Up to sampling.DENSE_SIZE_LIMIT entries it is a dense d1 x d2 matrix S,
one buffer per problem. The factors are held transposed, in one
C-contiguous (r* + r) x (d1 + d2) buffer whose top rows are the target's
fixed [-(U* S*).T | V*.T] and whose bottom rows are the iterate
[X.T | Y.T], so with A = [-U* S*, X] and B = [V*, Y] one product of inner
dimension r* + r, A B.T, forms X Y.T - M* in S: M* is never read, and no
subtraction pass follows. Its norm gives the relative error, and S is
then scaled in place by the weights W, which gives the objective and the
gradient; an iteration streams W and S only. Every dense working array
starts on a 64-byte boundary (linalg._aligned_zeros), since an iteration's
speed otherwise depends on where the allocator puts it. Above the limit
the residual lives only on the cells, in a CSR matrix, and the relative
error comes from numpy's QR of the factors; there, forming X Y.T would
cost more than it saves.

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

A problem is bound to its iterate: it copies (X, Y) into its own
r x (d1 + d2) buffer [X.T | Y.T], next to a gradient buffer of the same
shape (in the CSR layout, transposes of row-major [X; Y] arrays), and
`run` steps that buffer in place, so an iteration allocates no factor
arrays. Both layouts add the ridge and imbalance penalties to the data
gradient by the same code, on those buffers. A FactorPair is built only
at the boundaries: a copy of each recorded iterate when factors are
stored, the final iterate, and the inputs and outputs of the public
objective, gradient and step.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import _aligned_zeros, frobenius_norm
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
# VGD's in 117-121 ms at each size.
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
    """The problem (gt, mask, variant) bound once to an iterate (x, y).

    The variant's cells and per-cell divisors are fixed at bind time (see
    the module docstring), and (x, y) is copied into the iterate buffer z,
    [X.T | Y.T], next to the gradient buffer g, [Gx.T | Gy.T]; x, y, gx
    and gy are views of them. `load()` computes the residual X Y.T - M* at
    z and its relative error, and writes the residual, divided by the
    divisors on the cells and zero elsewhere, into a matrix S; objective
    and gradient read S alone, the objective as (1/2) p <S, S> plus
    leave-one-out's line term (module docstring) and the data gradient as
    (S Y, S.T X), to which `gradient()` adds, in either layout, the ridge
    lam z and the balancing term b z, signed + on X's columns and - on
    Y's. x and y are the attributes a FactorPair has, so balancing_norm
    reads the problem as its iterate. With a fully observed mask the
    leave-one-out cells are the mask's and every divisor is 1, so it is
    the balancing problem bitwise.

    In the dense layout (module docstring) z is the bottom rows of `aug`,
    whose top rows are the target's factors. The product of its two column
    blocks writes X Y.T - M* into S, the one preallocated d1 x d2 buffer,
    and once its norm is taken S is multiplied in place by W, which holds
    1/divisor on the cells and 0 elsewhere; the data gradient is formed
    transposed, (Y.T S.T, X.T S), into g's rows. In the CSR layout z and g
    are the transposes of row-major [X; Y] and [Gx; Gy], and the residual
    is written in place into the data of a CSR matrix S, so the gradient
    costs O(|cells| r); it is formed block by block (module docstring), so
    no |cells| x r array is held. There the relative error takes
    O((d1+d2) r^2): with A = [X, -U* S*] and B = [Y, V*], X Y.T - M* =
    A B.T, and ||A B.T||_F = ||B R_A.T||_F for the triangular factor R_A
    of a QR of A.
    """

    def __init__(self, gt, mask, variant, x, y):
        div, self.line = mask.p, None
        if variant.tag == "leave_one_out":
            mask, div = loo_cells(mask, variant.sel)
            self.line = np.flatnonzero(div != mask.p)  # in cell order
        self.p, (d1, d2), r = mask.p, (mask.d1, mask.d2), y.shape[1]
        self.m_norm = frobenius_norm(gt.m_star)
        if self.m_norm == 0.0:
            raise ValueError("m_star is zero; relative error undefined")
        self.lam = variant.lam
        self.balanced = variant.tag in ("balancing", "leave_one_out")
        self.a_star = -(gt.u_star * gt.sigma_star)
        self.b_star = gt.v_star
        # W, or the CSR matrix S whose data load overwrites.
        observed = _observed_matrix(mask, 1.0 / div)
        self.dense = isinstance(observed, np.ndarray)
        if self.dense:
            self.w = observed
            self.s = _aligned_zeros((d1, d2))
            self.s_vals = self.s.reshape(-1)  # a view of s
            if self.line is not None:  # cell order -> s_vals order
                self.line = (mask.rows[self.line] * d2
                             + mask.cols[self.line])
            r_star = self.a_star.shape[1]
            self.aug = _aligned_zeros((r_star + r, d1 + d2))
            self.aug[:r_star, :d1] = self.a_star.T
            self.aug[:r_star, d1:] = self.b_star.T
            self.a, self.bt = self.aug[:, :d1].T, self.aug[:, d1:]
            self.z, self.g = self.aug[r_star:], _aligned_zeros((r, d1 + d2))
        else:
            self.div = div
            self.rows, self.cols = mask.rows, mask.cols
            self.m_obs = gt.m_star[mask.rows, mask.cols]
            self.s = observed
            self.s_vals = self.s.data
            self.z = np.empty((d1 + d2, r)).T
            self.g = np.empty((d1 + d2, r)).T
        self.st = self.s.T  # shares the storage of self.s
        self.z[:, :d1], self.z[:, d1:] = x.T, y.T
        self.xt, self.yt = self.z[:, :d1], self.z[:, d1:]
        self.gxt, self.gyt = self.g[:, :d1], self.g[:, d1:]
        self.x, self.y = self.xt.T, self.yt.T
        self.gx, self.gy = self.gxt.T, self.gyt.T
        if self.balanced:
            # The balancing term's signs, + on X's columns and - on Y's, and a
            # buffer for its product.
            self.sign = _aligned_zeros((d1 + d2,))
            self.sign[:d1], self.sign[d1:] = 1.0, -1.0
            self.u = _aligned_zeros(self.z.shape)

    def load(self):
        """Evaluate the residual at z and return its relative error."""
        if self.dense:
            np.matmul(self.a, self.bt, out=self.s)
            rel = frobenius_norm(self.s) / self.m_norm
            self.s *= self.w
            return rel
        x, y, r = self.x, self.y, self.x.shape[1]
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

    def gradient(self):
        """Write the gradient at the loaded iterate into g."""
        if self.dense:
            # Transposed, (Y.T S.T, X.T S), each written into its rows of g.
            np.matmul(self.yt, self.st, out=self.gxt)
            np.matmul(self.xt, self.s, out=self.gyt)
        else:
            self.gx[...] = self.s @ self.y
            self.gy[...] = self.st @ self.x
        if self.lam is not None:
            self.g += self.lam * self.z
        if self.balanced:
            # b is symmetric, so (x @ b).T = b @ x.T: one product for both.
            np.matmul(self._imbalance(), self.z, out=self.u)
            self.u *= self.sign
            self.g += self.u

    def _imbalance(self):
        """0.5 (X.T X - Y.T Y) at the loaded iterate. Scaling by 0.5 is
        exact, so a product with it is half the product with the Gram
        difference, bit for bit."""
        b = self.x.T @ self.x
        b -= self.y.T @ self.y
        b *= 0.5
        return b


def objective(f, gt, mask, variant):
    """Evaluate the selected objective at the factor pair f."""
    _check_shapes(f, gt, mask)
    problem = _Problem(gt, mask, variant, f.x, f.y)
    problem.load()
    return problem.objective()


def gradient(f, gt, mask, variant):
    """Gradient of the selected objective, as a FactorPair."""
    _check_shapes(f, gt, mask)
    problem = _Problem(gt, mask, variant, f.x, f.y)
    problem.load()
    problem.gradient()
    return FactorPair(np.ascontiguousarray(problem.gx),
                      np.ascontiguousarray(problem.gy))


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

    problem = _Problem(gt, mask, config.variant, init.x, init.y)
    f_star = gt.optimal_pair()
    trace = IterateTrace()
    factors = [] if config.store_factors else None
    # The iterate lives in the problem's buffer z, updated in place from its
    # gradient buffer g; x and y are views of z.
    z, g, x, y = problem.z, problem.g, problem.x, problem.y
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
            rel = problem.load()
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
            problem.gradient()
            np.multiply(g, config.step, out=g)
            np.subtract(z, g, out=z)
    seconds = time.perf_counter() - t0
    # The terminal iterate is always recorded, so with stored factors
    # final is the last of them; otherwise it is the iterate, copied out of
    # the dense layout's transposed buffer.
    final = factors[-1] if factors else FactorPair(np.ascontiguousarray(x),
                                                   np.ascontiguousarray(y))
    return RunResult(final=final, trace=trace, status=status, iterations=k,
                     factors=factors, seconds_loop=seconds - recording,
                     seconds_record=recording)
