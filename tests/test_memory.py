"""Traced peak memory of the large-problem path and of the theory checker.

These tests are the peak-memory gate CI relies on; each bound is one
d1 x d2 float64 matrix, a few residual blocks for a CSR load, or, for the
theory checker, one slice of records or a fixed multiple of its byte
budget.

Above DENSE_SIZE_LIMIT entries d1 * d2 the library works on the observed
cells, so no call may hold a transient d1 x d2 float64 matrix on top of
what its caller already holds: the target's check, the mask draw, both
spectral starts, the problem's set-up and the solve. The target m_star is
given both C-ordered and F-ordered, since a relabelled or transposed
target is F-ordered and reading it must not copy it. The starts follow
that one rule at any shape, a square one with no side above 512 included.

A CSR load forms the residual in blocks of RESIDUAL_BLOCK_BYTES of
gathered factor rows, so it holds no |cells| x r array.

hypothesis_check works through a run's records in slices of SLICE_BYTES
of stored factors (at least one record), so its transient memory grows
with neither the number of records nor their size, d1, d2 and r.

Up to DENSE_SIZE_LIMIT a bound problem keeps two d1 x d2 float64
matrices: the weights W and the one working matrix S.
"""

import tracemalloc

import numpy as np
import pytest

from lrmc import diagnostics
from lrmc.diagnostics import (SLICE_BYTES, _slice_len, default_selectors,
                              hypothesis_check, run_loo_family)
from lrmc.experiments import gen_ground_truth
from lrmc.metrics import relative_error
from lrmc.model import GroundTruth
from lrmc.sampling import DENSE_SIZE_LIMIT, LooSelector, sample_mask
from lrmc.solvers import (RESIDUAL_BLOCK_BYTES, SolverConfig, SolverVariant,
                          _Problem, run)
from lrmc.spectral import loo_init, spectral_init

D1, D2, R, P = 1200, 1100, 3, 0.03
MATRIX = D1 * D2 * 8  # bytes of one d1 x d2 float64 matrix


def traced(fn):
    """(peak, kept): traced bytes at the peak while fn() runs and once it
    has returned, with its result held, above what was traced before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()  # noqa: F841, held while the kept bytes are read
        kept, peak = tracemalloc.get_traced_memory()
        return peak - before, kept - before
    finally:
        tracemalloc.stop()


def traced_peak(fn):
    """Peak traced bytes while fn() runs, above what was traced before."""
    return traced(fn)[0]


@pytest.fixture(scope="module", params=["C", "F"])
def instance(request):
    """(gt, mask, f0) with m_star in the parametrized memory order."""
    # Imported up front: the first CSR matrix imports scipy.sparse, whose
    # own allocations are not the call's.
    import scipy.sparse  # noqa: F401
    assert D1 * D2 > DENSE_SIZE_LIMIT
    gt = gen_ground_truth(D1, D2, R, 2.0, seed=5)
    m = np.asfortranarray(gt.m_star) if request.param == "F" else gt.m_star
    assert m.flags[request.param + "_CONTIGUOUS"]
    gt = GroundTruth(u_star=gt.u_star, sigma_star=gt.sigma_star,
                     v_star=gt.v_star, m_star=m, kappa=gt.kappa, mu=gt.mu)
    mask = sample_mask(D1, D2, P, seed=6)
    return gt, mask, spectral_init(gt, mask, R)


CALLS = {
    "GroundTruth": lambda gt, mask, f0: GroundTruth(
        u_star=gt.u_star, sigma_star=gt.sigma_star, v_star=gt.v_star,
        m_star=gt.m_star, kappa=gt.kappa, mu=gt.mu),
    "sample_mask": lambda gt, mask, f0: sample_mask(D1, D2, P, seed=6),
    "spectral_init": lambda gt, mask, f0: spectral_init(gt, mask, R),
    "loo_init row": lambda gt, mask, f0: loo_init(gt, mask, R,
                                                  LooSelector(4)),
    "loo_init col": lambda gt, mask, f0: loo_init(gt, mask, R,
                                                  LooSelector(D1 + 9)),
    "_Problem": lambda gt, mask, f0: _Problem(gt, mask,
                                              SolverVariant.vanilla()),
    "run": lambda gt, mask, f0: run(
        gt, mask, SolverConfig(SolverVariant.vanilla(), step=0.5,
                               max_iters=3), f0),
}


@pytest.mark.parametrize("call", sorted(CALLS))
def test_large_path_holds_no_dense_temporary(instance, call):
    peak = traced_peak(lambda: CALLS[call](*instance))
    assert peak < MATRIX, f"{call}: {peak / MATRIX:.2f} d1 x d2 matrices"


@pytest.mark.parametrize("variant", [SolverVariant.vanilla(),
                                     SolverVariant.leave_one_out(4)],
                         ids=["vanilla", "leave_one_out"])
def test_csr_load_holds_no_cells_by_rank_temporary(instance, variant):
    # A load holds at most the two gathers of one block, or the QR's input
    # [X, -U* S*] with [Y, V*] and its copies. Gathering every cell's rows
    # at once held two |cells| x r arrays: 2.2 MB here, against this bound
    # of 0.9 MB and 0.96 MB for one |cells| x r array.
    gt, mask, f0 = instance
    problem = _Problem(gt, mask, variant)
    assert not problem.dense
    peak = traced_peak(lambda: problem.load(f0.x, f0.y))
    bound = 3 * RESIDUAL_BLOCK_BYTES + (D1 + D2) * 2 * R * 8
    assert bound < mask.n_cells * R * 8
    assert peak < bound, f"{peak / bound:.2f} of the bound"


def test_target_draw_transient_is_under_one_matrix():
    # gen_ground_truth keeps m_star, one d1 x d2 matrix; drawing and
    # checking it holds less than one more on top.
    assert D1 * D2 > DENSE_SIZE_LIMIT
    peak, kept = traced(lambda: gen_ground_truth(D1, D2, R, 2.0, seed=5))
    assert peak - kept <= MATRIX, f"{(peak - kept) / MATRIX:.2f} matrices"


@pytest.mark.parametrize("sel", [None, 4, 409], ids=["spectral_init",
                                                   "loo_init row",
                                                   "loo_init col"])
def test_square_starts_above_the_limit_hold_no_dense_temporary(sel):
    import scipy.sparse  # noqa: F401, see the instance fixture
    d = 400
    assert d * d > DENSE_SIZE_LIMIT
    gt = gen_ground_truth(d, d, R, 2.0, seed=5)
    mask = sample_mask(d, d, 0.05, seed=6)
    peak = traced_peak(lambda: spectral_init(gt, mask, R) if sel is None
                       else loo_init(gt, mask, R, LooSelector(sel)))
    assert peak < d * d * 8, f"{peak / (d * d * 8):.2f} d1 x d2 matrices"


def test_relative_error_holds_one_dense_temporary(instance):
    # X Y.T itself is one d1 x d2 matrix; the residual is formed in it.
    gt, _, f0 = instance
    peak = traced_peak(lambda: relative_error(f0, gt.m_star))
    assert peak < 1.5 * MATRIX, f"{peak / MATRIX:.2f} d1 x d2 matrices"


def test_hypothesis_check_transient_is_one_slice(monkeypatch):
    # A theory-style instance (kappa = 2) that takes 536 iterations: at
    # record_every=5 its 109 records fill several slices of 16 records as
    # well, so the checker's transient, its peak less the report it keeps,
    # is the same working set at both strides, to within one slice.
    # Stacking every record instead costs about 5 (d1 + d2) r float64 per
    # record. The budget is set to 16 records here: SLICE_BYTES alone gives
    # 72 at this size, which 109 records would not fill three times.
    d1, d2, r, p = 90, 60, 3, 0.3
    record = (d1 + d2) * r * 8
    monkeypatch.setattr(diagnostics, "SLICE_BYTES", 16 * record)
    gt = gen_ground_truth(d1, d2, r, 2.0, seed=3)
    mask = sample_mask(d1, d2, p, seed=4)
    f0 = spectral_init(gt, mask, r)
    transient = {}
    for every in (1, 5):
        cfg = SolverConfig(SolverVariant.vanilla(), step=0.5, max_iters=5000,
                           tol=1e-13, record_every=every, store_factors=True)
        main = run(gt, mask, cfg, f0)
        loo = run_loo_family(gt, mask, cfg, default_selectors(d1, d2, 2, 2))
        assert len(main.factors) > 3 * _slice_len(d1, d2, r)
        peak, kept = traced(lambda: hypothesis_check(main, loo, gt, 0.5, p))
        transient[every] = peak - kept
    one_slice = _slice_len(d1, d2, r) * record
    assert transient[1] - transient[5] <= one_slice, (
        f"{(transient[1] - transient[5]) / one_slice:.1f} slices")


@pytest.mark.parametrize("d1, d2, r, p, max_iters",
                         [(90, 60, 3, 0.3, 5000), (400, 300, 5, 0.2, 60)],
                         ids=["90x60 r3", "400x300 r5"])
def test_hypothesis_check_transient_is_bounded_in_bytes(d1, d2, r, p,
                                                         max_iters):
    # The checker holds about five copies of a slice, which is at most
    # SLICE_BYTES or one record, so its transient stays under a fixed
    # multiple of SLICE_BYTES plus one record whatever the record size. It
    # read 4.7 times that at both sizes; slices of 32 records read 15.7
    # times it at 400x300, r = 5.
    gt = gen_ground_truth(d1, d2, r, 2.0, seed=3)
    mask = sample_mask(d1, d2, p, seed=4)
    cfg = SolverConfig(SolverVariant.vanilla(), step=0.5,
                       max_iters=max_iters, tol=1e-13, store_factors=True)
    main = run(gt, mask, cfg, spectral_init(gt, mask, r))
    loo = run_loo_family(gt, mask, cfg, default_selectors(d1, d2, 2, 2))
    assert len(main.factors) > 3 * _slice_len(d1, d2, r)
    peak, kept = traced(lambda: hypothesis_check(main, loo, gt, 0.5, p))
    bound = 6 * (SLICE_BYTES + (d1 + d2) * r * 8)
    assert peak - kept < bound, f"{(peak - kept) / bound:.2f} of the bound"


@pytest.mark.parametrize("variant", [SolverVariant.vanilla(),
                                     SolverVariant.leave_one_out(7)],
                         ids=["vanilla", "leave_one_out"])
def test_dense_problem_keeps_two_dense_matrices(variant):
    # theory's 300x200, r=4, p=0.25 instance binds the dense layout. The
    # residual is formed in S and scaled there, so a loaded problem keeps
    # W and S; a separate residual buffer made it three.
    d1, d2, r = 300, 200, 4
    assert d1 * d2 <= DENSE_SIZE_LIMIT
    gt = gen_ground_truth(d1, d2, r, 2.0, seed=3)
    mask = sample_mask(d1, d2, 0.25, seed=4)
    f0 = spectral_init(gt, mask, r)

    def loaded():
        problem = _Problem(gt, mask, variant)
        problem.load(f0.x, f0.y)
        return problem

    _, kept = traced(loaded)
    matrix = d1 * d2 * 8
    assert kept < 2.5 * matrix, f"{kept / matrix:.2f} d1 x d2 matrices"
