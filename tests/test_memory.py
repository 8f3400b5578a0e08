"""Traced peak memory of the large-problem path and of the theory checker.

Above DENSE_SIZE_LIMIT and FULL_SVD_DIM_LIMIT the library works on the
observed cells, so no call may hold a transient d1 x d2 float64 matrix on
top of what its caller already holds: the target's check, the mask draw,
both spectral starts, the problem's set-up and the solve. The target
m_star is given both C-ordered and F-ordered, since a relabelled or
transposed target is F-ordered and reading it must not copy it.

hypothesis_check works through a run's records in slices of DIST_CHUNK,
so its transient memory does not grow with the number of records.
"""

import tracemalloc

import numpy as np
import pytest

from lrmc.diagnostics import (default_selectors, hypothesis_check,
                              run_loo_family)
from lrmc.experiments import gen_ground_truth
from lrmc.metrics import relative_error
from lrmc.model import GroundTruth
from lrmc.sampling import LooSelector, sample_mask
from lrmc.solvers import (DENSE_SIZE_LIMIT, DIST_CHUNK, SolverConfig,
                          SolverVariant, _Problem, run)
from lrmc.spectral import FULL_SVD_DIM_LIMIT, loo_init, spectral_init

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
    assert D1 * D2 > DENSE_SIZE_LIMIT and max(D1, D2) > FULL_SVD_DIM_LIMIT
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


def test_relative_error_holds_one_dense_temporary(instance):
    # X Y.T itself is one d1 x d2 matrix; the residual is formed in it.
    gt, _, f0 = instance
    peak = traced_peak(lambda: relative_error(f0, gt.m_star))
    assert peak < 1.5 * MATRIX, f"{peak / MATRIX:.2f} d1 x d2 matrices"


def test_hypothesis_check_transient_is_one_slice():
    # A theory-style instance (kappa = 2) that takes 536 iterations: at
    # record_every=5 its 109 records fill several slices as well, so the
    # checker's transient, its peak less the report it keeps, is the same
    # one-slice working set at both strides. Stacking every record instead
    # costs about 5 (d1 + d2) r float64 per record.
    d1, d2, r, p = 90, 60, 3, 0.3
    gt = gen_ground_truth(d1, d2, r, 2.0, seed=3)
    mask = sample_mask(d1, d2, p, seed=4)
    f0 = spectral_init(gt, mask, r)
    transient = {}
    for every in (1, 5):
        cfg = SolverConfig(SolverVariant.vanilla(), step=0.5, max_iters=5000,
                           tol=1e-13, record_every=every, store_factors=True)
        main = run(gt, mask, cfg, f0)
        loo = run_loo_family(gt, mask, cfg, default_selectors(d1, d2, 2, 2))
        assert len(main.factors) > 3 * DIST_CHUNK
        peak, kept = traced(lambda: hypothesis_check(main, loo, gt, 0.5, p))
        transient[every] = peak - kept
    one_slice = DIST_CHUNK * (d1 + d2) * r * 8
    assert transient[1] - transient[5] <= one_slice, (
        f"{(transient[1] - transient[5]) / one_slice:.1f} slices")
