"""Property tests for the invariants the fast paths rely on.

1. An `_align_stack` item is bitwise equal to its K = 1 call.
2. `dist` never exceeds the Procrustes residual.
3. `dist` is invariant under (X G, Y G^-T).
4. Both residual layouts of `solvers._Problem` match the dense oracle.
5. `run`'s iterates are bitwise equal to the public steps.
6. A mask's constructor rejects a cell list or stores it sorted and
   unique, with `row_ptr` slicing `rows`, and its dense and CSR observed
   matrices agree.

The alignment properties draw (K, d1, r) and (K, d2, r) stacks, K <= 4 and
r <= 6, whose items mix near-target pairs (X* G, Y* G^-T) plus noise, exact
rotations (X* O, Y* O), where the GL and Procrustes residuals tie up to
rounding, unrelated pairs, rank-deficient and non-finite pairs, and pairs
scaled near overflow (the last reach the damping, the step cap and an
overflowed damping bound). Some stacks have fewer rows than r on one side,
so every item is rank-deficient. The solver properties draw problems up to
12 x 12 with r <= 3 on Bernoulli masks, masks with an empty row and/or
column, and fully observed masks. The cell lists hold up to 8 x 8 cells
in any order, some with a repeated cell or one out of bounds by one. The
Hypothesis profile in conftest.py makes the examples the same on every run.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrmc import sampling, solvers
from lrmc.metrics import (_align_stack, gl_align, incoherence,
                          procrustes_align)
from lrmc.model import FactorPair, GroundTruth
from lrmc.sampling import ObservationMask, sample_mask
from lrmc.solvers import SolverConfig, SolverVariant, gradient, run, step
from test_solvers import (LAYOUT_LIMITS, _assert_layout, _bits,
                          _dense_gradient, _dense_objective, _indicator)

KINDS = ("near", "rotated", "unrelated", "rank_deficient", "nonfinite", "huge")
DEGENERATE = ("rank_deficient", "nonfinite", "short")


def _gl_element(rng, r):
    """A random r x r G with condition number at most 1e2."""
    u, _ = np.linalg.qr(rng.standard_normal((r, r)))
    return u @ np.diag(10.0 ** rng.uniform(-1.0, 1.0, r))


def _item(rng, kind, target):
    (d1, r), d2 = target.x.shape, target.y.shape[0]
    x, y = rng.standard_normal((d1, r)), rng.standard_normal((d2, r))
    if kind == "near":
        # G with condition number up to 1e2, noise from 1e-10 to 1e-1
        g = _gl_element(rng, r)
        noise = 10.0 ** rng.uniform(-10.0, -1.0)
        x = target.x @ g + noise * x
        y = target.y @ np.linalg.inv(g).T + noise * y
    elif kind == "rotated":  # the Procrustes rotation is optimal
        o, _ = np.linalg.qr(rng.standard_normal((r, r)))
        x, y = target.x @ o, target.y @ o
    elif kind == "rank_deficient":
        m = (x, y)[rng.integers(2)]
        m[:, rng.integers(r)] = 0.0
    elif kind == "nonfinite":
        m = (x, y)[rng.integers(2)]
        m[rng.integers(len(m)), rng.integers(r)] = (np.inf, -np.inf,
                                                    np.nan)[rng.integers(3)]
    elif kind == "huge":
        x *= 10.0 ** rng.uniform(100.0, 153.0)
        y *= 10.0 ** rng.uniform(100.0, 153.0)
    return x, y


@st.composite
def align_stacks(draw):
    """(x, y, target, kinds): the stacks, their target and item kinds."""
    r = draw(st.integers(1, 6))
    d1, d2 = draw(st.integers(r, r + 4)), draw(st.integers(r, r + 4))
    short = r > 1 and draw(st.integers(0, 4)) == 0
    if short:
        rows = draw(st.integers(1, r - 1))
        d1, d2 = (rows, d2) if draw(st.booleans()) else (d1, rows)
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    target = FactorPair(rng.standard_normal((d1, r)),
                        rng.standard_normal((d2, r)))
    items = [_item(rng, kind, target) for kind in kinds]
    return (np.stack([x for x, _ in items]), np.stack([y for _, y in items]),
            target, ["short" if short else kind for kind in kinds])


@settings(max_examples=60)
@given(align_stacks())
def test_align_stack_items_are_their_single_calls(case):
    # Invariant 1: an item's Q, O, residual and converged flag do not depend
    # on the rest of its stack, bit for bit.
    x, y, target, _ = case
    stacked = _align_stack(x, y, target)
    for j in range(len(x)):
        single = _align_stack(x[j:j + 1], y[j:j + 1], target)
        for whole, one in zip(stacked, single):
            assert whole[j].tobytes() == one[0].tobytes()


@settings(max_examples=60)
@given(align_stacks())
def test_dist_never_exceeds_procrustes_residual(case):
    # Invariant 2: on every item with a finite residual, dist is at most the
    # Procrustes residual, exactly; degenerate items are nan, unconverged.
    x, y, target, kinds = case
    q, _, res, converged = _align_stack(x, y, target)
    for j, kind in enumerate(kinds):
        if kind in DEGENERATE:
            assert np.isnan(res[j]) and np.isnan(q[j]).all()
            assert not converged[j]
        elif np.isfinite(res[j]):
            with np.errstate(over="ignore"):  # a huge pair's may be inf
                pro = procrustes_align(FactorPair(x[j], y[j]), target)
            assert res[j] <= pro.residual
        else:
            assert not converged[j]


@settings(max_examples=60)
@given(r=st.integers(1, 6), extra=st.tuples(st.integers(0, 4),
                                            st.integers(0, 4)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dist_invariant_under_gl_action(r, extra, seed):
    # Invariant 3: dist(X G, Y G^-T) = dist(X, Y) to 1e-9 relative, for G
    # with condition number <= 1e2, wherever both solves converge.
    rng = np.random.default_rng(seed)
    target = FactorPair(rng.standard_normal((r + extra[0], r)),
                        rng.standard_normal((r + extra[1], r)))
    f = FactorPair(*_item(rng, "near", target))
    g = _gl_element(rng, r)
    moved = FactorPair(f.x @ g, f.y @ np.linalg.inv(g).T)
    a, b = gl_align(f, target), gl_align(moved, target)
    # Forming X G and Y G^-T rounds the pair, which moves dist by up to
    # about eps cond(G) ||F||: the floor below which no alignment can
    # tell the two pairs apart.
    floor = 16 * np.finfo(float).eps * np.linalg.cond(g) * np.sqrt(
        np.sum(f.x * f.x) + np.sum(f.y * f.y))
    if a.converged and b.converged:
        assert abs(a.residual - b.residual) <= 1e-9 * a.residual + floor


@st.composite
def masks(draw, d1, d2):
    """A Bernoulli mask, one with an empty row and/or column, or p = 1."""
    kind = draw(st.sampled_from(("bernoulli", "empty_lines", "full")))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if kind == "full":
        return sample_mask(d1, d2, 1.0, seed)
    mask = sample_mask(d1, d2, draw(st.floats(0.2, 0.9)), seed)
    if kind == "bernoulli":
        return mask
    cells = _indicator(mask)
    row, col = draw(st.sampled_from(((True, False), (False, True),
                                     (True, True))))
    if row:
        cells[draw(st.integers(0, d1 - 1)), :] = False
    if col:
        cells[:, draw(st.integers(0, d2 - 1))] = False
    return ObservationMask.from_cells(d1, d2, mask.p, *np.nonzero(cells))


@st.composite
def problems(draw, tag):
    """(gt, mask, variant): a target up to 12 x 12 with r <= 3, a mask and
    the variant `tag`, a leave-one-out line drawn from all of them."""
    r = draw(st.integers(1, 3))
    d1, d2 = draw(st.integers(r, 12)), draw(st.integers(r, 12))
    # Gaussian frames: gen_ground_truth's +-1 ones are often singular when
    # d = r.
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u, _ = np.linalg.qr(rng.standard_normal((d1, r)))
    v, _ = np.linalg.qr(rng.standard_normal((d2, r)))
    sigma = np.linspace(1.0, 1.0 / draw(st.floats(1.0, 5.0)), r)
    gt = GroundTruth(u_star=u, sigma_star=sigma, v_star=v,
                     m_star=u @ (sigma[:, None] * v.T),
                     kappa=sigma[0] / sigma[-1], mu=incoherence(u, v))
    mask = draw(masks(d1, d2))
    if tag == "regularized":
        return gt, mask, SolverVariant.regularized(1e-2)
    if tag == "leave_one_out":
        sel = draw(st.integers(1, d1 + d2))
        return gt, mask, SolverVariant.leave_one_out(sel)
    return gt, mask, getattr(SolverVariant, tag)()


# Layouts and variants are pytest parameters, so each pair gets its own
# examples. The layout is bound inside the test body: Hypothesis rejects
# function-scoped fixtures such as monkeypatch.
EACH_LAYOUT = pytest.mark.parametrize("layout", sorted(LAYOUT_LIMITS))
EACH_VARIANT = pytest.mark.parametrize(
    "tag", ("vanilla", "regularized", "balancing", "leave_one_out"))


@EACH_LAYOUT
@EACH_VARIANT
@settings(max_examples=25)
@given(data=st.data(), scale=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_problem_layouts_match_dense_oracle(layout, tag, data, scale, seed):
    # Invariant 4: at an arbitrary iterate, the bound problem's relative
    # error, objective and gradient are the dense reference's in both
    # residual layouts.
    gt, mask, variant = data.draw(problems(tag))
    rng = np.random.default_rng(seed)
    f = FactorPair(10.0 ** scale * rng.standard_normal((gt.d1, gt.r)),
                   10.0 ** scale * rng.standard_normal((gt.d2, gt.r)))
    with mock.patch.object(sampling, "DENSE_SIZE_LIMIT",
                           LAYOUT_LIMITS[layout]):
        problem = solvers._Problem(gt, mask, variant, f.x, f.y)
    assert problem.dense == (layout == "dense")
    rel = problem.load()
    value = problem.objective()
    problem.gradient()
    g = FactorPair(problem.gx, problem.gy)
    ref = (np.linalg.norm(f.x @ f.y.T - gt.m_star)
           / np.linalg.norm(gt.m_star))
    assert abs(rel - ref) <= 1e-12 * (1.0 + ref)
    assert abs(value - _dense_objective(f, gt, mask, variant)) <= (
        1e-12 * abs(value))
    ref_g = _dense_gradient(f, gt, mask, variant)
    for got, want in ((g.x, ref_g.x), (g.y, ref_g.y)):
        atol = 1e-12 * (1.0 + np.abs(want).max())
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)


@EACH_LAYOUT
@EACH_VARIANT
@settings(max_examples=15)
@given(data=st.data(), step_size=st.floats(0.05, 1.0),
       iters=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_run_iterates_are_public_steps(layout, tag, data, step_size, iters,
                                       seed):
    # Invariant 5: every stored iterate of run is the public step from the
    # one before, bit for bit, whatever the run's status.
    gt, mask, variant = data.draw(problems(tag))
    rng = np.random.default_rng(seed)
    init = FactorPair(rng.standard_normal((gt.d1, gt.r)),
                      rng.standard_normal((gt.d2, gt.r)))
    cfg = SolverConfig(variant=variant, step=step_size, max_iters=iters,
                       tol=1e-30, store_factors=True)
    with mock.patch.object(sampling, "DENSE_SIZE_LIMIT",
                           LAYOUT_LIMITS[layout]):
        _assert_layout(layout, gt, mask, variant)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "underdetermined")
            res = run(gt, mask, cfg, init)
        assert len(res.factors) == res.iterations + 1
        assert _bits(res.factors[0]) == _bits(init)
        with np.errstate(over="ignore", invalid="ignore"):
            for f, nxt in zip(res.factors, res.factors[1:]):
                expected = step(f, gradient(f, gt, mask, variant), step_size)
                assert _bits(nxt) == _bits(expected)


@st.composite
def cell_lists(draw):
    """(d1, d2, rows, cols): distinct cells in any order, and in some lists
    a repeated cell and/or a cell one past the bounds on any side."""
    d1, d2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    flat = draw(st.lists(st.integers(0, d1 * d2 - 1), unique=True))
    cells = [divmod(f, d2) for f in flat]
    if cells and draw(st.booleans()):
        cells.append(draw(st.sampled_from(cells)))
    if draw(st.booleans()):
        cells.append(draw(st.sampled_from(
            ((-1, 0), (d1, 0), (0, -1), (0, d2)))))
    cells = draw(st.permutations(cells))
    return d1, d2, [i for i, _ in cells], [j for _, j in cells]


@settings(max_examples=100)
@given(case=cell_lists())
def test_mask_constructor_sorts_or_rejects_cells(case):
    # Invariant 6: the constructor is the one place cells are checked and
    # sorted, so no mask's two observed matrices can disagree.
    d1, d2, rows, cols = case
    given_cells = list(zip(rows, cols))
    bad = (len(set(given_cells)) < len(given_cells)
           or any(not (0 <= i < d1 and 0 <= j < d2) for i, j in given_cells))
    try:
        mask = ObservationMask(d1, d2, 0.5, None, rows, cols)
    except ValueError:
        assert bad
        return
    assert not bad
    assert list(zip(mask.rows.tolist(), mask.cols.tolist())) == sorted(
        given_cells)
    assert mask.row_ptr[0] == 0 and mask.row_ptr[-1] == mask.n_cells
    for i in range(d1):
        assert (mask.rows[mask.row_ptr[i]:mask.row_ptr[i + 1]] == i).all()
    values = np.arange(1.0, mask.n_cells + 1)  # one per cell, in cell order
    observed = {}
    for layout, limit in LAYOUT_LIMITS.items():
        with mock.patch.object(sampling, "DENSE_SIZE_LIMIT", limit):
            observed[layout] = sampling._observed_matrix(mask, values)
    assert isinstance(observed["dense"], np.ndarray)
    assert np.array_equal(observed["csr"].toarray(), observed["dense"])
