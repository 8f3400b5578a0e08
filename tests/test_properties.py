"""Property tests for the invariants the stacked alignment relies on.

Each draws (K, d1, r) and (K, d2, r) stacks, K <= 4 and r <= 6, whose
items mix near-target pairs (X* G, Y* G^-T) plus noise, exact rotations
(X* O, Y* O), where the GL and Procrustes residuals tie up to rounding,
unrelated pairs, rank-deficient and non-finite pairs, and pairs scaled near
overflow (the last reach the damping, the step cap and an overflowed
damping bound). Some stacks have fewer rows than r on one side, so every
item is rank-deficient. The Hypothesis profile in conftest.py makes the
examples the same on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lrmc.metrics import _align_stack, procrustes_align
from lrmc.model import FactorPair

KINDS = ("near", "rotated", "unrelated", "rank_deficient", "nonfinite", "huge")
DEGENERATE = ("rank_deficient", "nonfinite", "short")


def _item(rng, kind, target):
    (d1, r), d2 = target.x.shape, target.y.shape[0]
    x, y = rng.standard_normal((d1, r)), rng.standard_normal((d2, r))
    if kind == "near":
        # G with condition number up to 1e2, noise from 1e-10 to 1e-1
        u, _ = np.linalg.qr(rng.standard_normal((r, r)))
        g = u @ np.diag(10.0 ** rng.uniform(-1.0, 1.0, r))
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
