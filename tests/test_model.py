import numpy as np
import pytest

from lrmc.experiments import gen_ground_truth
from lrmc.model import _CHECK_BLOCK, FactorPair, GroundTruth

# Rows of the check's blocks: 500 rows of 300 make two full blocks and a
# short third one.
D1, D2 = 500, 300
assert _CHECK_BLOCK // D2 * 2 < D1 < _CHECK_BLOCK // D2 * 3


def _with_m_star(gt, m):
    return GroundTruth(u_star=gt.u_star, sigma_star=gt.sigma_star,
                       v_star=gt.v_star, m_star=m, kappa=gt.kappa, mu=gt.mu)


def _layouts(m):
    """m as C-ordered, F-ordered and non-contiguous arrays."""
    strided = np.zeros((m.shape[0], 2 * m.shape[1]))
    strided[:, ::2] = m
    return {"C": np.ascontiguousarray(m), "F": np.asfortranarray(m),
            "strided": strided[:, ::2]}


def _dense_rejects(gt, m):
    """The check's decision, from the whole d1 x d2 reconstruction."""
    recon = gt.u_star @ (gt.sigma_star[:, None] * gt.v_star.T)
    return np.linalg.norm(recon - m) > 1e-12 * np.linalg.norm(m)


@pytest.fixture(scope="module")
def gt():
    return gen_ground_truth(D1, D2, 3, 2.0, seed=12)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_ground_truth_accepts_every_layout(gt, layout):
    m = _layouts(gt.m_star)[layout]
    assert not _dense_rejects(gt, m)
    assert _with_m_star(gt, m).m_star is m


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("row", [0, D1 // 2, D1 - 1])
@pytest.mark.parametrize("rel, rejected", [(1e-9, True), (1e-14, False)])
def test_ground_truth_check_decides_as_dense_formula(gt, layout, row, rel,
                                                     rejected):
    # One entry, the largest of its row, moved by rel of itself: 1e-9 is
    # above the 1e-12 ||M*||_F tolerance, 1e-14 below it.
    m = gt.m_star.copy()
    col = np.argmax(np.abs(m[row]))
    m[row, col] *= 1 + rel
    m = _layouts(m)[layout]
    assert _dense_rejects(gt, m) == rejected
    if rejected:
        with pytest.raises(ValueError, match="factorization"):
            _with_m_star(gt, m)
    else:
        _with_m_star(gt, m)


def test_ground_truth_rejects_wrong_shape(gt):
    for m in (gt.m_star[:-1], gt.m_star[:, :1], gt.m_star.T):
        with pytest.raises(ValueError, match="factorization"):
            _with_m_star(gt, m)


def test_factor_pairs_and_targets_compare_equal_by_their_fields(gt):
    pair = gt.optimal_pair()
    assert (pair == gt.optimal_pair()) is True
    assert (pair != gt.optimal_pair()) is False
    assert (pair == FactorPair(pair.x, -pair.y)) is False
    assert (pair == FactorPair(pair.x[:, :2], pair.y[:, :2])) is False
    assert (gt == _with_m_star(gt, gt.m_star.copy())) is True
    assert (gt == _with_m_star(gt, np.asfortranarray(gt.m_star))) is True
    other = GroundTruth(u_star=gt.u_star, sigma_star=gt.sigma_star,
                        v_star=gt.v_star, m_star=gt.m_star, kappa=gt.kappa,
                        mu=gt.mu + 1.0)
    assert (gt == other) is False and (gt != other) is True
    assert (gt == pair) is False
