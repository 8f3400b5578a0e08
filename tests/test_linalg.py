import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrmc.linalg import fix_signs, frobenius_norm, full_svd, spectral_norm

finite_matrices = arrays(
    np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.floats(-100, 100, allow_nan=False))


def test_frobenius_trivial():
    assert frobenius_norm(np.zeros((3, 4))) == 0.0
    assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0


def test_frobenius_matches_sum_oracle():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((8, 6))
    # independent oracle: explicit double loop
    acc = 0.0
    for i in range(8):
        for j in range(6):
            acc += m[i, j] ** 2
    assert frobenius_norm(m) == pytest.approx(np.sqrt(acc), abs=1e-12)


@pytest.mark.parametrize("shape", [(300, 200), (1, 7), (9, 1)])
def test_frobenius_reads_f_ordered_matrix_in_place(shape):
    # The dot runs in memory order: an F-ordered matrix is not copied, and
    # its value is its C-ordered copy's up to the order of the sum.
    m = np.random.default_rng(2).standard_normal(shape)
    f = np.asfortranarray(m)
    tracemalloc.start()
    try:
        value = frobenius_norm(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024  # the view's header, no array data
    expected = frobenius_norm(m)
    assert abs(value - expected) <= 4 * np.spacing(expected)


def test_spectral_trivial():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-10)
    assert spectral_norm(np.diag([2.0, 1.0])) == pytest.approx(2.0, abs=1e-10)
    assert spectral_norm(np.zeros((2, 5))) == 0.0


def test_spectral_matches_svd_oracle():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((10, 7))
    expected = np.linalg.svd(m, compute_uv=False)[0]
    assert spectral_norm(m) == pytest.approx(expected, rel=1e-8)


def test_full_svd_diagonal_and_zero():
    _, s, _ = full_svd(np.diag([3.0, 1.0]))
    assert np.allclose(s, [3.0, 1.0])
    _, s, _ = full_svd(np.zeros((3, 2)))
    assert np.all(s == 0.0)


def test_full_svd_reconstruction():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((12, 9))
    u, s, v = full_svd(m)
    recon = u @ (s[:, None] * v.T)
    assert frobenius_norm(recon - m) < 1e-10 * frobenius_norm(m)
    assert np.all(np.diff(s) <= 0)
    assert np.allclose(u.T @ u, np.eye(9), atol=1e-12)
    assert np.allclose(v.T @ v, np.eye(9), atol=1e-12)


def test_full_svd_sign_convention_and_determinism():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((7, 5))
    u1, s1, v1 = full_svd(m)
    u2, s2, v2 = full_svd(m.copy())
    assert (u1 == u2).all() and (s1 == s2).all() and (v1 == v2).all()
    for j in range(u1.shape[1]):
        i = np.argmax(np.abs(u1[:, j]))
        assert u1[i, j] >= 0


def _loop_sign_rule(u, v):
    # Reference: the per-column loop the sign rule was written as.
    u, v = u.copy(), v.copy()
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return u, v


def test_fix_signs_matches_loop_bitwise():
    rng = np.random.default_rng(6)
    for shape in ((7, 5), (30, 3), (4, 4)):
        u = rng.standard_normal(shape)
        u[0, 0] = -np.max(np.abs(u[:, 0])) - 1.0  # force one flip
        u[:2, -1] = [2.0, -2.0]  # tie: the lower index decides
        u[2:, -1] = 0.5
        v = rng.standard_normal((shape[1] + 2, shape[1]))
        got_u, got_v = fix_signs(u, v)
        ref_u, ref_v = _loop_sign_rule(u, v)
        assert got_u.tobytes() == ref_u.tobytes()
        assert got_v.tobytes() == ref_v.tobytes()


@settings(max_examples=50, deadline=None)
@given(finite_matrices)
def test_norm_inequalities(m):
    spec = spectral_norm(m)
    fro = frobenius_norm(m)
    root = np.sqrt(min(m.shape))
    assert spec <= fro + 1e-9 * (1 + fro)
    assert fro <= root * spec + 1e-9 * (1 + fro)
