import numpy as np
import pytest

from lrmc.sampling import (LooSelector, ObservationMask, load_mask,
                           loo_project, project, sample_mask, save_mask)


def test_sample_mask_full():
    mask = sample_mask(6, 4, 1.0, seed=0)
    assert mask.n_cells == 24
    assert mask.dense().all()


def test_sample_mask_rejects_bad_rate():
    with pytest.raises(ValueError):
        sample_mask(4, 4, 0.0, seed=0)
    with pytest.raises(ValueError):
        sample_mask(4, 4, 1.5, seed=0)


def test_sample_mask_count_concentrates():
    d1, d2, p = 200, 150, 0.3
    mask = sample_mask(d1, d2, p, seed=7)
    n = d1 * d2
    sigma = np.sqrt(n * p * (1 - p))
    assert abs(mask.n_cells - n * p) < 5 * sigma


def test_sample_mask_deterministic():
    a = sample_mask(30, 20, 0.4, seed=42)
    b = sample_mask(30, 20, 0.4, seed=42)
    assert (a.rows == b.rows).all() and (a.cols == b.cols).all()
    c = sample_mask(30, 20, 0.4, seed=43)
    assert not ((a.rows.size == c.rows.size)
                and (a.rows == c.rows).all() and (a.cols == c.cols).all())


def test_from_cells_validation():
    with pytest.raises(ValueError):
        ObservationMask.from_cells(3, 3, 0.5, [0, 0], [1, 1])  # duplicate
    with pytest.raises(ValueError):
        ObservationMask.from_cells(3, 3, 0.5, [3], [0])  # out of bounds
    with pytest.raises(ValueError):
        ObservationMask.from_cells(3, 3, 0.5, [0], [0, 1])  # length mismatch


@pytest.mark.parametrize("p", [0.0, -0.2, 1.7, float("nan")])
def test_from_cells_rejects_bad_rate(p):
    with pytest.raises(ValueError, match="sampling rate"):
        ObservationMask.from_cells(3, 3, p, [0], [1])


def test_load_mask_rejects_bad_rate(tmp_path):
    for p in ("0", "1.7"):
        path = tmp_path / f"mask_{p}.txt"
        path.write_text(f"3 2 {p} -\n0 1\n")
        with pytest.raises(ValueError, match="sampling rate"):
            load_mask(path)


def test_row_and_col_access_match_dense():
    mask = sample_mask(15, 11, 0.35, seed=3)
    dense = mask.dense()
    for i in range(15):
        assert (np.sort(mask.row_cells(i)) == np.nonzero(dense[i])[0]).all()
    for j in range(11):
        assert (np.sort(mask.col_cells(j)) == np.nonzero(dense[:, j])[0]).all()


def test_project_matches_dense_indicator():
    mask = sample_mask(12, 9, 0.5, seed=1)
    m = np.random.default_rng(0).standard_normal((12, 9))
    assert (project(m, mask) == m * mask.dense()).all()


def test_project_idempotent_self_adjoint():
    rng = np.random.default_rng(5)
    mask = sample_mask(10, 8, 0.4, seed=9)
    for _ in range(100):
        a = rng.standard_normal((10, 8))
        b = rng.standard_normal((10, 8))
        pa = project(a, mask)
        assert (project(pa, mask) == pa).all()
        # <P a, b> == <a, P b>
        assert np.sum(pa * b) == pytest.approx(np.sum(a * project(b, mask)),
                                               rel=1e-12, abs=1e-12)
        assert np.linalg.norm(pa) <= np.linalg.norm(a) + 1e-12


def test_project_shape_mismatch():
    mask = sample_mask(4, 4, 0.5, seed=0)
    with pytest.raises(ValueError):
        project(np.zeros((4, 5)), mask)


def test_loo_selector_boundaries():
    d1, d2 = 5, 3
    assert LooSelector(1).axis(d1) == "row"
    assert LooSelector(1).index(d1) == 0
    assert LooSelector(5).axis(d1) == "row"
    assert LooSelector(5).index(d1) == 4
    assert LooSelector(6).axis(d1) == "col"
    assert LooSelector(6).index(d1) == 0
    assert LooSelector(8).index(d1) == 2
    for bad in (0, 9):
        with pytest.raises(ValueError):
            LooSelector(bad).validate(d1, d2)


@pytest.mark.parametrize("l", [1, 4, 7, 10])
def test_loo_project_matches_manual(l):
    rng = np.random.default_rng(3)
    d1, d2, p = 6, 4, 0.5
    mask = sample_mask(d1, d2, p, seed=11)
    m = rng.standard_normal((d1, d2))
    sel = LooSelector(l)
    expected = project(m, mask)
    if sel.axis(d1) == "row":
        expected[sel.index(d1), :] = p * m[sel.index(d1), :]
    else:
        expected[:, sel.index(d1)] = p * m[:, sel.index(d1)]
    assert (loo_project(m, mask, sel, p) == expected).all()


def test_loo_project_full_mask_is_identity_up_to_p():
    m = np.random.default_rng(1).standard_normal((5, 4))
    mask = sample_mask(5, 4, 1.0, seed=0)
    out = loo_project(m, mask, LooSelector(2), 1.0)
    assert (out == m).all()


def test_mask_roundtrip(tmp_path):
    mask = sample_mask(9, 7, 0.4, seed=21)
    path = tmp_path / "mask.txt"
    save_mask(mask, path)
    back = load_mask(path)
    assert (back.d1, back.d2, back.p, back.seed) == (9, 7, 0.4, 21)
    assert (back.rows == mask.rows).all() and (back.cols == mask.cols).all()


def test_empty_mask_roundtrip(tmp_path):
    mask = ObservationMask.from_cells(3, 2, 0.5, [], [])
    path = tmp_path / "empty.txt"
    save_mask(mask, path)
    back = load_mask(path)
    assert back.n_cells == 0 and (back.d1, back.d2) == (3, 2)


def test_load_mask_malformed_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2 0.5\n0 0\n")
    with pytest.raises(ValueError):
        load_mask(path)
