import numpy as np
import pytest
from numpy.random import Generator, Philox

from lrmc.sampling import (_DRAW_BLOCK, LooSelector, ObservationMask,
                           load_mask, loo_cells, loo_project, project,
                           sample_mask, save_mask)


def _indicator(mask):
    """Boolean d1 x d2 indicator of the mask's cells."""
    out = np.zeros((mask.d1, mask.d2), dtype=bool)
    out[mask.rows, mask.cols] = True
    return out


def test_sample_mask_full():
    mask = sample_mask(6, 4, 1.0, seed=0)
    assert mask.n_cells == 24
    assert _indicator(mask).all()


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


@pytest.mark.parametrize("d1, d2, p", [
    (3, _DRAW_BLOCK + 5, 0.3),                   # a row longer than a block
    (2 * (_DRAW_BLOCK // 300) + 7, 300, 0.2),    # a short last block
    (1, 1, 0.5), (1, 1, 1.0),
    (_DRAW_BLOCK // 100 + 1, 100, 1.0)])
@pytest.mark.parametrize("seed", [0, 11])
def test_sample_mask_equals_one_shot_draw(d1, d2, p, seed):
    # The mask is drawn in row blocks; the cells are those of the whole
    # stream drawn at once, bit for bit.
    mask = sample_mask(d1, d2, p, seed)
    u = Generator(Philox(key=np.uint64(seed))).random(d1 * d2)
    flat = np.flatnonzero(u < p)
    assert np.array_equal(mask.rows, flat // d2)
    assert np.array_equal(mask.cols, flat % d2)


@pytest.mark.parametrize("d1, d2", [(0, 3), (3, 0), (-1, 2)])
def test_sample_mask_rejects_empty_dims(d1, d2):
    with pytest.raises(ValueError, match="dimensions"):
        sample_mask(d1, d2, 0.5, seed=0)


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


@pytest.mark.parametrize("d1,d2", [(-1, 3), (3, -1), (0, 3), (3, 0)])
def test_from_cells_rejects_bad_dims(d1, d2):
    with pytest.raises(ValueError, match="dimensions"):
        ObservationMask.from_cells(d1, d2, 0.5, [], [])


def test_load_mask_rejects_bad_dims(tmp_path):
    path = tmp_path / "mask.txt"
    path.write_text("-1 3 0.5 -\n")
    with pytest.raises(ValueError, match="dimensions"):
        load_mask(path)


@pytest.mark.parametrize("cells", ["0 1 2\n1 0 2\n", "0\n1\n", "0 1 2\n"],
                         ids=["three_columns", "one_column", "one_line"])
def test_load_mask_rejects_cell_lines_not_two_integers(tmp_path, cells):
    path = tmp_path / "mask.txt"
    path.write_text("3 3 0.5 -\n" + cells)
    with pytest.raises(ValueError, match="two integers"):
        load_mask(path)


def test_load_mask_rejects_bad_rate(tmp_path):
    for p in ("0", "1.7"):
        path = tmp_path / f"mask_{p}.txt"
        path.write_text(f"3 2 {p} -\n0 1\n")
        with pytest.raises(ValueError, match="sampling rate"):
            load_mask(path)


def test_row_ptr_slices_rows():
    mask = sample_mask(15, 11, 0.35, seed=3)
    dense = _indicator(mask)
    for i in range(15):
        lo, hi = mask.row_ptr[i], mask.row_ptr[i + 1]
        assert (mask.rows[lo:hi] == i).all()
        assert (mask.cols[lo:hi] == np.nonzero(dense[i])[0]).all()


def test_project_matches_dense_indicator():
    mask = sample_mask(12, 9, 0.5, seed=1)
    m = np.random.default_rng(0).standard_normal((12, 9))
    assert (project(m, mask) == m * _indicator(mask)).all()


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


def _mask_with_empty_lines():
    """A 10 x 8 mask, p=0.3, whose row 3 and column 5 have no observed cell."""
    dense = _indicator(sample_mask(10, 8, 0.3, seed=4))
    dense[3, :] = False
    dense[:, 5] = False
    return ObservationMask.from_cells(10, 8, 0.3, *np.nonzero(dense))


LOO_CELL_CASES = {
    # (mask, selector l); p=0.3 is not a power of two, so (p*m)/p and m
    # may differ in the last ulp
    "row": (lambda: sample_mask(10, 8, 0.3, seed=4), 2),
    "col": (lambda: sample_mask(10, 8, 0.3, seed=4), 13),
    "empty_row": (_mask_with_empty_lines, 4),
    "empty_col": (_mask_with_empty_lines, 16),
    "full": (lambda: sample_mask(10, 8, 1.0, seed=5), 7),
}


@pytest.mark.parametrize("case", sorted(LOO_CELL_CASES))
def test_loo_cells_match_loo_project(case):
    make_mask, l = LOO_CELL_CASES[case]
    mask, sel = make_mask(), LooSelector(l)
    m = np.random.default_rng(6).standard_normal((10, 8))
    cells, div = loo_cells(mask, sel)
    scattered = np.zeros((10, 8))
    scattered[cells.rows, cells.cols] = m[cells.rows, cells.cols] / div
    dense = loo_project(m, mask, sel, mask.p) / mask.p
    assert (_indicator(cells) == (dense != 0)).all()
    np.testing.assert_array_max_ulp(scattered, dense, maxulp=1)
    on_row = sel.axis(10) == "row"
    line = (cells.rows if on_row else cells.cols) == sel.index(10)
    assert line.sum() == (8 if on_row else 10)
    assert (div[line] == 1.0).all() and (div[~line] == mask.p).all()


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
