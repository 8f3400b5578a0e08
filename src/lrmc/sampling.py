"""Bernoulli observation masks and the observation operators built on them.

The mask stores the observed cells as coordinate arrays sorted row-major,
with a row slice index, so operators touch only observed cells (O(|cells|)
instead of O(d1*d2) where it matters). Masks are immutable after
construction.

An observation operator is a weighted cell set: a mask together with the
divisors of its cells, the operator being R -> R[cells] / div. The plain
problem's divisor is the scalar p, giving (1/p) P_Omega; `loo_cells` builds
the leave-one-out one, (1/p) P_{Omega minus line} + P_{line}.

`_observed_matrix` alone builds the matrix of a weighted cell set: dense up
to DENSE_SIZE_LIMIT entries, CSR above, importing scipy.sparse with the first.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .linalg import _aligned_zeros
from .model import _check_int, _check_real, _fields_equal, _must

__all__ = [
    "ObservationMask",
    "LooSelector",
    "sample_mask",
    "project",
    "loo_project",
    "loo_cells",
    "save_mask",
    "load_mask",
]

# sample_mask draws its stream in row blocks of about this many entries.
_DRAW_BLOCK = 1 << 16
# Up to this many entries d1 * d2 an observed matrix is dense (read at call
# time). A vanilla solve's iteration, dense against CSR, at 1 BLAS thread
# and r=5 (medians of 7 runs of 200 iterations): at 300x200 (6e4 entries)
# 110 against 176 us at p=0.1 and 113 against 486 us at p=0.3; at 400x300
# (1.2e5) 272 against 322 and 275 against 788 us; at 500x400 (2e5) 539
# against 452 and 482 against 1265 us. The CSR cost grows with the cells,
# so at p=0.1 the crossover, near 1.2e5 entries before the dense arrays
# were aligned (dense/CSR 0.96 at 400x300, now 0.87), lies between 1.2e5
# and 2e5; at p=0.3 dense was cheaper at all three sizes.
DENSE_SIZE_LIMIT = 1 << 17


def _check_seed(seed):
    """seed as an int Philox key, in [0, 2**64)."""
    seed = _check_int(seed, "seed", low=0)
    if seed >= 2 ** 64:
        raise ValueError(_must("seed", "an integer < 2**64", seed))
    return seed


def _check_coords(coords, name):
    """Cell coordinates as a 1-D int64 array: 1-D integers, or empty."""
    a = np.asarray(coords)
    if a.ndim != 1 or a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{name} must be a 1-D array of integers, got "
                         f"{a.dtype} with shape {a.shape}")
    return a.astype(np.int64, copy=False)


@dataclass(frozen=True)
class ObservationMask:
    """Set of observed (i, j) cells of a d1 x d2 matrix, built only by the
    constructor (so by `dataclasses.replace` and `from_cells` too): it
    checks d1, d2, p and seed, takes the cells as 1-D integer arrays,
    rejects cells out of bounds or repeated, and stores them read-only,
    stably sorted row-major, with row_ptr derived: row_ptr[i]:row_ptr[i+1]
    slices the cells of row i. `==` compares every field.
    """

    d1: int
    d2: int
    p: float
    seed: int | None
    rows: np.ndarray
    cols: np.ndarray
    row_ptr: np.ndarray = field(init=False, repr=False)

    __eq__ = _fields_equal

    def __post_init__(self):
        d1, d2 = (_check_int(d, "dimensions d1, d2")
                  for d in (self.d1, self.d2))
        p = _check_real(self.p, "sampling rate p", "(0, 1]")
        seed = None if self.seed is None else _check_seed(self.seed)
        rows, cols = (_check_coords(a, name) for a, name in
                      ((self.rows, "rows"), (self.cols, "cols")))
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have the same length")
        if rows.size and (rows.min() < 0 or rows.max() >= d1
                          or cols.min() < 0 or cols.max() >= d2):
            raise ValueError("cell coordinates out of bounds")
        flat = rows * d2 + cols
        order = np.argsort(flat, kind="stable")
        if flat.size and np.any(np.diff(flat[order]) == 0):
            raise ValueError("duplicate cells in mask")
        rows, cols = rows[order], cols[order]
        row_ptr = np.searchsorted(rows, np.arange(d1 + 1))
        for a in (rows, cols, row_ptr):
            a.setflags(write=False)
        # frozen: the checked values go past the dataclass's __setattr__
        vars(self).update(d1=d1, d2=d2, p=p, seed=seed, rows=rows,
                          cols=cols, row_ptr=row_ptr)

    @classmethod
    def from_cells(cls, d1, d2, p, rows, cols, seed=None):
        """The constructor, with `seed` last and None by default."""
        return cls(d1=d1, d2=d2, p=p, seed=seed, rows=rows, cols=cols)

    @property
    def n_cells(self):
        return int(self.rows.size)


@dataclass(frozen=True)
class LooSelector:
    """Selects the row or column treated as fully observed, by the stacked
    index l in 1..d1+d2 (rows first, then columns)."""

    l: int

    def __post_init__(self):
        object.__setattr__(self, "l", _check_int(self.l, "selector l"))

    def axis(self, d1):
        return "row" if self.l <= d1 else "col"

    def index(self, d1):
        """Zero-based target index along the selected axis."""
        return self.l - 1 if self.l <= d1 else self.l - d1 - 1

    def validate(self, d1, d2):
        if not 1 <= self.l <= d1 + d2:
            raise ValueError(f"selector l={self.l} outside 1..{d1 + d2}")


def sample_mask(d1, d2, p, seed):
    """Bernoulli(p) mask; each cell included independently.

    Cell (i, j) is decided by draw number i*d2+j of a counter-based Philox
    stream keyed by `seed`, so the mask is reproducible and independent of
    evaluation order. The stream is drawn in row blocks, which continue one
    another, so no d1 x d2 array of draws is held.
    """
    d1, d2 = (_check_int(d, "dimensions d1, d2") for d in (d1, d2))
    p = _check_real(p, "sampling rate p", "(0, 1]")
    seed = _check_seed(seed)
    rng = Generator(Philox(key=np.uint64(seed)))
    step = max(1, _DRAW_BLOCK // d2)
    flat = np.concatenate([
        np.nonzero(rng.random(min(step, d1 - i) * d2) < p)[0] + i * d2
        for i in range(0, d1, step)])
    return ObservationMask(d1, d2, p, seed, flat // d2, flat % d2)


def _check_dims(shape, mask, what="matrix shape"):
    """The one check that a matrix, target or factor pair fits the mask."""
    if shape != (mask.d1, mask.d2):
        raise ValueError(f"mask ({mask.d1}, {mask.d2}) does not fit {what} "
                         f"{shape}")


def _fits_dense(d1, d2):
    """The one rule: a d1 x d2 observed matrix is held dense."""
    return d1 * d2 <= DENSE_SIZE_LIMIT


def _observed_matrix(cells, values):
    """The d1 x d2 matrix holding `values` on the cells, in cell order (one
    value for all, or one per cell), and 0 elsewhere: a dense array when
    it fits dense, a scipy.sparse CSR array otherwise."""
    if _fits_dense(cells.d1, cells.d2):
        m = _aligned_zeros((cells.d1, cells.d2))
        m[cells.rows, cells.cols] = values
        return m
    from scipy.sparse import csr_array  # see the module docstring
    return csr_array((np.full(cells.n_cells, values, dtype=np.float64),
                      cells.cols, cells.row_ptr), shape=(cells.d1, cells.d2))


def project(m, mask):
    """Keep entries at observed cells, zero elsewhere."""
    m = np.asarray(m, dtype=np.float64)
    _check_dims(m.shape, mask)
    out = np.zeros_like(m)
    out[mask.rows, mask.cols] = m[mask.rows, mask.cols]
    return out


def loo_project(m, mask, sel):
    """Apply P_{Omega minus line l} + p * P_{line l}, densely, p = mask.p.

    On every row (column) except the selector's target this is `project`;
    the target line is returned in full, scaled by p. Dividing the result
    by p therefore yields the leave-one-out observation operator, which
    the library applies through `loo_cells`; this is its dense form.
    """
    m = np.asarray(m, dtype=np.float64)
    out = project(m, mask)
    sel.validate(mask.d1, mask.d2)
    t = sel.index(mask.d1)
    if sel.axis(mask.d1) == "row":
        out[t, :] = mask.p * m[t, :]
    else:
        out[:, t] = mask.p * m[:, t]
    return out


def loo_cells(mask, sel):
    """The cells of the leave-one-out problem for selector sel, Omega plus
    the selected line, and their divisors: 1 on the line, p elsewhere."""
    sel.validate(mask.d1, mask.d2)
    t = sel.index(mask.d1)
    on_row = sel.axis(mask.d1) == "row"
    n = mask.d2 if on_row else mask.d1
    full, span = np.full(n, t), np.arange(n)
    line_rows, line_cols = (full, span) if on_row else (span, full)
    off = (mask.rows if on_row else mask.cols) != t
    cells = ObservationMask.from_cells(
        mask.d1, mask.d2, mask.p,
        np.concatenate((mask.rows[off], line_rows)),
        np.concatenate((mask.cols[off], line_cols)))
    on_line = (cells.rows if on_row else cells.cols) == t
    return cells, np.where(on_line, 1.0, mask.p)


def save_mask(mask, path):
    """Coordinate-list text format: header 'd1 d2 p seed', one 'i j' per line."""
    with open(path, "w") as fh:
        seed = "-" if mask.seed is None else mask.seed
        fh.write(f"{mask.d1} {mask.d2} {mask.p!r} {seed}\n")
        for i, j in zip(mask.rows, mask.cols):
            fh.write(f"{i} {j}\n")


def load_mask(path):
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError(f"malformed mask header in {path}")
        d1, d2, p = int(header[0]), int(header[1]), float(header[2])
        seed = None if header[3] == "-" else int(header[3])
        with warnings.catch_warnings():
            # empty masks are legal; loadtxt warns on zero data lines
            warnings.simplefilter("ignore", UserWarning)
            cells = np.loadtxt(fh, dtype=np.int64, ndmin=2)
    if cells.size == 0:
        cells = np.empty((0, 2), dtype=np.int64)
    elif cells.shape[1] != 2:
        raise ValueError(f"mask cell lines in {path} must hold two integers "
                         f"'i j', found {cells.shape[1]}")
    return ObservationMask.from_cells(d1, d2, p, cells[:, 0], cells[:, 1],
                                      seed=seed)
