"""Bernoulli observation masks and the observation operators built on them.

The mask stores the observed cells as coordinate arrays sorted row-major,
with a row slice index, so operators touch only observed cells (O(|cells|)
instead of O(d1*d2) where it matters). Masks are immutable after
construction.

An observation operator is a weighted cell set: a mask together with the
divisors of its cells, the operator being R -> R[cells] / div. The plain
problem's divisor is the scalar p, giving (1/p) P_Omega; `loo_cells` builds
the leave-one-out one, (1/p) P_{Omega minus line} + P_{line}.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

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


@dataclass(frozen=True)
class ObservationMask:
    """Set of observed (i, j) cells of a d1 x d2 matrix.

    rows/cols are sorted in row-major order, and row_ptr[i]:row_ptr[i+1]
    slices the cells of row i.
    """

    d1: int
    d2: int
    p: float
    seed: int | None
    rows: np.ndarray
    cols: np.ndarray
    row_ptr: np.ndarray = field(repr=False)

    @classmethod
    def from_cells(cls, d1, d2, p, rows, cols, seed=None):
        _check_rate(p)
        _check_shape(d1, d2)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have the same length")
        if rows.size and (rows.min() < 0 or rows.max() >= d1
                          or cols.min() < 0 or cols.max() >= d2):
            raise ValueError("cell coordinates out of bounds")
        flat = rows * d2 + cols
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        if flat.size and np.any(np.diff(flat) == 0):
            raise ValueError("duplicate cells in mask")
        rows, cols = rows[order], cols[order]
        row_ptr = np.searchsorted(rows, np.arange(d1 + 1))
        for a in (rows, cols, row_ptr):
            a.setflags(write=False)
        return cls(d1=int(d1), d2=int(d2), p=float(p), seed=seed,
                   rows=rows, cols=cols, row_ptr=row_ptr)

    @property
    def n_cells(self):
        return int(self.rows.size)


@dataclass(frozen=True)
class LooSelector:
    """Selects the row or column treated as fully observed, by the stacked
    index l in 1..d1+d2 (rows first, then columns)."""

    l: int

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
    _check_rate(p)
    _check_shape(d1, d2)
    rng = Generator(Philox(key=np.uint64(seed)))
    step = max(1, _DRAW_BLOCK // d2)
    flat = np.concatenate([
        np.nonzero(rng.random(min(step, d1 - i) * d2) < p)[0] + i * d2
        for i in range(0, d1, step)])
    return ObservationMask.from_cells(d1, d2, p, flat // d2, flat % d2,
                                      seed=int(seed))


def _check_rate(p):
    if not 0.0 < p <= 1.0:
        raise ValueError(f"sampling rate p={p} outside (0, 1]")


def _check_shape(d1, d2):
    if d1 < 1 or d2 < 1:
        raise ValueError(f"dimensions ({d1}, {d2}) must be >= 1")


def _check_dims(m, mask):
    if m.shape != (mask.d1, mask.d2):
        raise ValueError(f"matrix shape {m.shape} does not match mask "
                         f"({mask.d1}, {mask.d2})")


def project(m, mask):
    """Keep entries at observed cells, zero elsewhere."""
    m = np.asarray(m, dtype=np.float64)
    _check_dims(m, mask)
    out = np.zeros_like(m)
    out[mask.rows, mask.cols] = m[mask.rows, mask.cols]
    return out


def loo_project(m, mask, sel, p):
    """Apply P_{Omega minus line l} + p * P_{line l}, densely.

    On every row (column) except the selector's target this is `project`;
    the target line is returned in full, scaled by p. Dividing the result
    by p therefore yields the leave-one-out observation operator, which
    the library applies through `loo_cells`; this is its dense form.
    """
    m = np.asarray(m, dtype=np.float64)
    _check_dims(m, mask)
    sel.validate(mask.d1, mask.d2)
    out = project(m, mask)
    t = sel.index(mask.d1)
    if sel.axis(mask.d1) == "row":
        out[t, :] = p * m[t, :]
    else:
        out[:, t] = p * m[:, t]
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
