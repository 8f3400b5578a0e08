"""Minimal self-contained SVG rendering of the experiment CSV files.

Hand-rolled rather than delegated to a plotting library so the output is
deterministic text, diffable in tests.
"""

import csv
import math

__all__ = ["SchemaError", "plot_csv"]

WIDTH, HEIGHT = 640, 440
MARGIN = 60
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
           "#e377c2", "#7f7f7f")


class SchemaError(Exception):
    """CSV does not match the expected experiment schema."""


def plot_csv(csv_path, kind, out_path, contour_csv=None):
    """Render a convergence-lines or phase-heatmap SVG from a CSV file."""
    if kind == "lines":
        svg = _lines_svg(csv_path)
    elif kind == "heatmap":
        svg = _heatmap_svg(csv_path, contour_csv)
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    with open(out_path, "w") as fh:
        fh.write(svg)


def _read_rows(csv_path, required):
    with open(csv_path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(required) <= set(
                reader.fieldnames):
            raise SchemaError(
                f"{csv_path}: expected columns {required}, "
                f"found {reader.fieldnames}")
        rows = list(reader)
    if not rows:
        raise SchemaError(f"{csv_path}: no data rows")
    return rows


def _svg_header(title):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
            f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>\n')


def _lines_svg(csv_path):
    rows = _read_rows(csv_path, ["algorithm", "lambda", "k", "rel_err"])
    # label -> one list of points per run; a run starts wherever k does
    # not increase, since the CSV has no trial column.
    series, last_k = {}, {}
    for row in rows:
        label = row["algorithm"]
        if row["lambda"]:
            label += f" (lam={float(row['lambda']):g})"
        k, rel = int(row["k"]), float(row["rel_err"])
        runs = series.setdefault(label, [])
        if not runs or k <= last_k[label]:
            runs.append([])
        last_k[label] = k
        if math.isfinite(rel):  # a diverged run's line ends before inf/nan
            runs[-1].append((k, max(rel, 1e-300)))
    pts = [pt for runs in series.values() for run in runs for pt in run]
    if not pts:
        raise SchemaError(f"{csv_path}: no finite rel_err")
    logs = [math.log10(v) for _, v in pts]
    kmax = max(k for k, _ in pts)
    lo, hi = min(logs), max(max(logs), min(logs) + 1e-9)
    x0, x1 = MARGIN, WIDTH - 20
    y0, y1 = HEIGHT - MARGIN, 40

    def sx(k):
        return x0 + (x1 - x0) * (k / max(kmax, 1))

    def sy(v):
        return y0 + (y1 - y0) * ((math.log10(v) - lo) / (hi - lo))

    parts = [_svg_header("relative error vs iteration (log scale)")]
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
                 'stroke="black"/>\n'
                 f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
                 'stroke="black"/>\n')
    for i, (label, runs) in enumerate(sorted(series.items())):
        color = PALETTE[i % len(PALETTE)]
        for run in filter(None, runs):
            coords = " ".join(f"{sx(k):.2f},{sy(v):.2f}" for k, v in run)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>\n')
        ly = 50 + 16 * i
        parts.append(f'<line x1="{x1 - 150}" y1="{ly}" x2="{x1 - 130}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>\n'
                     f'<text x="{x1 - 125}" y="{ly + 4}" '
                     f'font-family="sans-serif" font-size="11">{label}'
                     '</text>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def _heatmap_svg(csv_path, contour_csv=None):
    rows = _read_rows(csv_path, ["p", "r", "trials", "successes", "rate"])
    p_vals = sorted({float(r["p"]) for r in rows})
    r_vals = sorted({int(r["r"]) for r in rows})
    rate = {(float(r["p"]), int(r["r"])): float(r["rate"]) for r in rows}
    x0, x1 = MARGIN, WIDTH - 20
    y0, y1 = HEIGHT - MARGIN, 40
    cw = (x1 - x0) / len(p_vals)
    ch = (y0 - y1) / len(r_vals)

    parts = [_svg_header("empirical success rate over (p, r)")]
    for pi, p in enumerate(p_vals):
        for ri, r in enumerate(r_vals):
            v = rate.get((p, r), 0.0)
            shade = int(round(255 * v))
            color = f"rgb({shade},{shade},{shade})"
            x = x0 + pi * cw
            y = y0 - (ri + 1) * ch
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw:.2f}" '
                         f'height="{ch:.2f}" fill="{color}"/>\n')
    if contour_csv is not None:
        crows = _read_rows(contour_csv, ["r", "p_cross", "clipped"])
        pts = []
        pmin, pmax = p_vals[0], p_vals[-1]
        for row in crows:
            if not row["p_cross"]:
                continue
            pc = min(max(float(row["p_cross"]), pmin), pmax)
            ri = r_vals.index(int(row["r"]))
            x = (x0 + cw / 2
                 + (pc - pmin) / max(pmax - pmin, 1e-12) * (x1 - x0 - cw))
            y = y0 - (ri + 0.5) * ch
            pts.append(f"{x:.2f},{y:.2f}")
        if pts:
            parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                         'stroke="red" stroke-width="2"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)
