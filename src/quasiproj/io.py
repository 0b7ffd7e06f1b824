"""Deterministic serialization: tiling documents, SVG, OBJ cells, CSV/JSON reports.

Every writer is a pure function of its inputs; element order is sorted and
floats are printed with 12 significant digits, so identical runs produce
byte-identical files.  A tiling document's edges are found among its
vertices' keys, not at their test points.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConfigError
from .geometry import BASIS
from .scan import _key_weights, label_extent, label_index, label_keys
from .window import DECAGON, POLYTOPE, GridShift

if TYPE_CHECKING:  # each mode loads only the modules it runs
    from .lattice3d import OverlapCensus
    from .scan2d import WindowSet
    from .tiling2d import FrequencyReport


def fmt(x: float) -> str:
    """12-significant-digit float formatting shared by all text outputs."""
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# tiling documents and SVG
# ---------------------------------------------------------------------------

class TilingDocument(NamedTuple):
    """A tiling patch as arrays, ready for rendering."""

    labels: np.ndarray  # (N, 5) int64, in key order
    points: np.ndarray  # (N, 2) tiling vertices
    edges: np.ndarray   # (E, 2) rows (i, j), j the +e_m step of i, sorted by (i, j)


def build_tiling_document(radius: int, shift: GridShift,
                          wset: WindowSet) -> TilingDocument:
    """Window-accepted vertices in the label box plus all edges between them.

    The vertices are those of `enumerate_accepted_2d`, which applies
    MAX_TILING_RADIUS and `check_eps`.  An edge joins two accepted labels k
    and k + e_m.  The key of k + e_m is that of k plus
    _key_weights(radius)[m], unless k_m = radius takes the step out of the
    box, so one search of the sorted keys per step finds every edge and the
    row of its upper end.
    Raises ConfigError by `check_eps` or MAX_TILING_RADIUS.
    """
    from .scan2d import enumerate_accepted_2d

    labels, points, keys = enumerate_accepted_2d(radius, shift, wset)
    weights = _key_weights(radius)
    found = np.empty((len(keys), 5), dtype=bool)
    rows = np.empty((len(keys), 5), dtype=np.int32)
    # the steps e_4 .. e_0, whose key steps increase, so that the upper ends
    # of each vertex come in key order and the edges sorted by row pair
    for col, m in enumerate(range(4, -1, -1)):
        upper = keys + weights[m]
        j = np.searchsorted(keys, upper)
        np.minimum(j, len(keys) - 1, out=j)
        found[:, col] = (keys[j] == upper) & (labels[:, m] < radius)
        rows[:, col] = j
    i, col = np.nonzero(found)
    return TilingDocument(labels=labels, points=points,
                          edges=np.column_stack([i, rows[i, col]]))


#: stroke classes for the four edge kinds, keyed by the index of the lower end
SVG_STYLES = {
    1: 'stroke="#000" stroke-width="0.03" stroke-dasharray="0.12 0.08"',
    2: 'stroke="#000" stroke-width="0.08"',
    3: 'stroke="#000" stroke-width="0.03"',
    4: 'stroke="#000" stroke-width="0.08" stroke-dasharray="0.12 0.08"',
}


def render_svg(doc: TilingDocument) -> str:
    """One path element per edge, four stroke classes, deterministic order.

    The y axis is flipped (SVG y grows downward) so the drawing matches the
    mathematical orientation.
    """
    xs, ys = doc.points[:, 0], -doc.points[:, 1]
    if len(xs):
        x0, x1 = xs.min() - 1.0, xs.max() + 1.0
        y0, y1 = ys.min() - 1.0, ys.max() + 1.0
    else:
        x0, y0, x1, y1 = -1.0, -1.0, 1.0, 1.0

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<!-- tiling patch; y axis flipped so the plane's orientation matches the screen -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{fmt(x0)} {fmt(y0)} {fmt(x1 - x0)} {fmt(y1 - y0)}">',
        '<g fill="none">',
    ]
    at = [f"{fmt(x)} {fmt(y)}" for x, y in zip(xs.tolist(), ys.tolist())]
    index = label_index(doc.labels)[doc.edges[:, 0]]
    lines += [f'<path {SVG_STYLES[s]} d="M {at[i]} L {at[j]}"/>'
              for (i, j), s in zip(doc.edges.tolist(), index.tolist())]
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV / JSON reports
# ---------------------------------------------------------------------------

def frequency_csv(report: FrequencyReport) -> str:
    """Vertex-type frequency table; footer comment echoes the analytic total."""
    lines = ["I,n_pos,n_neg,analytic,empirical,count,abs_err"]
    for r in report.rows:
        lines.append(",".join([
            str(r.index), str(r.n_pos), str(r.n_neg), fmt(r.analytic),
            fmt(r.empirical), str(r.count), fmt(abs(r.analytic - r.empirical)),
        ]))
    lines.append(f"# n_vertices = {report.n_vertices}")
    lines.append(f"# sum_analytic = {fmt(report.analytic_total)}")
    return "\n".join(lines) + "\n"


def overlap_csv(census: OverlapCensus) -> str:
    from .lattice3d import OVERLAP_SIGNATURES

    lines = ["class,neighbors,K,J,count,frequency,analytic_ratio"]
    for (nb, kk, jj), label in OVERLAP_SIGNATURES.items():
        lines.append(",".join([
            label, str(nb), str(kk), str(jj), str(census.counts[label]),
            fmt(census.frequencies[label]), fmt(census.analytic[label]),
        ]))
    lines.append(f"# n_tips = {census.n_tips}")
    lines.append(f"# c = {fmt(census.c)}")
    return "\n".join(lines) + "\n"


def window_document(wset: WindowSet) -> dict:
    """JSON-able description of the acceptance geometry, polygons CCW."""
    return {
        "c": wset.c,
        "eps": wset.eps,
        "polytope": {
            "vertices": POLYTOPE.vertices.tolist(),
            "edges": POLYTOPE.edges.tolist(),
            "faces": [
                {"normal": POLYTOPE.face_normals[i].tolist(),
                 "offset": float(POLYTOPE.face_offsets[i]),
                 "loop": list(POLYTOPE.face_loops[i])}
                for i in range(len(POLYTOPE.face_loops))
            ],
            "interior_points": POLYTOPE.interior_points.tolist(),
        },
        "decagon": {
            "vertices": DECAGON.window.polygon.tolist(),
            "interior_points": DECAGON.interior_points.tolist(),
            "inner_decagon": DECAGON.inner.polygon.tolist(),
        },
        "slices": {
            str(i): {"height": i - wset.c, "polygon": w.polygon.tolist()}
            for i, w in sorted(wset.slices.items())
        },
        "degenerate_top": 5 not in wset.slices,
    }


def write_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# OBJ export
# ---------------------------------------------------------------------------

def cells_obj(cells) -> str:
    """Wavefront OBJ of unit cells, one object per cell, vertices deduplicated.

    `cells` is what build_cells returns.  Each vertex is a lattice point, so
    its label key identifies it; ids follow first appearance, and a vertex's
    coordinates are those of the cell it first appears in.
    """
    hull, _ = cells
    tips = hull[:, 0]
    keys = label_keys(hull, int(label_extent(hull).max(initial=0)))
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(1, len(first) + 1)
    ids = rank[inverse].reshape(keys.shape)
    # vertex id n + 1 first appears in cell_of[n], as its hull vertex hull_of[n]
    cell_of, hull_of = np.divmod(np.sort(first), keys.shape[1])
    coords = POLYTOPE.vertices[hull_of] + (tips.astype(float) @ BASIS.W)[cell_of]
    v_lines = [f"v {fmt(x)} {fmt(y)} {fmt(z)}" for x, y, z in coords.tolist()]
    # the cell's face lines, to be filled with its vertex ids at the face corners
    faces = "\n".join("f" + " %d" * len(loop) for loop in POLYTOPE.face_loops)
    face_corners = np.concatenate(POLYTOPE.face_loops)

    lines = ["# quasiperiodic unit cells (one object per cell)"]
    seen = 0
    for tip, local, last in zip(tips.tolist(), ids, ids.max(axis=1).tolist()):
        lines.append("o cell_" + "_".join(map(str, tip)))
        # the ids past those of the cells before are this cell's new vertices
        lines += v_lines[seen:last]
        seen = max(seen, last)
        lines.append(faces % tuple(local[face_corners].tolist()))
    return "\n".join(lines) + "\n"


def write_text(path: str, content: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path!r}: {exc}") from exc
