"""Deterministic serialization: SVG patches, OBJ cells, CSV/JSON reports.

Every writer is a pure function of its inputs; element order is sorted and
floats are printed with 12 significant digits, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError
from .geometry import BASIS, DEFAULT_EPS
from .lattice3d import OVERLAP_SIGNATURES, OverlapCensus
from .tiling2d import FrequencyReport
from .window import (DECAGON, POLYTOPE, GridShift, WindowSet,
                     enumerate_accepted_2d, label_extent, label_index,
                     label_keys, normalize_shift, random_shift, step_rows)


def fmt(x: float) -> str:
    """12-significant-digit float formatting shared by all text outputs."""
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Everything needed to reproduce a run; round-trips losslessly via JSON."""

    mode: str = "tiling2d"
    c: float = 0.5
    gamma: object = "auto"   # "auto" or a list of 5 reals
    seed: int = 0
    radius: int = 20
    tol: float = DEFAULT_EPS
    index: int | None = None
    out: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls(**json.loads(text))


#: how many seeded draws --gamma auto tries before giving up
MAX_SHIFT_DRAWS = 20


def shift_draws(config: RunConfig) -> Iterator[GridShift]:
    """The grid shifts a run may try, in order.

    Explicit gamma yields one shift, normalized as given (its sum wins over
    config.c).  "auto" yields up to MAX_SHIFT_DRAWS draws, each with
    gamma_1..4 uniform from an incremented seed and the sum pinned to
    config.c; the caller takes the next one while a draw is singular.
    """
    if config.gamma != "auto":
        gamma = [float(g) for g in config.gamma]
        if len(gamma) != 5:
            raise ConfigError(f"gamma needs 5 components, got {len(gamma)}")
        yield normalize_shift(gamma)
        return
    if not 0.0 <= config.c < 1.0:
        raise ConfigError(f"c must lie in [0, 1), got {config.c}")
    for attempt in range(MAX_SHIFT_DRAWS):
        yield random_shift(config.c, config.seed + 1009 * attempt)


# ---------------------------------------------------------------------------
# tiling documents and SVG
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TilingDocument:
    """A tiling patch as arrays, ready for rendering."""

    labels: np.ndarray  # (N, 5) int64, in key order
    points: np.ndarray  # (N, 2) tiling vertices
    edges: np.ndarray   # (E, 2) rows (i, j), j the +e_m step of i, sorted by (i, j)


def build_tiling_document(radius: int, shift: GridShift,
                          wset: WindowSet) -> TilingDocument:
    """Window-accepted vertices in the label box plus all edges between them.

    The rows are in label order, so sorting the edges by row pair sorts them
    by their end labels.
    """
    labels, points, keys = enumerate_accepted_2d(radius, shift, wset)
    # row of the +e_m neighbor of every vertex, -1 where it is not accepted
    step = step_rows(labels, keys, radius)
    i, m = np.nonzero(step >= 0)
    j = step[i, m]
    order = np.lexsort((j, i))
    return TilingDocument(labels=labels, points=points,
                          edges=np.column_stack([i[order], j[order]]))


#: stroke classes for the four edge kinds, keyed by the index of the lower end
SVG_STYLES = {
    1: 'stroke="#000" stroke-width="0.03" stroke-dasharray="0.12 0.08"',
    2: 'stroke="#000" stroke-width="0.08"',
    3: 'stroke="#000" stroke-width="0.03"',
    4: 'stroke="#000" stroke-width="0.08" stroke-dasharray="0.12 0.08"',
}


def render_svg(doc: TilingDocument, pad: float = 1.0) -> str:
    """One path element per edge, four stroke classes, deterministic order.

    The y axis is flipped (SVG y grows downward) so the drawing matches the
    mathematical orientation.
    """
    xs, ys = doc.points[:, 0], -doc.points[:, 1]
    if len(xs):
        x0, x1 = xs.min() - pad, xs.max() + pad
        y0, y1 = ys.min() - pad, ys.max() + pad
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
        "degenerate_top": wset.degenerate_top,
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
