"""Deterministic serialization: SVG patches, OBJ cells, CSV/JSON reports.

Every writer is a pure function of its inputs; element order is sorted and
floats are printed with 12 significant digits, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, SingularityError
from .geometry import DEFAULT_EPS, ProjectionBasis, make_basis
from .lattice3d import OVERLAP_SIGNATURES, CellInstance, OverlapCensus
from .tiling2d import FrequencyReport
from .window import (DecagonQ, GridShift, PolytopeP, WindowSet,
                     enumerate_accepted_2d, normalize_shift, random_shift,
                     step_rows)


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
    format: str = "auto"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls(**json.loads(text))


def resolve_shift(config: RunConfig, probe=None, max_retries: int = 20) -> GridShift:
    """Produce the grid shift for a run.

    Explicit gamma is normalized as given (its sum wins over config.c), and
    the optional probe runs on it once; a SingularityError it raises is the
    caller's.  "auto" draws gamma_1..4 uniformly from the seed and pins the
    sum to config.c; while the probe raises SingularityError for a draw, the
    draw is retried with an incremented seed, a bounded number of times.
    """
    if config.gamma != "auto":
        gamma = [float(g) for g in config.gamma]
        if len(gamma) != 5:
            raise ConfigError(f"gamma needs 5 components, got {len(gamma)}")
        shift = normalize_shift(gamma)
        if probe is not None:
            probe(shift)
        return shift
    if not 0.0 <= config.c < 1.0:
        raise ConfigError(f"c must lie in [0, 1), got {config.c}")
    last_error = None
    for attempt in range(max_retries):
        shift = random_shift(config.c, config.seed + 1009 * attempt)
        if probe is None:
            return shift
        try:
            probe(shift)
            return shift
        except SingularityError as exc:
            last_error = exc
    raise SingularityError(
        f"no regular shift found after {max_retries} draws: every draw was singular "
        f"at tol={config.tol}; last draw: {last_error}")


# ---------------------------------------------------------------------------
# tiling documents and SVG
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TilingDocument:
    """Vertex and edge lists of a tiling patch, ready for rendering."""

    vertices: tuple   # ((label, index, (x, y)), ...) label-sorted
    edges: tuple      # ((from_row, to_row, style), ...) positive direction


def build_tiling_document(radius: int, shift: GridShift, wset: WindowSet,
                          basis: ProjectionBasis | None = None) -> TilingDocument:
    """Window-accepted vertices in the label box plus all edges between them."""
    basis = basis or make_basis()
    labels, xy, keys = enumerate_accepted_2d(radius, shift, wset, basis)
    index = labels.sum(axis=1).tolist()

    # row of the +e_m neighbor of every vertex, -1 where it is not accepted
    step = step_rows(labels, keys, radius)
    rows, _ = np.nonzero(step >= 0)
    styles = {1: "1-2", 2: "2-3", 3: "3-4", 4: "4-5"}
    edges = tuple((i, j, styles[index[i]])
                  for i, j in zip(rows.tolist(), step[step >= 0].tolist()))

    vertices = tuple((tuple(lab), i, tuple(p))
                     for lab, i, p in zip(labels.tolist(), index, xy.tolist()))
    return TilingDocument(vertices=vertices, edges=edges)


#: stroke classes for the four edge kinds, keyed by endpoint index pair
SVG_STYLES = {
    "1-2": 'stroke="#000" stroke-width="0.03" stroke-dasharray="0.12 0.08"',
    "4-5": 'stroke="#000" stroke-width="0.08" stroke-dasharray="0.12 0.08"',
    "2-3": 'stroke="#000" stroke-width="0.08"',
    "3-4": 'stroke="#000" stroke-width="0.03"',
}


def render_svg(doc: TilingDocument, pad: float = 1.0) -> str:
    """One path element per edge, four stroke classes, deterministic order.

    The y axis is flipped (SVG y grows downward) so the drawing matches the
    mathematical orientation.
    """
    if doc.vertices:
        xs = [v[2][0] for v in doc.vertices]
        ys = [-v[2][1] for v in doc.vertices]
        x0, x1 = min(xs) - pad, max(xs) + pad
        y0, y1 = min(ys) - pad, max(ys) + pad
    else:
        x0, y0, x1, y1 = -1.0, -1.0, 1.0, 1.0

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<!-- tiling patch; y axis flipped so the plane's orientation matches the screen -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{fmt(x0)} {fmt(y0)} {fmt(x1 - x0)} {fmt(y1 - y0)}">',
        '<g fill="none">',
    ]
    def edge_key(e):
        return (doc.vertices[e[0]][0], doc.vertices[e[1]][0])
    for e in sorted(doc.edges, key=edge_key):
        (ax, ay) = doc.vertices[e[0]][2]
        (bx, by) = doc.vertices[e[1]][2]
        lines.append(f'<path {SVG_STYLES[e[2]]} '
                     f'd="M {fmt(ax)} {fmt(-ay)} L {fmt(bx)} {fmt(-by)}"/>')
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


def window_document(P: PolytopeP, Q: DecagonQ, wset: WindowSet) -> dict:
    """JSON-able description of the acceptance geometry, polygons CCW."""
    return {
        "c": wset.c,
        "eps": wset.eps,
        "polytope": {
            "vertices": P.vertices.tolist(),
            "edges": P.edges.tolist(),
            "faces": [
                {"normal": P.face_normals[i].tolist(),
                 "offset": float(P.face_offsets[i]),
                 "loop": list(P.face_loops[i])}
                for i in range(len(P.face_loops))
            ],
            "interior_points": P.interior_points.tolist(),
        },
        "decagon": {
            "vertices": Q.vertices.tolist(),
            "interior_points": Q.interior_points.tolist(),
            "inner_decagon": Q.inner_decagon.tolist(),
        },
        "slices": {
            str(i): {"height": w.height, "polygon": w.polygon.tolist()}
            for i, w in sorted(wset.slices.items())
        },
        "degenerate_top": wset.degenerate_top,
    }


def write_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# OBJ export
# ---------------------------------------------------------------------------

def cells_obj(cells: list[CellInstance], P: PolytopeP) -> str:
    """Wavefront OBJ of unit cells, one object per cell, vertices deduplicated."""
    lines = ["# quasiperiodic unit cells (one object per cell)"]
    vid: dict[tuple, int] = {}
    for cell in cells:
        name = "cell_" + "_".join(str(int(x)) for x in cell.tip_label)
        lines.append(f"o {name}")
        local = []
        for v in P.vertices + cell.tip_point:
            key = tuple(round(float(x), 9) for x in v)
            if key not in vid:
                vid[key] = len(vid) + 1
                lines.append(f"v {fmt(v[0])} {fmt(v[1])} {fmt(v[2])}")
            local.append(vid[key])
        for loop in P.face_loops:
            lines.append("f " + " ".join(str(local[i]) for i in loop))
    return "\n".join(lines) + "\n"


def write_text(path: str, content: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path!r}: {exc}") from exc
