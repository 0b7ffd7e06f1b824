"""de Bruijn pentagrid: grid lines, mesh K-vectors, and the dual tiling.

Five families of equidistant lines cut the plane into meshes.  Each mesh
carries the vector of ceiling functions K_j, and mapping a mesh to
sum_j K_j d_j produces a tiling vertex.  The four meshes around a regular
grid intersection map to the corners of one rhombus.  This route is kept
fully independent of the window-acceptance route so the two can be
cross-checked against each other.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SingularityError
from .geometry import BASIS, DEFAULT_EPS
from .scan import label_extent, label_keys
from .window import GridShift


def grid_values_2d(points: np.ndarray, shift: GridShift) -> np.ndarray:
    """d_j . r + gamma_j for each point and family; shape (N, 5)."""
    return np.atleast_2d(points) @ BASIS.D.T + shift.gamma


def _ceil_checked(vals: np.ndarray, eps: float, what: str) -> np.ndarray:
    dist = np.abs(vals - np.round(vals))
    if np.any(dist <= eps):
        i, j = np.argwhere(dist <= eps)[0]
        raise SingularityError(
            f"{what} lies within eps of grid line (family {int(j)}, "
            f"label {int(round(vals[i, j]))})")
    return np.ceil(vals).astype(np.int64)


def k_vector_2d(r, shift: GridShift, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Mesh label of a plane point: K_j = ceil(d_j . r + gamma_j)."""
    vals = grid_values_2d(np.asarray(r, dtype=float), shift)
    return _ceil_checked(vals, eps, f"point {tuple(np.asarray(r, float).tolist())}")[0]


# ---------------------------------------------------------------------------
# intersections and the dual map
# ---------------------------------------------------------------------------

def _pair_intersections(s: int, t: int, box, shift: GridShift):
    """Intersections of families s and t inside the box, ordered by (k_s, k_t).

    Returns (points (n, 2), families (n, 2), line_labels (n, 2)).
    """
    xmin, xmax, ymin, ymax = box
    corners = np.array([[xmin, ymin], [xmin, ymax], [xmax, ymin], [xmax, ymax]])
    ds, dt = BASIS.D[s], BASIS.D[t]

    def label_range(d, gamma):
        vals = corners @ d + gamma
        return np.arange(np.ceil(vals.min()), np.floor(vals.max()) + 1, dtype=np.int64)

    det = ds[0] * dt[1] - ds[1] * dt[0]
    KS, KT = np.meshgrid(label_range(ds, shift.gamma[s]),
                         label_range(dt, shift.gamma[t]), indexing="ij")
    cs = KS - shift.gamma[s]
    ct = KT - shift.gamma[t]
    x = (cs * dt[1] - ct * ds[1]) / det
    y = (ct * ds[0] - cs * dt[0]) / det
    inside = (x >= xmin) & (x <= xmax) & (y >= ymin) & (y <= ymax)
    line_labels = np.column_stack([KS[inside], KT[inside]])
    families = np.tile(np.array([s, t], dtype=np.int64), (len(line_labels), 1))
    return np.column_stack([x[inside], y[inside]]), families, line_labels


def enumerate_intersections(box, shift: GridShift, eps: float = DEFAULT_EPS
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pairwise grid-line intersection in an axis-aligned box, each once.

    box is (xmin, xmax, ymin, ymax) in pentagrid parameter space.  Returns
    (points (n, 2), families (n, 2), line_labels (n, 2)), ordered by family
    pair (s, t) with s < t, then by (k_s, k_t).  Raises SingularityError if
    a third grid line passes within eps of any intersection (a singular
    pentagrid).
    """
    pairs = [_pair_intersections(s, t, box, shift)
             for s in range(5) for t in range(s + 1, 5)]
    points, families, line_labels = (np.concatenate(part) for part in zip(*pairs))
    vals = grid_values_2d(points, shift)
    dist = np.abs(vals - np.round(vals))
    dist[np.arange(len(points))[:, None], families] = np.inf
    if np.any(dist <= eps):
        i, u = np.argwhere(dist <= eps)[0]
        (s, t), (ks, kt) = families[i].tolist(), line_labels[i].tolist()
        raise SingularityError(
            f"singular pentagrid: line (family {int(u)}, label {int(round(vals[i, u]))}) "
            f"passes through the intersection of (family {s}, label {ks}) "
            f"and (family {t}, label {kt}) at r={tuple(points[i].tolist())}")
    return points, families, line_labels


class PentagridTiling(NamedTuple):
    """Dual tiling of a pentagrid patch: vertex table plus rhombus index quads."""

    labels: np.ndarray     # (M, 5) int64, lexicographically sorted
    vertices: np.ndarray   # (M, 2) plane images
    rhombi: np.ndarray     # (N, 4) rows of indices into labels, corner order
    families: np.ndarray   # (N, 2) grid families of the generating intersection
    line_labels: np.ndarray  # (N, 2)


def tiling_from_pentagrid(box, shift: GridShift,
                          eps: float = DEFAULT_EPS) -> PentagridTiling:
    """The dual tiling of every grid intersection in the box, vertices deduplicated.

    The four meshes around the crossing of line k_s (family s) and line k_t
    (family t) keep K_j = ceil(d_j . r + gamma_j) of the crossing point r in
    every other family, and take k_s or k_s + 1 and k_t or k_t + 1 in the two
    crossing families.  Their labels are the corners of a unit rhombus with
    edges along d_s and d_t, walked as (k_s, k_t), (k_s + 1, k_t),
    (k_s + 1, k_t + 1), (k_s, k_t + 1): consecutive corners share a grid line.
    """
    points, families, line_labels = enumerate_intersections(box, shift, eps)
    rows = np.arange(len(points))[:, None]
    base = np.ceil(grid_values_2d(points, shift)).astype(np.int64)
    base[rows, families] = line_labels
    unit = np.zeros((len(points), 2, 5), np.int64)
    unit[rows, [0, 1], families] = 1
    steps = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=np.int64)
    flat = (base[:, None, :] + steps @ unit).reshape(-1, 5)

    # label_keys only encodes labels here (its key order is lexicographic
    # label order); no window acceptance test enters this route
    keys = label_keys(flat, label_extent(flat).max(initial=0))
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    labels = flat[first]
    return PentagridTiling(labels=labels, vertices=labels.astype(float) @ BASIS.D,
                           rhombi=inverse.reshape(-1, 4).astype(np.int64),
                           families=families, line_labels=line_labels)
