"""de Bruijn pentagrid: grid lines, mesh K-vectors, and the dual tiling.

Five families of equidistant lines (or planes, in 3-d) cut the plane into
meshes.  Each mesh carries the vector of ceiling functions K_j, and mapping
a mesh to sum_j K_j d_j produces a tiling vertex.  The four meshes around a
regular grid intersection map to the corners of one rhombus.  This route is
kept fully independent of the window-acceptance route so the two can be
cross-checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularityError
from .geometry import DEFAULT_EPS, ProjectionBasis, make_basis
from .window import GridShift

#: probe displacement used to land in the four meshes around an intersection;
#: much larger than eps, much smaller than the mesh scale
PROBE_DELTA = 1e-4


@dataclass(frozen=True)
class Intersection:
    r: np.ndarray          # (2,) intersection point
    families: tuple        # (s, t) with s < t
    line_labels: tuple     # (k_s, k_t)


def grid_values_2d(points: np.ndarray, shift: GridShift,
                   basis: ProjectionBasis) -> np.ndarray:
    """d_j . r + gamma_j for each point and family; shape (N, 5)."""
    return np.atleast_2d(points) @ basis.D.T + shift.gamma


def grid_values_3d(points: np.ndarray, shift: GridShift,
                   basis: ProjectionBasis) -> np.ndarray:
    """w_j . R + gamma_j for each point and family; shape (N, 5)."""
    return np.atleast_2d(points) @ basis.W.T + shift.gamma


def _ceil_checked(vals: np.ndarray, eps: float, what: str) -> np.ndarray:
    dist = np.abs(vals - np.round(vals))
    if np.any(dist <= eps):
        i, j = np.argwhere(dist <= eps)[0]
        raise SingularityError(
            f"{what} lies within eps of grid line (family {int(j)}, "
            f"label {int(round(vals[i, j]))})")
    return np.ceil(vals).astype(np.int64)


def k_vector_2d(r, shift: GridShift, basis: ProjectionBasis | None = None,
                eps: float = DEFAULT_EPS) -> np.ndarray:
    """Mesh label of a plane point: K_j = ceil(d_j . r + gamma_j)."""
    basis = basis or make_basis()
    vals = grid_values_2d(np.asarray(r, dtype=float), shift, basis)
    return _ceil_checked(vals, eps, f"point {tuple(np.asarray(r, float).tolist())}")[0]


def k_vector_3d(R, shift: GridShift, basis: ProjectionBasis | None = None,
                eps: float = DEFAULT_EPS) -> np.ndarray:
    """Mesh label of a space point: K_j = ceil(w_j . R + gamma_j)."""
    basis = basis or make_basis()
    vals = grid_values_3d(np.asarray(R, dtype=float), shift, basis)
    return _ceil_checked(vals, eps, f"point {tuple(np.asarray(R, float).tolist())}")[0]


def mesh_locator(labels: np.ndarray, shift: GridShift,
                 basis: ProjectionBasis) -> np.ndarray:
    """Approximate r-space location of each label's mesh: (2/5) D^T (k - gamma).

    Lies within (2/5) p of every point of the actual mesh, which itself has
    diameter below 1.8; useful for trimming region boundaries.
    """
    return 0.4 * ((np.atleast_2d(labels) - shift.gamma) @ basis.D)


# ---------------------------------------------------------------------------
# intersections and the dual map
# ---------------------------------------------------------------------------

def _pair_intersections(s: int, t: int, box, shift: GridShift,
                        basis: ProjectionBasis):
    """All intersections of families s and t inside the box, vectorized."""
    xmin, xmax, ymin, ymax = box
    corners = np.array([[xmin, ymin], [xmin, ymax], [xmax, ymin], [xmax, ymax]])
    ds, dt = basis.D[s], basis.D[t]

    def label_range(d, gamma):
        vals = corners @ d + gamma
        return np.arange(np.ceil(vals.min()), np.floor(vals.max()) + 1, dtype=np.int64)

    ks = label_range(ds, shift.gamma[s])
    kt = label_range(dt, shift.gamma[t])
    if len(ks) == 0 or len(kt) == 0:
        return (np.empty((0, 2)), np.empty((0,), np.int64), np.empty((0,), np.int64))

    det = ds[0] * dt[1] - ds[1] * dt[0]
    KS, KT = np.meshgrid(ks, kt, indexing="ij")
    cs = KS - shift.gamma[s]
    ct = KT - shift.gamma[t]
    x = (cs * dt[1] - ct * ds[1]) / det
    y = (ct * ds[0] - cs * dt[0]) / det
    inside = (x >= xmin) & (x <= xmax) & (y >= ymin) & (y <= ymax)
    return (np.column_stack([x[inside], y[inside]]),
            KS[inside].ravel(), KT[inside].ravel())


def enumerate_intersections(box, shift: GridShift,
                            basis: ProjectionBasis | None = None,
                            eps: float = DEFAULT_EPS) -> list[Intersection]:
    """Every pairwise grid-line intersection in an axis-aligned box, each once.

    box is (xmin, xmax, ymin, ymax) in pentagrid parameter space.  Raises
    SingularityError if a third grid line passes within eps of any
    intersection (a singular pentagrid).
    """
    basis = basis or make_basis()
    out: list[Intersection] = []
    for s in range(5):
        for t in range(s + 1, 5):
            pts, ks, kt = _pair_intersections(s, t, box, shift, basis)
            if len(pts) == 0:
                continue
            others = [u for u in range(5) if u not in (s, t)]
            vals = grid_values_2d(pts, shift, basis)[:, others]
            dist = np.abs(vals - np.round(vals))
            if np.any(dist <= eps):
                i = int(np.argwhere(dist <= eps)[0, 0])
                u = others[int(np.argwhere(dist <= eps)[0, 1])]
                raise SingularityError(
                    f"singular pentagrid: line (family {u}, "
                    f"label {int(round(vals[i][int(np.argwhere(dist <= eps)[0, 1])]))}) "
                    f"passes through the intersection of (family {s}, label {int(ks[i])}) "
                    f"and (family {t}, label {int(kt[i])}) at r={tuple(pts[i].tolist())}")
            order = np.lexsort((kt, ks))
            for i in order:
                out.append(Intersection(r=pts[i], families=(s, t),
                                        line_labels=(int(ks[i]), int(kt[i]))))
    return out


#: probe sign pattern walking CCW-style around an intersection; consecutive
#: probes differ in exactly one sign, so consecutive meshes share a grid line
_PROBE_SIGNS = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)], dtype=float)


@dataclass(frozen=True)
class PentagridTiling:
    """Dual tiling of a pentagrid patch: vertex table plus rhombus index quads."""

    labels: np.ndarray     # (M, 5) int64, lexicographically sorted
    vertices: np.ndarray   # (M, 2) plane images
    rhombi: np.ndarray     # (N, 4) rows of indices into labels, loop order
    families: np.ndarray   # (N, 2) grid families of the generating intersection
    line_labels: np.ndarray  # (N, 2)


def tiling_from_pentagrid(box, shift: GridShift,
                          basis: ProjectionBasis | None = None,
                          eps: float = DEFAULT_EPS,
                          delta: float = PROBE_DELTA) -> PentagridTiling:
    """The dual tiling of every grid intersection in the box, vertices deduplicated.

    Each intersection of families s and t is probed in its four adjacent
    meshes; their labels, which differ by one unit in k_s and k_t only, are
    the corners of a unit rhombus with edges along d_s and d_t.
    """
    basis = basis or make_basis()
    inters = enumerate_intersections(box, shift, basis, eps)
    n = len(inters)
    if n == 0:
        return PentagridTiling(labels=np.empty((0, 5), np.int64),
                               vertices=np.empty((0, 2)),
                               rhombi=np.empty((0, 4), np.int64),
                               families=np.empty((0, 2), np.int64),
                               line_labels=np.empty((0, 2), np.int64))

    pts = np.vstack([i.r for i in inters])
    fams = np.array([i.families for i in inters], dtype=np.int64)
    labs = np.array([i.line_labels for i in inters], dtype=np.int64)

    # adaptive probe displacement, vectorized over all intersections
    vals = grid_values_2d(pts, shift, basis)
    dist = np.abs(vals - np.round(vals))
    dist[np.arange(n)[:, None], fams] = np.inf
    third = dist.min(axis=1)
    if np.any(third <= 10 * eps):
        i = int(np.argmin(third))
        raise SingularityError(
            f"near-singular intersection of families {tuple(fams[i].tolist())} "
            f"at r={tuple(pts[i].tolist())}")
    d_eff = np.minimum(delta, 0.45 * third)

    ds = basis.D[fams[:, 0]]
    dt = basis.D[fams[:, 1]]
    probes = (pts[:, None, :]
              + d_eff[:, None, None] * (_PROBE_SIGNS[None, :, :1] * ds[:, None, :]
                                        + _PROBE_SIGNS[None, :, 1:] * dt[:, None, :]))
    all_vals = grid_values_2d(probes.reshape(-1, 2), shift, basis)
    all_labels = _ceil_checked(all_vals, eps, "probe point").reshape(n, 4, 5)

    spread = all_labels.max(axis=1) - all_labels.min(axis=1)
    expected = np.zeros((n, 5), np.int64)
    expected[np.arange(n)[:, None], fams] = 1
    bad = np.any(spread != expected, axis=1)
    if np.any(bad):
        i = int(np.argwhere(bad)[0])
        raise SingularityError(
            f"probes around intersection {tuple(fams[i].tolist())}/{tuple(labs[i].tolist())} "
            "straddle a third grid family")

    flat = all_labels.reshape(-1, 5)
    uniq, inverse = np.unique(flat, axis=0, return_inverse=True)
    rhombi = inverse.reshape(n, 4).astype(np.int64)
    return PentagridTiling(labels=uniq, vertices=uniq.astype(float) @ basis.D,
                           rhombi=rhombi, families=fams, line_labels=labs)
