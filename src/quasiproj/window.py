"""The projected 5-cube, its acceptance windows, and the grid shifts.

The 32 vertices of the 5-d unit cube project to a 20-faced polytope (a
rhombic icosahedron) in the 3-d orthogonal space and to a regular decagon
in the tiling plane.  A 5-d integer point is a tiling vertex iff its
orthogonal projection falls strictly inside the slice window V_I of the
polytope at height I - c; it is a 3-d lattice point iff its plane
projection falls strictly inside the decagon.  The polytope and the decagon
are fixed figures, built once on import as POLYTOPE and DECAGON; only the
slice windows depend on c.

Every mode reads this module.  The label-box scans live apart, so that a
run compiles only the one it runs: `scan` holds what they share, the row
stencils among it, `locate` every window decision of both (direction
tables, and the exact word where they are unsure), `scan2d` the slice
windows and the 2-d scan, and `lattice3d` the 3-d tip scan.
The two names of the 2-d scan that this module exported before they moved,
and that perfbench reads here, resolve here on first use.
"""

from __future__ import annotations

import importlib
import math
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError
from .geometry import (BASIS, PHI, ConvexWindow, EdgeProbes, ProjectionBasis, edge_distances,
                       make_basis)

# the 32 vertices of the 5-d unit cube, in the fixed order used throughout:
# one point of index 0, then five of index 1, ten of index 2, ten of index 3,
# five of index 4, and the all-ones point of index 5
CUBE_VERTICES = np.array([
    (0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 1, 0, 0),
    (1, 0, 0, 1, 0), (0, 1, 0, 1, 0), (0, 1, 0, 0, 1), (0, 0, 1, 0, 1), (1, 0, 1, 0, 0),
    (1, 1, 0, 0, 0), (0, 0, 0, 1, 1), (0, 1, 1, 0, 0), (1, 0, 0, 0, 1), (0, 0, 1, 1, 0),
    (1, 1, 0, 0, 1), (0, 0, 1, 1, 1), (1, 1, 1, 0, 0), (1, 0, 0, 1, 1), (0, 1, 1, 1, 0),
    (1, 1, 0, 1, 0), (0, 1, 0, 1, 1), (0, 1, 1, 0, 1), (1, 0, 1, 0, 1), (1, 0, 1, 1, 0),
    (1, 1, 0, 1, 1), (0, 1, 1, 1, 1), (1, 1, 1, 0, 1), (1, 0, 1, 1, 1), (1, 1, 1, 1, 0),
    (1, 1, 1, 1, 1),
], dtype=np.int64)
CUBE_VERTICES.setflags(write=False)

#: cube vertices whose 3-d projections are hull vertices of the polytope
HULL_INDICES = tuple(range(0, 11)) + tuple(range(21, 32))
#: cube vertices projecting strictly inside the polytope (and onto the
#: decagon hull in the plane)
INTERIOR_INDICES = tuple(range(11, 21))

#: the 20 rhombic faces of the polytope as cube-vertex loops, CCW seen from
#: outside.  The polytope is the zonohedron of the five w_j, so each face is
#: spanned by one generator pair (w_i, w_j), and each pair spans two
#: opposite faces.  Faces run by lowest vertex height, then by the angle of
#: their centroid.  The loops are written out, not generated, because the
#: OBJ output records each loop from its first vertex, and for a face whose
#: vertices straddle the branch cut of an angle sort no rule fixes that one.
FACE_LOOPS = (
    (0, 5, 9, 4), (0, 1, 10, 5), (2, 6, 1, 0), (2, 0, 3, 7), (8, 3, 0, 4),
    (23, 8, 4, 9), (10, 24, 9, 5), (1, 6, 25, 10), (21, 6, 2, 7), (8, 22, 7, 3),
    (24, 28, 23, 9), (29, 24, 10, 25), (21, 30, 25, 6), (26, 21, 7, 22),
    (22, 8, 23, 27), (31, 27, 23, 28), (24, 29, 31, 28), (30, 31, 29, 25),
    (30, 21, 26, 31), (26, 22, 27, 31),
)


class GridShift(NamedTuple("GridShift", [("gamma", np.ndarray), ("c", float)])):
    """The five real grid offsets gamma_j and their sum c, normalized to [0, 1)."""

    __slots__ = ()

    def __new__(cls, gamma, c):
        g = np.array(gamma, dtype=float)
        if g.shape != (5,):
            raise ValueError(f"gamma must have 5 components, got shape {g.shape}")
        g.setflags(write=False)
        # a plain float, so that messages print 0.5 and not np.float64(0.5)
        c = float(c)
        if not (0.0 <= c < 1.0):
            raise ValueError(f"c must lie in [0, 1), got {c}")
        return super().__new__(cls, g, c)


def normalize_shift(gamma) -> GridShift:
    """Reduce the shift sum into [0, 1) by relabeling the first grid family.

    Subtracting an integer n from gamma_0 relabels k_0 -> k_0 + n and leaves
    the generated pattern unchanged, so only the fractional part of the sum
    matters.  The sums are `math.fsum`s, so c does not depend on the order
    of the components.
    """
    g = np.array(gamma, dtype=float)
    if g.shape != (5,):
        raise ValueError(f"gamma must have 5 components, got shape {g.shape}")
    total = math.fsum(g)
    g[0] -= np.floor(total)
    c = math.fsum(g)
    # guard against float roundup at the top of the interval
    if c >= 1.0:
        g[0] -= 1.0
        c = math.fsum(g)
    return GridShift(gamma=g, c=max(c, 0.0))


def random_shift(c: float, seed: int) -> GridShift:
    """Draw gamma_1..gamma_4 uniformly and fix gamma_0 so the sum is exactly c.

    The draw is `np.random.default_rng(seed).uniform(0.0, 1.0, 4)` bit for
    bit, made by `pcg64` without loading numpy.random.  Raises ValueError
    for a negative seed, as numpy does.
    """
    if not (0.0 <= c < 1.0):
        raise ValueError(f"c must lie in [0, 1), got {c}")
    from .pcg64 import uniforms

    g = np.empty(5)
    g[1:] = uniforms(seed, 4)
    g[0] = c - g[1:].sum()
    return GridShift(gamma=g, c=c)


# ---------------------------------------------------------------------------
# polytope P (3-d window) and decagon Q (2-d window)
# ---------------------------------------------------------------------------

#: tolerance of the window constructions.  The windows are fixed figures, so
#: their construction checks do not follow a run's boundary tolerance eps,
#: which only sets how close to an edge a test point counts as singular.
CONSTRUCTION_TOL = 1e-9


class PolytopeP(NamedTuple):
    """Hull data of the 3-d window: 22 vertices, 40 edges, 20 rhombic faces."""

    projections: np.ndarray        # (32, 3) images of all cube vertices
    hull_cube_indices: np.ndarray  # (22,) cube-vertex index of each hull vertex
    vertices: np.ndarray           # (22, 3)
    edges: np.ndarray              # (40, 2) indices into vertices
    face_normals: np.ndarray       # (20, 3) outward unit normals
    face_offsets: np.ndarray       # (20,)
    face_loops: tuple              # 20 vertex-index loops, CCW seen from outside
    interior_points: np.ndarray    # (10, 3) images of the interior cube vertices


def build_polytope_P(basis: ProjectionBasis | None = None) -> PolytopeP:
    """Project the 5-cube into 3-space and lay the faces of FACE_LOOPS on it.

    Each face normal is the normalised cross product of two loop edges.
    Raises ConsistencyError unless the loops hold 22 vertices, 40 edges and
    20 faces, and every cube vertex lies on or inside every face plane.
    """
    basis = basis or make_basis()
    proj = CUBE_VERTICES.astype(float) @ basis.W

    # a sorted set, not np.unique, which loads numpy.ma on first use
    hull_cube = np.array(sorted({i for loop in FACE_LOOPS for i in loop}), dtype=np.int64)
    if len(hull_cube) != 22:
        raise ConsistencyError(f"expected 22 hull vertices, got {len(hull_cube)}")
    vertices = proj[hull_cube]
    loops = tuple(tuple(int(i) for i in np.searchsorted(hull_cube, loop))
                  for loop in FACE_LOOPS)
    if len(loops) != 20:
        raise ConsistencyError(f"expected 20 faces, got {len(loops)}")

    edge_set = set()
    for loop in loops:
        for a, b in zip(loop, loop[1:] + loop[:1]):
            edge_set.add((min(a, b), max(a, b)))
    if len(edge_set) != 40:
        raise ConsistencyError(f"expected 40 edges, got {len(edge_set)}")

    corners = vertices[np.array(loops)]                  # (20, 4, 3)
    normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 1])
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    offsets = np.einsum("ij,ij->i", normals, corners[:, 0])
    height = proj @ normals.T - offsets                  # (32, 20)
    if height.max() > CONSTRUCTION_TOL:
        ci, fi = np.unravel_index(np.argmax(height), height.shape)
        raise ConsistencyError(
            f"cube vertex {ci} lies {float(height[ci, fi])} outside face {fi}")

    edges = np.array(sorted(edge_set), dtype=np.int64)
    interior = proj[list(INTERIOR_INDICES)]
    for arr in (proj, hull_cube, vertices, edges, normals, offsets, interior):
        arr.setflags(write=False)
    return PolytopeP(projections=proj, hull_cube_indices=hull_cube,
                     vertices=vertices, edges=edges, face_normals=normals,
                     face_offsets=offsets, face_loops=loops,
                     interior_points=interior)


class DecagonQ(NamedTuple):
    """Plane window: regular decagon of circumradius p with 22 interior images."""

    projections: np.ndarray      # (32, 2) images of all cube vertices
    window: ConvexWindow         # the decagon hull: accepts 3-d lattice points
    interior_points: np.ndarray  # (22, 2) the non-hull images
    inner: ConvexWindow          # hull of the radius-1/p images: accepts tips


def _ccw_by_angle(points: np.ndarray) -> np.ndarray:
    ang = np.arctan2(points[:, 1], points[:, 0])
    return points[np.argsort(ang)]


def build_decagon_Q(basis: ProjectionBasis | None = None) -> DecagonQ:
    """Project the 5-cube into the tiling plane.

    The ten interior cube vertices of the polytope map to the decagon hull;
    the 22 remaining images land at radii 0, 1 and 1/p.  The hull of the
    radius-1/p images is the inner decagon whose points are the tips of 3-d
    unit cells.  Raises ConsistencyError unless the 22 lie strictly inside
    the decagon.
    """
    basis = basis or make_basis()
    proj = CUBE_VERTICES.astype(float) @ basis.D
    window = ConvexWindow.of(_ccw_by_angle(proj[list(INTERIOR_INDICES)]))
    interior = proj[[i for i in range(32) if i not in INTERIOR_INDICES]]
    d = edge_distances(EdgeProbes.of([window], 0, np.zeros((1, 1, 2))), interior.T,
                       np.zeros(len(interior), np.intp))
    if np.any(d >= -CONSTRUCTION_TOL):
        raise ConsistencyError(
            f"{int(np.sum(d >= -CONSTRUCTION_TOL))} cube-vertex images are not strictly "
            "inside the decagon of the interior cube vertices")

    radii = np.linalg.norm(interior, axis=1)
    inner_mask = np.abs(radii - 1.0 / PHI) < CONSTRUCTION_TOL
    if int(inner_mask.sum()) != 10:
        raise ConsistencyError(f"expected 10 radius-1/p points, got {int(inner_mask.sum())}")
    inner = ConvexWindow.of(_ccw_by_angle(interior[inner_mask]))
    for arr in (proj, interior):
        arr.setflags(write=False)
    return DecagonQ(projections=proj, window=window, interior_points=interior,
                    inner=inner)


#: the 3-d window and the plane window of BASIS, which every enumerator reads
POLYTOPE = build_polytope_P(BASIS)
DECAGON = build_decagon_Q(BASIS)


#: the names of the 2-d scan this module exported before they moved that
#: perfbench still reads here.  The other moved names, and the tunable
#: SCAN_ROWS, have one home each, so a read or a patch of them here raises
#: instead of doing nothing.
_MOVED = ("build_windows", "enumerate_accepted_2d")


def __getattr__(name):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(".scan2d", __package__), name)
