"""The projected 5-cube, its acceptance windows, and the acceptance tests.

The 32 vertices of the 5-d unit cube project to a 20-faced polytope (a
rhombic icosahedron) in the 3-d orthogonal space and to a regular decagon
in the tiling plane.  A 5-d integer point is a tiling vertex iff its
orthogonal projection falls strictly inside the slice window V_I of the
polytope at height I - c; it is a 3-d lattice point iff its plane
projection falls strictly inside the decagon.  The polytope and the decagon
are fixed figures, built once on import as POLYTOPE and DECAGON; only the
slice windows depend on c.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, ConsistencyError, DegenerateWindowError,
                     EmptyWindowError, SingularityError)
from .geometry import BASIS, DEFAULT_EPS, PHI, ConvexWindow, ProjectionBasis, make_basis

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


@dataclass(frozen=True)
class GridShift:
    """The five real grid offsets gamma_j and their sum c, normalized to [0, 1)."""

    gamma: np.ndarray
    c: float

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.shape != (5,):
            raise ValueError(f"gamma must have 5 components, got shape {g.shape}")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)
        # a plain float, so that messages print 0.5 and not np.float64(0.5)
        object.__setattr__(self, "c", float(self.c))
        if not (0.0 <= self.c < 1.0):
            raise ValueError(f"c must lie in [0, 1), got {self.c}")


def normalize_shift(gamma) -> GridShift:
    """Reduce the shift sum into [0, 1) by relabeling the first grid family.

    Subtracting an integer n from gamma_0 relabels k_0 -> k_0 + n and leaves
    the generated pattern unchanged, so only the fractional part of the sum
    matters.
    """
    g = np.array(gamma, dtype=float)
    if g.shape != (5,):
        raise ValueError(f"gamma must have 5 components, got shape {g.shape}")
    total = g.sum()
    g[0] -= np.floor(total)
    c = g.sum()
    # guard against float roundup at the top of the interval
    if c >= 1.0:
        g[0] -= 1.0
        c = g.sum()
    return GridShift(gamma=g, c=max(c, 0.0))


def random_shift(c: float, seed: int) -> GridShift:
    """Draw gamma_1..gamma_4 uniformly and fix gamma_0 so the sum is exactly c."""
    if not (0.0 <= c < 1.0):
        raise ValueError(f"c must lie in [0, 1), got {c}")
    rng = np.random.default_rng(seed)
    g = np.empty(5)
    g[1:] = rng.uniform(0.0, 1.0, 4)
    g[0] = c - g[1:].sum()
    return GridShift(gamma=g, c=c)


# ---------------------------------------------------------------------------
# polytope P (3-d window) and decagon Q (2-d window)
# ---------------------------------------------------------------------------

#: tolerance of the window constructions.  The windows are fixed figures, so
#: their construction checks do not follow a run's boundary tolerance eps,
#: which only sets how close to an edge a test point counts as singular.
CONSTRUCTION_TOL = 1e-9


@dataclass(frozen=True)
class PolytopeP:
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
    if 22 - 40 + 20 != 2:  # Euler check, here for the reader
        raise ConsistencyError("Euler characteristic violated")

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


@dataclass(frozen=True)
class DecagonQ:
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
    inside = window.classify(interior, CONSTRUCTION_TOL)
    if np.any(inside != 1):
        raise ConsistencyError(
            f"{int(np.sum(inside != 1))} cube-vertex images are not strictly inside "
            "the decagon of the interior cube vertices")

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


# ---------------------------------------------------------------------------
# slice windows V_I
# ---------------------------------------------------------------------------

def slice_window(P: PolytopeP, index: int, c: float) -> ConvexWindow:
    """Clip the polytope faces against the plane z = index - c: the window V_index.

    Collects face/plane intersection segments, deduplicates endpoints within
    CONSTRUCTION_TOL and orders them by angle.  The result is a pentagon
    near the tips and a decagon through the middle of the polytope.
    """
    if not 1 <= index <= 5:
        raise ValueError(f"index must be in [1, 5], got {index}")
    if not 0.0 <= c < 1.0:
        raise ValueError(f"c must lie in [0, 1), got {c}")
    h = index - c
    eps = CONSTRUCTION_TOL
    if h <= -eps or h >= 5.0 + eps:
        raise EmptyWindowError(f"slice height {h} outside the polytope span [0, 5]")
    if abs(h) <= eps or abs(h - 5.0) <= eps:
        raise DegenerateWindowError(
            f"slice at height {h} degenerates to a tip (index {index}, c = {c})")

    pts: list[np.ndarray] = []
    for loop in P.face_loops:
        zs = P.vertices[list(loop), 2]
        m = len(loop)
        for i in range(m):
            a, b = loop[i], loop[(i + 1) % m]
            za, zb = zs[i], zs[(i + 1) % m]
            if abs(za - h) <= eps:
                pts.append(P.vertices[a, :2])
            if (za - h) * (zb - h) < 0:
                t = (h - za) / (zb - za)
                pts.append((1 - t) * P.vertices[a, :2] + t * P.vertices[b, :2])
    if not pts:
        raise EmptyWindowError(f"no face crosses height {h}")

    arr = np.array(pts)
    # eps-dedup, then angular order around the centroid
    uniq: list[np.ndarray] = []
    for p in arr:
        if not any(np.max(np.abs(p - q)) <= eps for q in uniq):
            uniq.append(p)
    poly = np.array(uniq)
    cen = poly.mean(axis=0)
    ang = np.arctan2(poly[:, 1] - cen[1], poly[:, 0] - cen[0])
    poly = poly[np.argsort(ang)]
    if len(poly) not in (5, 10):
        raise ConsistencyError(
            f"slice window at height {h} has {len(poly)} vertices, expected 5 or 10")
    return ConvexWindow.of(poly)


@dataclass(frozen=True)
class WindowSet:
    """The five index windows for one value of c (V_5 is absent when c = 0)."""

    c: float
    eps: float
    slices: dict  # index -> ConvexWindow
    degenerate_top: bool


def build_windows(P: PolytopeP, c: float, eps: float = DEFAULT_EPS) -> WindowSet:
    """The slice windows at c, with eps as the boundary tolerance of acceptance.

    When c < eps (or below CONSTRUCTION_TOL) the top slice is a tip, and the
    index-5 window is taken to be the point 0.
    """
    degenerate_top = c < max(eps, CONSTRUCTION_TOL)
    top = 4 if degenerate_top else 5
    slices = {index: slice_window(P, index, c) for index in range(1, top + 1)}
    return WindowSet(c=c, eps=eps, slices=slices, degenerate_top=degenerate_top)


# ---------------------------------------------------------------------------
# acceptance tests
# ---------------------------------------------------------------------------

def d_test_points(labels: np.ndarray, shift: GridShift) -> np.ndarray:
    """Plane test points sum_j (k_j - gamma_j) d_j for 3-d acceptance."""
    return (np.asarray(labels, dtype=float) - shift.gamma) @ BASIS.D


def accept_3d_bulk(labels: np.ndarray, shift: GridShift,
                   eps: float = DEFAULT_EPS) -> np.ndarray:
    """Vectorized 3-d acceptance against the decagon window."""
    labels = np.atleast_2d(np.asarray(labels, dtype=np.int64))
    return DECAGON.window.classify(d_test_points(labels, shift), eps)


# ---------------------------------------------------------------------------
# label-box enumeration by scan conversion
#
# Fix all but two label coordinates (u, v).  The test point is then affine in
# them, t0 + u a + v b, and one-to-one, so the labels a window accepts are the
# integer points of a convex polygon in the (u, v) plane.  Each enumerator
# scans that polygon, widened by eps plus a float slack so the whole singular
# band |d| <= eps is inside it, and tests every point it finds against the
# window.  Candidates are then accepted labels, rejects within the slack of
# the window, and singular labels, which raise.
#   2-d:  fix (k0, k1, I) and scan (k2, k3); k4 = I - k0 - k1 - k2 - k3.
#   3-d:  the labels k + n (1,1,1,1,1) of a column share one test point, so
#         the scan runs over column representatives a = k - k4 (1,1,1,1,1):
#         fix (a0, a1) and scan (a2, a3).
# ---------------------------------------------------------------------------

#: how far past eps a scan reaches, far above the float error of its bounds
_SCAN_SLACK = 1e-6

#: the c = 0 index-5 window is the point 0, given as a square of zero size:
#: widened by eps and the slack, it holds the singular disk |t| <= eps
_POINT_WINDOW = ConvexWindow(np.zeros((1, 2)),
                             np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                             np.zeros(4))


def _expand(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, value) for every integer value in [lo[row], hi[row]], in row order."""
    counts = np.maximum(hi - lo + 1, 0)
    row = np.repeat(np.arange(len(lo)), counts)
    start = np.cumsum(counts) - counts
    return row, lo[row] + (np.arange(len(row)) - start[row])


def _integer_span(lo: np.ndarray, hi: np.ndarray, box_lo, box_hi):
    """Integer bounds of the real intervals [lo, hi] within [box_lo, box_hi]."""
    # np.minimum of np.maximum, which is np.clip without its Python wrapper
    lo = np.ceil(np.minimum(np.maximum(lo, box_lo), box_hi + 1)).astype(np.int64)
    hi = np.floor(np.minimum(np.maximum(hi, box_lo - 1), box_hi)).astype(np.int64)
    return lo, hi


class _LineScan(NamedTuple):
    """Scan conversion of a convex window, widened by `reach`, in label
    coordinates (u, v), where (u, v) moves a test point by u a + v b.

    What depends only on the window and the steps is fixed once, by `of`;
    each call scans the rows of one t0.
    """

    a: np.ndarray
    inv_u: np.ndarray    # u = inv_u . (t - t0)
    u_lo: float          # the widened window's extent in u
    u_hi: float
    normals: np.ndarray  # edges bounding v from above, from below, then parallel to b
    room: np.ndarray     # offsets + reach, as a column
    slope: np.ndarray    # normals . b, as a column
    up: int              # the number of edges that bound v from above
    down: int            # ... and the number that bound it from either side

    @classmethod
    def of(cls, a: np.ndarray, b: np.ndarray, window: ConvexWindow,
           reach: float) -> "_LineScan":
        normals = window.normals
        inv_u = np.linalg.inv(np.column_stack([a, b]))[0]
        # widening moves a vertex out by reach / cos(half its turning angle)
        turn = np.einsum("ij,ij->i", normals, np.roll(normals, -1, axis=0))
        push = reach / np.sqrt((1.0 + turn.min()) / 2.0) * np.linalg.norm(inv_u)
        vertex_u = window.polygon @ inv_u
        slope = normals @ b
        up, down = slope >= 1e-12, slope <= -1e-12
        order = np.concatenate([np.flatnonzero(up), np.flatnonzero(down),
                                np.flatnonzero(~(up | down))])
        return cls(a, inv_u, vertex_u.min() - push, vertex_u.max() + push,
                   normals[order], (window.offsets + reach)[order, None],
                   slope[order, None], int(up.sum()), int(up.sum() + down.sum()))

    def __call__(self, t0: np.ndarray, radius: int):
        """(row, u, v_lo, v_hi): for each row of t0, the test point of
        (u, v) = (0, 0), every u in [-radius, radius] whose line can meet the
        widened window, with the real v interval where it does (empty when
        v_lo > v_hi)."""
        u0 = t0 @ self.inv_u
        u_lo, u_hi = _integer_span(self.u_lo - u0, self.u_hi - u0, -radius, radius)
        row, u = _expand(u_lo, u_hi)
        t = t0[row] + u[:, None] * self.a
        # slope * v must not exceed room, per (edge, line)
        room = self.normals @ t.T
        np.subtract(self.room, room, out=room)
        limit = room[:self.down]
        limit /= self.slope[:self.down]
        v_hi = limit[:self.up].min(axis=0)
        v_lo = limit[self.up:].max(axis=0)
        if self.down < len(room):  # an edge parallel to b: all or nothing
            v_hi[(room[self.down:] < 0).any(axis=0)] = -np.inf
        return row, u, v_lo, v_hi


def _raise_singular(cand: np.ndarray, status: np.ndarray, describe: str,
                    shift: GridShift, radius: int) -> None:
    """Raise SingularityError naming the lexicographically first candidate
    whose status is -1, if there is one."""
    bad = cand[status == -1]
    if len(bad):
        first = bad[np.argmin(label_keys(bad, radius))]
        raise SingularityError(
            f"label {tuple(int(x) for x in first)} lands within eps of {describe} "
            f"for gamma={tuple(shift.gamma.tolist())}; perturb the shift")


#: memory an enumeration may plan for, and what a qc run holds at its peak per
#: accepted label (ru_maxrss above the start: ~320 B for the whole 3-d lattice
#: at radius 35).  `qc freq` and `qc overlap-census` hold one chunk of their
#: scan, not its labels: `qc freq` peaks ~0.6 MB higher at radius 200 than
#: at radius 5 (39.0 against 38.4 MB, medians of 5), and the census at
#: 33.4 to 33.5 MB from radius 20 to 57 (32.9 MB at radius 5).  Their
#: refusal radii still follow BYTES_PER_LABEL, and both 3-d modes check the
#: lattice's estimate, so they refuse the same radii.
MEMORY_BUDGET = 4 * 10 ** 9
BYTES_PER_LABEL = 320


def _check_budget(radius: int, rows: int, windows, a: np.ndarray,
                  b: np.ndarray) -> None:
    """Refuse a box whose accepted labels would not fit in MEMORY_BUDGET.

    The scan meets `rows` lines of fixed label coordinates, and on each it
    tests the integer (u, v) of the windows, where a unit step in u and in v
    moves the test point by a and b.  So rows times their total area over
    |a x b| estimates the accepted count before anything is allocated.
    """
    area = sum(w.area for w in windows)
    estimate = rows * area / abs(float(a[0] * b[1] - a[1] * b[0]))
    if estimate * BYTES_PER_LABEL > MEMORY_BUDGET:
        raise ConfigError(
            f"radius {radius} would accept about {estimate:.3g} labels, "
            f"{estimate * BYTES_PER_LABEL / 1e9:.3g} GB at {BYTES_PER_LABEL} B each, "
            f"above the {MEMORY_BUDGET / 1e9:g} GB budget; use a smaller radius")


#: rows per chunk of a scan: (k0, k1) rows in 2-d, (a0, a1) rows of column
#: representatives in 3-d.  Everything a scan holds per row, line or label
#: lives for one chunk, so its working set does not grow with the radius: a
#: 2-d chunk tests at most ~8,400 labels at c = 0.5 (8,357 at radius 200),
#: and the traced peak of `qc freq`'s tally is about 1.0 MB at radius 100,
#: that of the overlap census about 1.4 MB at radius 57.
SCAN_ROWS = 1024


def _scan_chunks(n_rows: int, scan_rows, boundaries: tuple, shift: GridShift,
                 radius: int) -> Iterator:
    """Run scan_rows on range(n_rows), SCAN_ROWS rows at a time, and yield
    what it finds in each chunk.

    scan_rows(rows) returns (found, singular), where singular holds, per
    boundary of `boundaries`, the keys of the labels of those rows within
    eps of it.  A chunk with a singular label is not yielded, nor is any
    after it; the scan runs on, and after the last chunk raises
    SingularityError naming the least such label of the first boundary
    that has one.
    """
    held = [[] for _ in boundaries]
    for start in range(0, n_rows, SCAN_ROWS):
        found, singular = scan_rows(np.arange(start, min(start + SCAN_ROWS, n_rows)))
        for keys, bad in zip(held, singular):
            if len(bad):
                keys.append(bad)
        if not any(held):
            yield found
        # free this chunk before the next is made
        del found, singular
    for keys, describe in zip(held, boundaries):
        if keys:
            bad = np.column_stack(label_columns(np.concatenate(keys), radius))
            _raise_singular(bad, np.full(len(bad), -1), describe, shift, radius)


class ScanPiece(NamedTuple):
    """The labels of one index that one chunk of the 2-d scan tested, in key order."""

    index: int
    status: np.ndarray  # +1 accepted, 0 rejected, -1 singular
    points: np.ndarray  # (2, n) test points, as x and y rows
    keys: np.ndarray    # label_keys of the labels
    extent: np.ndarray  # label_extent of the labels: max_j |k_j|


def scan_2d(radius: int, shift: GridShift,
            wset: WindowSet) -> Iterator[tuple[ScanPiece, ...]]:
    """Test every label of the box [-radius, radius]^5 against its index
    window, SCAN_ROWS rows of (k0, k1) at a time.

    Yields, per chunk, one ScanPiece per index I = 1 .. 5.  The pieces of
    an index come in key order, chunk after chunk.  The scan fixes (k0, k1)
    and scan-converts (k2, k3), with k4 = I - k0 - k1 - k2 - k3.  Along a
    scan line a label's key, its extent and its test point all follow from
    the line and k3, so no label array is multiplied out: the test point is
    t0 + k2 a + k3 b, which differs from sum_j (k_j - gamma_j) w_j by up to
    about 5e-14 at radius 80, far inside eps.  Each index is tested against
    its own window only.

    Raises ValueError unless wset was built for shift.c, then ConfigError,
    before anything is allocated, if the box would not fit in
    MEMORY_BUDGET.  A chunk that holds a singular label is not yielded, nor
    is any after it; the scan runs on, and after the last chunk raises
    SingularityError naming the lexicographically first label, of any
    index, whose test point lies within eps of its window boundary, the
    c = 0 index-5 point window included.
    """
    if wset.c != shift.c:
        raise ValueError(f"the windows are built for c = {wset.c!r}, "
                         f"the shift has c = {shift.c!r}")
    M = int(radius)
    side = 2 * M + 1
    w = BASIS.W[:, :2]
    a, b = w[2] - w[4], w[3] - w[4]
    _check_budget(M, side ** 2, wset.slices.values(), a, b)
    weights = _key_weights(M)
    reach = wset.eps + _SCAN_SLACK
    windows = [wset.slices[index] for index in range(1, 5)]
    windows.append(_POINT_WINDOW if wset.degenerate_top else wset.slices[5])
    scans = [_LineScan.of(a, b, window, reach) for window in windows]
    gamma_w = shift.gamma @ w

    def scan_rows(rows):
        k01 = np.column_stack([rows // side - M, rows % side - M])
        k01_sum = k01.sum(axis=1)
        row_extent = np.maximum(np.abs(k01[:, 0]), np.abs(k01[:, 1]))
        # the key (k + M) . weights of (k0, k1, k2, k3, k34 - k3) is the key of
        # its line, (k0, k1, k2, 0, k34), plus k3 (weights[3] - weights[4])
        row_key = (k01 + M) @ weights[:2] + M * weights[3]
        t01 = k01 @ (w[:2] - w[4])
        del k01
        pieces, singular = [], []
        for index in range(1, 6):
            t0 = t01 + index * w[4]
            t0 -= gamma_w
            row, k2, v_lo, v_hi = scans[index - 1](t0, M)
            k34 = index - k01_sum[row] - k2
            lo, hi = _integer_span(v_lo, v_hi, np.maximum(k34 - M, -M),
                                   np.minimum(k34 + M, M))
            del v_lo, v_hi
            # drop the lines whose k3 span holds no label of the box
            held = lo <= hi
            row, k2, k34, lo, hi = (x[held] for x in (row, k2, k34, lo, hi))
            line, k3 = _expand(lo, hi)
            del lo, hi, held
            keys = (row_key[row] + (k2 + M) * weights[2] + (k34 + M) * weights[4])[line]
            keys += k3 * (weights[3] - weights[4])
            extent = np.maximum(row_extent[row], np.abs(k2))[line]
            np.maximum(extent, np.abs(k3), out=extent)
            k4 = k34[line]
            k4 -= k3
            np.maximum(extent, np.abs(k4, out=k4), out=extent)
            # x and y rows, which the predicate's (edges, n) product reads fastest
            pts = np.empty((2, len(k3)))
            for j, xy in enumerate(pts):
                np.multiply(k3, b[j], out=xy)
                xy += (t0[row, j] + k2 * a[j])[line]
            del row, k2, k34, line, k3, k4
            if index == 5 and wset.degenerate_top:
                # nothing is accepted, and a test point within eps of 0 is singular
                status = np.where(np.linalg.norm(pts, axis=0) <= wset.eps, -1, 0)
            else:
                status = windows[index - 1].classify(pts.T, wset.eps)
            singular.append(keys[status == -1])
            pieces.append(ScanPiece(index, status, pts, keys, extent))
            del status, pts, keys, extent
        return tuple(pieces), (np.concatenate(singular),)

    yield from _scan_chunks(side ** 2, scan_rows, ("a window boundary",), shift, M)


def enumerate_accepted_2d(radius: int, shift: GridShift, wset: WindowSet
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All accepted labels in the box [-radius, radius]^5, in key order.

    Returns (labels (N,5) int64, tiling vertices (N,2), keys (N,) int64):
    the keys are label_keys(labels, radius), strictly increasing.  The
    accepted keys of `scan_2d`'s pieces are in key order within each index,
    so one stable sort merges them, and the labels are decoded from the keys.
    Raises SingularityError if any label in the box has its test point
    within eps of a window boundary, and ConfigError if the box would not
    fit in MEMORY_BUDGET.
    """
    keys = np.concatenate([piece.keys[piece.status == 1]
                           for pieces in scan_2d(radius, shift, wset)
                           for piece in pieces])
    keys.sort(kind="stable")
    labels = np.column_stack(label_columns(keys, radius))
    return labels, labels.astype(float) @ BASIS.D, keys


def scan_tip_columns(radius: int, shift: GridShift, eps: float = DEFAULT_EPS
                     ) -> Iterator[tuple[np.ndarray, int]]:
    """Decide every column of the box [-radius, radius]^5 against the
    decagon and the inner decagon, SCAN_ROWS rows of (a0, a1) at a time.

    Yields, per chunk, (its tip columns' representatives (n, 5), the number
    of lattice points in its columns).  The representatives come in key
    order, chunk after chunk.  Since sum_j d_j = 0, the labels
    k + n (1,1,1,1,1) of a column share one test point, so one decagon test
    and one inner-decagon test decide the whole column.  That holds in
    exact arithmetic; the float test points of a column's labels differ by
    about 1e-14 at radius 20.  A column is named by its representative
    a = k - k4 (1,1,1,1,1), whose a4 is 0.  With spread s = max(a) - min(a),
    both taken with 0, it meets the box when s <= 2 radius, in the
    2 radius + 1 - s labels a + n (1,1,1,1,1),
    -radius - min(a) <= n <= radius - max(a).  The scan fixes (a0, a1) in
    [-2 radius, 2 radius]^2 and scan-converts (a2, a3).

    Raises ConfigError, before anything is allocated, if the lattice would
    not fit in MEMORY_BUDGET.  A chunk that holds a singular label is not
    yielded, nor is any after it; the scan runs on, and after the last
    chunk raises SingularityError naming the first label within eps of the
    decagon boundary, then the first within eps of the inner decagon
    boundary.
    """
    M, S = int(radius), 2 * int(radius)
    side = 2 * S + 1
    d = BASIS.D
    _check_budget(M, (2 * M + 1) ** 3, [DECAGON.window], d[3], d[4])
    scan = _LineScan.of(d[2], d[3], DECAGON.window, eps + _SCAN_SLACK)
    gamma_d = shift.gamma @ d

    def scan_rows(rows):
        a0, a1 = rows // side - S, rows % side - S
        # hi and lo: the largest and least coordinate so far, 0 included
        hi, lo = np.maximum(np.maximum(a0, a1), 0), np.minimum(np.minimum(a0, a1), 0)
        meets = hi - lo <= S
        a0, a1, hi, lo = a0[meets], a1[meets], hi[meets], lo[meets]
        t0 = np.outer(a0, d[0]) + np.outer(a1, d[1]) - gamma_d
        row, a2, v_lo, v_hi = scan(t0, S)
        hi, lo = np.maximum(hi[row], a2), np.minimum(lo[row], a2)
        meets = hi - lo <= S
        row, a2, v_lo, v_hi, hi, lo = (x[meets] for x in (row, a2, v_lo, v_hi, hi, lo))
        # a3 keeps the spread within 2 radius; (a0, a1) ascend over the rows
        # and a2, a3 within each, so the columns come out in key order
        sub, a3 = _expand(*_integer_span(v_lo, v_hi, hi - S, lo + S))
        row = row[sub]
        reps = np.column_stack([a0[row], a1[row], a2[sub], a3, np.zeros_like(a3)])
        hi, lo = np.maximum(hi[sub], a3), np.minimum(lo[sub], a3)
        # a column's first member has the least key of its labels
        first = reps - (M + lo)[:, None]
        pts = d_test_points(reps, shift)
        status = DECAGON.window.classify(pts, eps)
        inner = DECAGON.inner.classify(pts, eps)
        n_points = int(np.sum((2 * M + 1 - (hi - lo))[status == 1]))
        singular = (label_keys(first[status == -1], M), label_keys(first[inner == -1], M))
        return (reps[inner == 1], n_points), singular

    yield from _scan_chunks(side ** 2, scan_rows,
                            ("the decagon boundary", "the inner decagon boundary"),
                            shift, M)


def tip_columns(radius: int, shift: GridShift,
                eps: float = DEFAULT_EPS) -> tuple[np.ndarray, int]:
    """The tip columns of the box [-radius, radius]^5, in key order:
    (representatives (n, 5), number of lattice points in the box).

    Collects the chunks of scan_tip_columns, and raises as it does.
    """
    reps, counts = zip(*scan_tip_columns(radius, shift, eps))
    return np.concatenate(reps), sum(counts)


def enumerate_tips(radius: int, shift: GridShift, eps: float = DEFAULT_EPS
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """The tips of the box [-radius, radius]^5, in key order: (labels, keys,
    number of lattice points in the box).

    Tips are the lattice points whose test point falls strictly inside the
    inner decagon.  The labels of a column k + n (1,1,1,1,1) share one test
    point, so tip_columns decides each column once and the tips are the
    members of its tip columns; the lattice is never held.  Raises
    ConfigError if the lattice would not fit in MEMORY_BUDGET, then
    SingularityError for the first label within eps of the decagon
    boundary, then for the first within eps of the inner decagon boundary.
    """
    M = int(radius)
    reps, n_points = tip_columns(M, shift, eps)
    row, n = _expand(-M - reps.min(axis=1), M - reps.max(axis=1))
    tips = reps[row] + n[:, None]
    keys = label_keys(tips, M)
    order = np.argsort(keys)
    return tips[order], keys[order], n_points


#: largest box half-width whose label keys fit in int64, (2R+1)^5 < 2^63
MAX_KEY_RADIUS = 3103


def _key_weights(radius: int) -> np.ndarray:
    if radius > MAX_KEY_RADIUS:
        raise ValueError(f"radius {radius} is too large for int64 label keys")
    return (2 * radius + 1) ** np.arange(4, -1, -1, dtype=np.int64)


def label_extent(labels) -> np.ndarray:
    """max_j |k_j| of each label (last axis 5): its distance from the box centre.

    A column-wise maximum chain, which runs several times faster than a
    reduction along the short label axis.
    """
    labels = np.asarray(labels)
    extent = np.abs(labels[..., 0])
    for j in range(1, labels.shape[-1]):
        extent = np.maximum(extent, np.abs(labels[..., j]))
    return extent


def label_index(labels) -> np.ndarray:
    """sum_j k_j of each label (last axis 5): its slice index in 2-d.

    A column-wise sum chain, like `label_extent`.
    """
    labels = np.asarray(labels)
    index = labels[..., 0].copy()
    for j in range(1, labels.shape[-1]):
        index += labels[..., j]
    return index


def label_keys(labels, radius: int) -> np.ndarray:
    """Mixed-radix int64 key (k + R) . (2R+1)^(4..0) of each label, -1 outside the box.

    Inside the box [-R, R]^5 the key order is the enumerators' lexicographic
    label order, and key(k + m) = key(k) + m @ _key_weights(R) while k + m
    stays in the box.
    """
    labels = np.asarray(labels, dtype=np.int64)
    radius = int(radius)
    weights = _key_weights(radius)
    inside = label_extent(labels) <= radius
    return np.where(inside, (labels + radius) @ weights, -1)


def label_columns(keys, radius: int) -> tuple:
    """The components k_0 .. k_4, five int64 arrays, of the labels whose
    label_keys in the box [-radius, radius]^5 are `keys`: its inverse."""
    keys = np.asarray(keys, dtype=np.int64)
    radius = int(radius)
    base = 2 * radius + 1
    columns = []
    for _ in range(4):
        # floor division by a scalar runs about twice as fast as np.divmod
        rest = keys // base
        columns.append(keys - rest * base - radius)
        keys = rest
    columns.append(keys - radius)
    return tuple(columns[::-1])


def label_rows(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Row of each query key in the sorted key array, -1 where it is absent."""
    query = np.asarray(query, dtype=np.int64)
    if len(keys) == 0:
        return np.full(query.shape, -1, dtype=np.int64)
    rows = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return np.where(keys[rows] == query, rows, -1)


def step_rows(labels: np.ndarray, keys: np.ndarray, radius: int,
              sign: int = 1) -> np.ndarray:
    """(N, 5) row of each label's k + sign e_m in the sorted key array.

    -1 where the step is not a key, or leaves the box [-radius, radius]^5.
    """
    labels = np.asarray(labels, dtype=np.int64)
    radius = int(radius)
    base = label_keys(labels, radius)
    inside = (base >= 0) & (np.abs(labels.T + sign) <= radius)
    # one row of queries per step: sorted labels give sorted rows, which
    # searchsorted walks about twice as fast as interleaved queries
    steps = (sign * np.eye(5, dtype=np.int64)) @ _key_weights(radius)
    query = np.where(inside, base + steps[:, None], -1)
    return label_rows(keys, query).T
