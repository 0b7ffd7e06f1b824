"""Independent oracles used by the tests.

The mesh-condition oracles solve the defining linear feasibility problem
directly (does some point r and some lambda in the open unit 5-cube satisfy
grid-projection + gamma + lambda = k?) with an LP, bypassing the window
construction entirely.  The whole-box 2-d route tests any labels against
their index windows on test points multiplied out from the labels, and
finds and counts a vertex's neighbours by key lookup in the whole box's
key array; the 3-d route likewise tests labels against the decagon on
their own multiplied-out test points, and the all-tips route expands every
tip column of the tip scan into its members, margin tips included.
The overlap oracle intersects translated copies of the polytope
numerically, with an LP and Qhull.  The lattice route builds
the whole 3-d lattice of the box, finds its tips, assembles cells by lookup
of lattice rows, finds overlapping neighbor tips by merging label keys, and
counts shared atoms one pair of cells at a time.  The reference writers are
the tuple-based SVG and dict-based OBJ serialisers the array writers
replaced.  The shift-draw oracle is numpy.random itself.
"""

import random
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from quasiproj.errors import CensusViolationError, ConfigError, SingularityError
from quasiproj.geometry import BASIS, DEFAULT_EPS, PHI, make_basis
from quasiproj.io import fmt
from quasiproj.lattice3d import (_CLASS_OF_CODE, _CLASSES, ANALYTIC_CLASS_FREQUENCIES,
                                 OVERLAP_OFFSETS, OverlapCensus, _check_cells,
                                 scan_tip_columns)
from quasiproj import window
from quasiproj.scan import (_SCAN_SLACK, RowStencils, _expand, _key_weights,
                            label_columns, label_extent, label_index, label_keys)
from quasiproj.scan2d import enumerate_accepted_2d
from quasiproj.window import (CUBE_VERTICES, DECAGON, HULL_INDICES, INTERIOR_INDICES,
                              GridShift)


def mesh_margin_2d(k, shift, basis) -> float:
    """Max margin t such that t <= lambda_j <= 1 - t with lambda = k - gamma - D r.

    Positive: k satisfies the 2-d mesh condition strictly.  Negative: it
    does not.  Near zero: boundary case.
    """
    rhs = np.asarray(k, dtype=float) - shift.gamma
    A = np.vstack([np.column_stack([basis.D, np.ones(5)]),
                   np.column_stack([-basis.D, np.ones(5)])])
    b = np.concatenate([rhs, 1.0 - rhs])
    res = linprog([0.0, 0.0, -1.0], A_ub=A, b_ub=b,
                  bounds=[(None, None)] * 3, method="highs")
    assert res.success, res.message
    return float(res.x[2])


def mesh_margin_3d(k, shift, basis) -> float:
    """3-d analog of mesh_margin_2d, over space points and the plane grids."""
    rhs = np.asarray(k, dtype=float) - shift.gamma
    A = np.vstack([np.column_stack([basis.W, np.ones(5)]),
                   np.column_stack([-basis.W, np.ones(5)])])
    b = np.concatenate([rhs, 1.0 - rhs])
    res = linprog([0.0, 0.0, 0.0, -1.0], A_ub=A, b_ub=b,
                  bounds=[(None, None)] * 4, method="highs")
    assert res.success, res.message
    return float(res.x[3])


def mesh_solution_2d(k, shift, basis):
    """The maximizing (r, lambda) pair for the 2-d mesh condition LP."""
    rhs = np.asarray(k, dtype=float) - shift.gamma
    A = np.vstack([np.column_stack([basis.D, np.ones(5)]),
                   np.column_stack([-basis.D, np.ones(5)])])
    b = np.concatenate([rhs, 1.0 - rhs])
    res = linprog([0.0, 0.0, -1.0], A_ub=A, b_ub=b,
                  bounds=[(None, None)] * 3, method="highs")
    assert res.success, res.message
    r = res.x[:2]
    lam = rhs - basis.D @ r
    return r, lam


def polygon_area(poly) -> float:
    p = np.asarray(poly, dtype=float)
    q = np.roll(p, -1, axis=0)
    return 0.5 * float(np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))


def fan_triangles(poly) -> np.ndarray:
    """(n, 3, 2) fan of a polygon around the origin: (0, v_i, v_{i+1})."""
    p = np.asarray(poly, dtype=float)
    tri = np.zeros((len(p), 3, 2))
    tri[:, 1], tri[:, 2] = p, np.roll(p, -1, axis=0)
    return tri


def interior_atoms_sweep(tips, lat, P, eps=1e-9):
    """Brute-force interior atoms: sweep the four lattice layers above each tip.

    A lattice point is an interior atom when its 3-d point lies strictly
    inside the polytope translated to the tip.  Each tip tests every point
    of those layers whose x lies within the polytope's x extent of its own,
    found by bisection of the points sorted by layer, then by x.  Returns
    one (4, 5) label array per tip, in label order; no lookup tables are
    involved.
    """
    z = lat.labels.sum(axis=1)
    x = lat.points[:, 0]
    # layer first, then x: |x| stays far below the 1e4 spacing of the layers
    by_x = np.lexsort((x, z))
    layer_x = z[by_x] * 1e4 + x[by_x]
    tip_rows = {row: i for i, row in enumerate(map(tuple, lat.labels.tolist()))}
    tips = np.asarray(tips)
    tip_points = lat.points[[tip_rows[t] for t in map(tuple, tips.tolist())]]
    above = (tips.sum(axis=1) + np.arange(1, 5)[:, None]) * 1e4 + tip_points[:, 0]
    slack = 1e-6  # wider than the float error of the combined key
    lo = np.searchsorted(layer_x, above + P.vertices[:, 0].min() - slack)
    hi = np.searchsorted(layer_x, above + P.vertices[:, 0].max() + slack)
    out = []
    for i, tip_point in enumerate(tip_points):
        rows = np.concatenate([by_x[a:b] for a, b in zip(lo[:, i], hi[:, i])])
        rel = lat.points[rows] - tip_point
        inside = np.max(rel @ P.face_normals.T - P.face_offsets, axis=1) < -eps
        out.append(lat.labels[np.sort(rows[inside])])
    return out


def benchmark_gamma(c, seed):
    """The shift the benchmark draws: gamma_1..4 uniform, gamma_0 fixing the sum."""
    rng = random.Random(seed)
    tail = [rng.random() for _ in range(4)]
    return [c - sum(tail)] + tail


def numpy_draw(seed):
    """gamma_1..4 as `random_shift` drew them from numpy.random."""
    return np.random.default_rng(seed).uniform(0.0, 1.0, 4)


def moved_shift(shift, gen, k, target):
    """shift with its sum kept and label k's test point moved onto target.

    gen is the (5, 2) generator block of the test point (W[:, :2] or D);
    both blocks have orthogonal columns of squared length 5/2 that sum to 0.
    """
    delta = gen @ (np.asarray(k, dtype=float) @ gen - shift.gamma @ gen - target) / 2.5
    return window.GridShift(gamma=shift.gamma + delta, c=shift.c)


def slice_window_loop(P, index, c):
    """The slice window V_index as the face-by-face loop clipped it before it
    was vectorised: each face/plane crossing appended in turn, and each kept
    unless it lies within CONSTRUCTION_TOL of one kept before.  Returns the
    window, or the exception it raised."""
    from quasiproj.errors import ConsistencyError, DegenerateWindowError
    from quasiproj.geometry import ConvexWindow
    h = index - c
    eps = window.CONSTRUCTION_TOL
    if abs(h) <= eps or abs(h - 5.0) <= eps:
        return DegenerateWindowError(
            f"slice at height {h} degenerates to a tip (index {index}, c = {c})")
    pts = []
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
    uniq = []
    for p in pts:
        if not any(np.max(np.abs(p - q)) <= eps for q in uniq):
            uniq.append(p)
    if len(uniq) not in (5, 10):
        return ConsistencyError(
            f"slice window at height {h} has {len(uniq)} vertices, expected 5 or 10")
    poly = np.array(uniq)
    cen = poly.mean(axis=0)
    ang = np.arctan2(poly[:, 1] - cen[1], poly[:, 0] - cen[0])
    return ConvexWindow.of(poly[np.argsort(ang)])


# ---------------------------------------------------------------------------
# the whole-box 2-d route: acceptance of any labels, and neighbour rows and
# counts by lookup in the key array of every accepted label in the box
# ---------------------------------------------------------------------------

def accept_2d_bulk(labels, shift, wset, basis):
    """Vectorized 2-d acceptance: +1 accept, 0 reject, -1 singular.

    The test point of each label is sum_j (k_j - gamma_j) w_j, multiplied
    out, and each label is tested against the window of its own index.  At
    c = 0 the index-5 window is the point 0: it accepts nothing, and a test
    point within eps of 0 in the max norm, the eps band of a square of zero
    size, is singular.
    """
    labels = np.atleast_2d(np.asarray(labels, dtype=np.int64))
    idx = label_index(labels)
    pts = (labels.astype(float) - shift.gamma) @ basis.W[:, :2]
    status = np.zeros(len(labels), dtype=np.int8)
    for index in range(1, 6):
        m = idx == index
        if not np.any(m):
            continue
        if index not in wset.slices:
            status[m] = np.where(np.abs(pts[m]).max(axis=1) <= wset.eps, -1, 0)
            continue
        status[m] = wset.slices[index].classify(pts[m].T, wset.eps)
    return status


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


def neighbor_counts(labels, keys, radius):
    """(n_pos, n_neg) of each label: how many of its k + e_m and k - e_m are vertices.

    `keys` are the sorted label keys of every accepted label in the box
    [-radius, radius]^5, and the labels must lie one step inside the box,
    distinct and in key order.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(np.abs(labels) >= radius):
        raise ValueError(f"labels must lie inside the box [{1 - radius}, {radius - 1}]^5")
    base = label_keys(labels, radius)
    if np.any(base[1:] <= base[:-1]):
        raise ValueError("labels must be distinct and in key order")
    steps = np.eye(5, dtype=np.int64) @ _key_weights(radius)
    return tuple(sum(label_rows(keys, base + sign * step) >= 0 for step in steps)
                 for sign in (1, -1))


# ---------------------------------------------------------------------------
# the lattice route: the whole 3-d lattice of the box, its tips, and cells
# assembled by lookup of lattice rows
# ---------------------------------------------------------------------------

def d_test_points(labels, shift):
    """Plane test points sum_j (k_j - gamma_j) d_j for 3-d acceptance."""
    return (np.asarray(labels, dtype=float) - shift.gamma) @ BASIS.D


def accept_3d_bulk(labels, shift, eps=DEFAULT_EPS):
    """Vectorized 3-d acceptance against the decagon window: +1 accept, 0
    reject, -1 singular, on test points multiplied out from the labels."""
    labels = np.atleast_2d(np.asarray(labels, dtype=np.int64))
    return DECAGON.window.classify(d_test_points(labels, shift).T, eps)


def scan_3d(radius, shift, Q, basis, eps):
    """The decagon scan of the box label by label, as (candidates, decagon
    status, test points) blocks of one k0 layer each, in key order.

    Fix (k0, k1, k2) and read the candidate (k3, k4) of each row off the
    row stencil of the decagon over d3 and d4, clipped to the box.  Each
    label is tested on its own test point, with no use of the
    z-periodicity that enumerate_tips rests on.
    """
    M = int(radius)
    d = basis.D
    k = np.arange(-M, M + 1, dtype=np.int64)
    k12 = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)
    base = k12 @ d[1:3] - shift.gamma @ d
    stencils = RowStencils.of([Q.window], d[3:5].T, eps + _SCAN_SLACK)
    # k0 ascends over the blocks; a stencil names each row's candidates in
    # the order of its cells, so each block is sorted into key order
    for k0 in range(-M, M + 1):
        row, (k3, k4) = stencils.candidates(stencils.inv @ (base + k0 * d[0]).T)
        inside = (np.abs(k3) <= M) & (np.abs(k4) <= M)
        cand = np.column_stack([np.full(inside.sum(), k0), k12[row[inside]],
                                k3[inside], k4[inside]])
        cand = cand[np.argsort(label_keys(cand, M))]
        # a global of this module, so that a test can record what it tests
        status = accept_3d_bulk(cand, shift, eps)
        yield cand, status, d_test_points(cand, shift)


def _raise_singular(cand, status, describe, shift, radius):
    """Raise SingularityError naming the lexicographically first candidate
    whose status is -1, if there is one."""
    bad = cand[status == -1]
    if len(bad):
        first = bad[np.argmin(label_keys(bad, radius))]
        raise SingularityError(
            f"label {tuple(int(x) for x in first)} lands within eps of {describe} "
            f"for gamma={tuple(shift.gamma.tolist())}; perturb the shift")


def enumerate_accepted_3d(radius, shift, Q, basis=None, eps=DEFAULT_EPS):
    """All 3-d accepted labels in the box [-radius, radius]^5, in key order.

    Returns (labels (N,5) int64, 3-d points (N,3), keys (N,) int64, plane
    test points (N,2)), from the per-label decagon scan.  Raises
    SingularityError for a label within eps of the decagon boundary.
    """
    basis = basis or make_basis()
    M = int(radius)
    cand, status, pts = (np.concatenate(arrays)
                         for arrays in zip(*scan_3d(M, shift, Q, basis, eps)))
    _raise_singular(cand, status, "the decagon boundary", shift, M)
    labels = cand[status == 1]
    return labels, labels.astype(float) @ basis.W, label_keys(labels, M), pts[status == 1]


def enumerate_tips(radius: int, shift: GridShift, eps: float = DEFAULT_EPS
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """The tips of the box [-radius, radius]^5, in key order: (labels, keys,
    number of lattice points in the box).

    Tips are the lattice points whose test point falls strictly inside the
    inner decagon: the members of scan_tip_columns' tip columns, whose keys
    follow from their first member's.  One sort orders the keys, and the
    labels are decoded from them.  Raises as scan_tip_columns does.
    """
    M = int(radius)
    keys, n_points = [], 0
    for _, first, spread, count in scan_tip_columns(M, shift, eps):
        column, n = _expand(np.zeros_like(spread), 2 * M - spread)
        keys.append(first[column] + n * _key_weights(M).sum())
        n_points += count
    keys = np.sort(np.concatenate(keys))
    return np.column_stack(label_columns(keys, M)), keys, n_points


@dataclass(frozen=True)
class Lattice3:
    """Accepted labels in a box, as enumerate_accepted_3d returns them."""

    labels: np.ndarray       # (N, 5) int64, in key order
    points: np.ndarray       # (N, 3)
    keys: np.ndarray         # (N,) label_keys(labels, radius), strictly increasing
    test_points: np.ndarray  # (N, 2) plane test points
    radius: int

    def rows(self, labels):
        """Row of each label (last axis 5), -1 where it is not a lattice point."""
        return label_rows(self.keys, label_keys(labels, self.radius))


def build_lattice3(radius, shift, Q, basis=None, eps=DEFAULT_EPS):
    labels, points, keys, test_points = enumerate_accepted_3d(radius, shift, Q, basis, eps)
    return Lattice3(labels=labels, points=points, keys=keys, test_points=test_points,
                    radius=radius)


def find_tips(lat, Q, eps=DEFAULT_EPS):
    """Labels whose test point, as the lattice's acceptance test decided on
    it, falls strictly inside the inner decagon."""
    status = Q.inner.classify(lat.test_points.T, eps)
    if np.any(status == -1):
        bad = lat.labels[status == -1][0]
        raise SingularityError(
            f"label {tuple(int(x) for x in bad)} lies within eps of the inner "
            "decagon boundary; perturb the shift")
    return lat.labels[status == 1]


def lattice_cells(tips, lat):
    """The cells of many tips by one row lookup of tip + cube vertices.

    Returns the lattice rows of each cell's atoms: (tip rows (n,), hull rows
    (n, 22) in P.vertices order, interior rows (n, 4) in label order), with
    build_cells' checks.
    """
    tips = np.asarray(tips, dtype=np.int64).reshape(-1, 5)
    rows = lat.rows(tips[:, None, :] + CUBE_VERTICES)    # (n, 32)
    if np.any(rows[:, 0] < 0):
        bad = tips[np.argmax(rows[:, 0] < 0)]
        raise ValueError(f"{tuple(bad.tolist())} is not a lattice point")
    _check_cells(tips, rows >= 0)
    # misses are -1, so the four hits sort last, in label order
    inner = np.sort(rows[:, INTERIOR_INDICES], axis=1)[:, -4:]
    return rows[:, 0], rows[:, HULL_INDICES], inner


# ---------------------------------------------------------------------------
# cell overlaps by numerical polytope intersection
# ---------------------------------------------------------------------------

#: volume below which an intersection counts as a touch, not an overlap;
#: realized J/K overlaps have volume > 0.05, float noise sits below 1e-12
VOLUME_FLOOR = 1e-12


def convex_intersection(offset, P, eps=1e-9):
    """(volume, faces) of the polytope's intersection with a translate of itself.

    Runs a Chebyshev-center LP over the 40 face half-spaces; when the
    intersection is solid, reports its volume and the face count after
    merging coincident planes.  (0.0, 0) when it is not solid.
    """
    offset = np.asarray(offset, dtype=float)
    A = np.vstack([P.face_normals, P.face_normals])
    b = np.concatenate([P.face_offsets, P.face_offsets + P.face_normals @ offset])

    res = linprog(c=[0.0, 0.0, 0.0, -1.0],
                  A_ub=np.column_stack([A, np.ones(len(A))]), b_ub=b,
                  bounds=[(None, None)] * 3 + [(0, None)], method="highs")
    if not res.success or res.x[3] < 1e-7:
        return 0.0, 0
    center = res.x[:3]

    try:
        hs = HalfspaceIntersection(np.column_stack([A, -b]), center)
        hull = ConvexHull(hs.intersections)
    except QhullError:
        return 0.0, 0

    # count distinct supporting planes that actually carry a 2-d facet
    planes = []
    for normal, off in zip(A, b):
        if not any(np.dot(normal, n2) > 1.0 - 1e-9 and abs(off - o2) < max(eps, 1e-9)
                   for n2, o2 in planes):
            planes.append((normal, off))
    verts = hs.intersections
    faces = 0
    for normal, off in planes:
        on_plane = np.abs(verts @ normal - off) < 1e-7
        if int(on_plane.sum()) >= 3:
            faces += 1
    return float(hull.volume), faces


def overlap_table(P, basis, eps=1e-9):
    """offset tuple -> (volume, faces) for every tip-to-tip 5-d offset.

    Both tips have plane test points inside the inner decagon (radius 1/p),
    so the plane offset is below 2/p; overlap further needs |dz| <= 4 and an
    xy offset below the diameter 2p.  That confines the 5-d offset to
    {-2..2}^5.
    """
    rng = np.arange(-2, 3, dtype=np.int64)
    grid = np.stack(np.meshgrid(*([rng] * 5), indexing="ij"), axis=-1).reshape(-1, 5)
    grid = grid[np.any(grid != 0, axis=1)]

    plane = grid.astype(float) @ basis.D
    space = grid.astype(float) @ basis.W
    feasible = ((np.linalg.norm(plane, axis=1) < 2.0 / PHI + 1e-9)
                & (np.abs(space[:, 2]) <= 4)
                & (np.linalg.norm(space[:, :2], axis=1) < 2.0 * PHI + 1e-9))
    return {tuple(int(x) for x in m): convex_intersection(off3, P, eps)
            for m, off3 in zip(grid[feasible], grid[feasible].astype(float) @ basis.W)}


def overlap_signature_loop(tip, tip_set, table):
    """(neighbors, K, J) of one tip by probing every table offset in a Python set."""
    neighbors = k_shares = j_shares = 0
    for m, (volume, faces) in table.items():
        if volume <= VOLUME_FLOOR:
            continue
        other = tuple(int(a) + b for a, b in zip(tip, m))
        if other in tip_set:
            neighbors += 1
            k_shares += faces == 12
            j_shares += faces == 6
    return neighbors, k_shares, j_shares


# ---------------------------------------------------------------------------
# the overlap census over the whole lattice, one pair of cells at a time
# ---------------------------------------------------------------------------

def overlap_signatures_by_keys(inner, tips, radius):
    """(neighbors, K, J) of each inner tip, by merging label keys: the tips
    tip + m, m in OVERLAP_OFFSETS, found in the tip set.

    `tips` must hold every tip within reach of an inner tip, and inner tips
    must lie one label step inside the box, so the key of tip + m is the
    tip's key plus the offset's.  Both must be in key order, as
    enumerate_tips returns them.
    """
    tip_keys = label_keys(tips, radius)
    inner_keys = label_keys(inner, radius)
    hits = {}
    for shape, m in OVERLAP_OFFSETS.items():
        # inner tips in key order make each offset's queries one sorted run
        hits[shape] = sum(label_rows(tip_keys, inner_keys + delta) >= 0
                          for delta in m @ _key_weights(radius))
    return np.column_stack([hits["K"] + hits["J"], hits["K"], hits["J"]])


def overlap_signatures_by_offset(points, eps=DEFAULT_EPS):
    """(neighbors, K, J) of each tip's test point, given as x and y rows
    (2, n), by one inner-decagon classify of the moved points t + m.D per
    offset m of OVERLAP_OFFSETS.

    Raises SingularityError for the first offset that moves some point
    within eps of the inner decagon boundary; at eps 0, only onto it.
    """
    points = np.asarray(points, dtype=float).T
    hits = {}
    for shape, offsets in OVERLAP_OFFSETS.items():
        hits[shape] = np.zeros(len(points), dtype=np.int64)
        for m in offsets:
            moved = points + m @ BASIS.D
            status = DECAGON.inner.classify(moved.T, eps)
            if np.any(status == -1):
                i = int(np.argmax(status == -1))
                raise SingularityError(
                    f"neighbor test point {tuple(moved[i].tolist())} of the tip at "
                    f"{tuple(points[i].tolist())}, offset {tuple(m.tolist())}, lies "
                    "within eps of the inner decagon boundary; perturb the shift")
            hits[shape] += status == 1
    return np.column_stack([hits["K"] + hits["J"], hits["K"], hits["J"]])


def shared_atom_count(tip_a, tip_b, lat):
    """Number of atoms the two tips' 26-atom cells have in common."""
    _, hull, interior = lattice_cells(np.vstack([tip_a, tip_b]), lat)
    a, b = np.hstack([hull, interior])
    return len(np.intersect1d(a, b))


def overlap_census_lattice(lat, shift, Q, eps=1e-9, margin=3, shared_atom_sample=0):
    """The overlap census from the whole lattice's tips, and shared atoms pair by pair."""
    tips = find_tips(lat, Q, eps)
    inner = tips[label_extent(tips) <= lat.radius - margin]
    if len(inner) == 0:
        raise ConfigError("no boundary-complete tips in the lattice box")

    sigs = overlap_signatures_by_keys(inner, tips, lat.radius)
    cls = _CLASS_OF_CODE[11 * sigs[:, 1] + sigs[:, 2]]
    if np.any(cls < 0):
        i = int(np.argmax(cls < 0))
        raise CensusViolationError(
            f"tip {tuple(inner[i].tolist())} has overlap signature "
            f"{tuple(sigs[i].tolist())}, outside the five known classes")
    counts = dict(zip(_CLASSES, np.bincount(cls, minlength=len(_CLASSES)).tolist()))

    shared_sums = {lab: [] for lab in _CLASSES}
    if shared_atom_sample:
        tip_keys = label_keys(tips, lat.radius)
        overlapping = np.vstack(list(OVERLAP_OFFSETS.values()))
        # shared-atom cells need one more label ring
        safe = label_extent(inner) <= lat.radius - margin - 2
        for j, label in enumerate(_CLASSES):
            for tip in inner[(cls == j) & safe]:
                if len(shared_sums[label]) >= shared_atom_sample:
                    break
                others = tip + overlapping
                for other in others[label_rows(tip_keys, label_keys(others, lat.radius)) >= 0]:
                    shared_sums[label].append(shared_atom_count(tip, other, lat))
    total = len(inner)
    shared = None
    if shared_atom_sample:
        shared = {lab: (float(np.mean(v)) if v else float("nan"))
                  for lab, v in shared_sums.items()}
    return OverlapCensus(c=shift.c, n_tips=total, counts=counts,
                         frequencies={lab: n / total for lab, n in counts.items()},
                         analytic=dict(ANALYTIC_CLASS_FREQUENCIES),
                         shared_atoms=shared)


# ---------------------------------------------------------------------------
# lambda-box candidate supersets: the enumeration kernel before scan
# conversion, kept as a small-radius oracle.
#
# For an accepted label, k_j - gamma_j - lambda_j is an exact projection of a
# plane (or space) point onto generator j, so consecutive residuals satisfy
# the linear three-term relations of the generators:
#   2-d:  r_{j+1} = r_j / p - r_{j-1}            (d_{j-1} + d_{j+1} = d_j / p)
#   3-d:  r_3 = r_0 + r_1/p - r_2/p,  r_4 = -r_0/p + r_1/p + r_2
# With lambda in [0, 1] this confines each successive coordinate to an
# interval of width < 4, so only two coordinates (three in 3-d) are free.
# The supersets below use a one-step safety margin on each side.
# ---------------------------------------------------------------------------

_PINV = 2.0 / (1.0 + np.sqrt(5.0))


def _offsets_grid(base, n):
    """base (...,) -> candidates (..., n) = floor(base) - 1 + {0..n-1}."""
    return np.floor(base).astype(np.int64)[..., None] + np.arange(-1, n - 1, dtype=np.int64)


def lambda_box_candidates_2d(radius, shift):
    """Every label in the box with index 1..5 that the 2-d lambda box admits."""
    g = shift.gamma
    M = int(radius)
    k1 = np.arange(-M, M + 1, dtype=np.int64)
    chunks = []
    for k0 in range(-M, M + 1):
        K0 = np.full_like(k1, k0)
        lo2 = _PINV * (k1 - g[1] - 1.0) - (K0 - g[0]) + g[2]
        K2 = _offsets_grid(lo2, 6)
        K1b = np.broadcast_to(k1[:, None], K2.shape)
        lo3 = _PINV * (K2 - g[2] - 1.0) - (K1b - g[1]) + g[3]
        K3 = _offsets_grid(lo3, 6)
        K2b = np.broadcast_to(K2[..., None], K3.shape)
        lo4 = _PINV * (K3 - g[3] - 1.0) - (K2b - g[2]) + g[4]
        K4 = _offsets_grid(lo4, 6)
        shape = K4.shape
        cand = np.empty(shape + (5,), dtype=np.int64)
        cand[..., 0] = k0
        cand[..., 1] = np.broadcast_to(k1[:, None, None, None], shape)
        cand[..., 2] = np.broadcast_to(K2[..., None, None], shape)
        cand[..., 3] = np.broadcast_to(K3[..., None], shape)
        cand[..., 4] = K4
        cand = cand.reshape(-1, 5)
        s = cand.sum(axis=1)
        chunks.append(cand[(np.abs(cand).max(axis=1) <= M) & (s >= 1) & (s <= 5)])
    return np.vstack(chunks)


def lambda_box_candidates_3d(radius, shift):
    """Every label in the box that the 3-d lambda box admits."""
    g = shift.gamma
    M = int(radius)
    k12 = np.arange(-M, M + 1, dtype=np.int64)
    K1, K2 = np.meshgrid(k12, k12, indexing="ij")
    chunks = []
    for k0 in range(-M, M + 1):
        K0 = np.full_like(K1, k0)
        lo3 = (K0 - g[0] - 1.0) + _PINV * (K1 - g[1] - 1.0) - _PINV * (K2 - g[2]) + g[3]
        K3 = _offsets_grid(lo3, 7)
        K2b = np.broadcast_to(K2[..., None], K3.shape)
        K1b = np.broadcast_to(K1[..., None], K3.shape)
        lo4 = (-_PINV * (K0[..., None] - g[0]) + _PINV * (K1b - g[1] - 1.0)
               + (K2b - g[2] - 1.0) + g[4])
        K4 = _offsets_grid(lo4, 7)
        shape = K4.shape
        cand = np.empty(shape + (5,), dtype=np.int64)
        cand[..., 0] = k0
        cand[..., 1] = np.broadcast_to(K1[..., None, None], shape)
        cand[..., 2] = np.broadcast_to(K2[..., None, None], shape)
        cand[..., 3] = np.broadcast_to(K3[..., None], shape)
        cand[..., 4] = K4
        cand = cand.reshape(-1, 5)
        chunks.append(cand[np.abs(cand).max(axis=1) <= M])
    return np.vstack(chunks)


# ---------------------------------------------------------------------------
# reference writers: one Python tuple per vertex and edge, a dict of rounded
# coordinates per OBJ vertex
# ---------------------------------------------------------------------------

_REFERENCE_SVG_STYLES = {
    "1-2": 'stroke="#000" stroke-width="0.03" stroke-dasharray="0.12 0.08"',
    "4-5": 'stroke="#000" stroke-width="0.08" stroke-dasharray="0.12 0.08"',
    "2-3": 'stroke="#000" stroke-width="0.08"',
    "3-4": 'stroke="#000" stroke-width="0.03"',
}


def tiling_svg_reference(radius, shift, wset, basis, pad=1.0):
    """The SVG of `qc tiling2d`, from (label, index, (x, y)) vertex tuples."""
    labels, xy, keys = enumerate_accepted_2d(radius, shift, wset)
    index = labels.sum(axis=1).tolist()
    step = step_rows(labels, keys, radius)
    rows, _ = np.nonzero(step >= 0)
    styles = {1: "1-2", 2: "2-3", 3: "3-4", 4: "4-5"}
    edges = tuple((i, j, styles[index[i]])
                  for i, j in zip(rows.tolist(), step[step >= 0].tolist()))
    vertices = tuple((tuple(lab), i, tuple(p))
                     for lab, i, p in zip(labels.tolist(), index, xy.tolist()))

    if vertices:
        xs = [v[2][0] for v in vertices]
        ys = [-v[2][1] for v in vertices]
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
    for e in sorted(edges, key=lambda e: (vertices[e[0]][0], vertices[e[1]][0])):
        (ax, ay) = vertices[e[0]][2]
        (bx, by) = vertices[e[1]][2]
        lines.append(f'<path {_REFERENCE_SVG_STYLES[e[2]]} '
                     f'd="M {fmt(ax)} {fmt(-ay)} L {fmt(bx)} {fmt(-by)}"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cells_obj_reference(tips, lat, P):
    """The OBJ of `qc lattice3d` for these tips, deduplicating rounded coordinates."""
    lines = ["# quasiperiodic unit cells (one object per cell)"]
    vid = {}
    for tip in tips:
        tip_point = lat.points[lat.rows(tip)]
        lines.append("o cell_" + "_".join(str(int(x)) for x in tip))
        local = []
        for v in P.vertices + tip_point:
            key = tuple(round(float(x), 9) for x in v)
            if key not in vid:
                vid[key] = len(vid) + 1
                lines.append(f"v {fmt(v[0])} {fmt(v[1])} {fmt(v[2])}")
            local.append(vid[key])
        for loop in P.face_loops:
            lines.append("f " + " ".join(str(local[i]) for i in loop))
    return "\n".join(lines) + "\n"
