"""3-d quasiperiodic lattice: tips, 26-atom unit cells, and cell overlaps.

Lattice points are the 5-d integer points whose plane test point falls in
the decagon window.  Points whose test point falls in the inner decagon are
tips: each carries a translated copy of the 22-vertex polytope as a unit
cell holding 26 atoms (22 hull sites plus 4 interior).  Neighboring cells
overlap in one of two convex polyhedra, a 6-faced J or a 12-faced K, and
each tip falls in one of five overlap classes with c-independent
frequencies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from .errors import (CensusViolationError, ConfigError, ConsistencyError,
                     SingularityError)
from .geometry import (DEFAULT_EPS, PHI, ProjectionBasis, make_basis,
                       polygon_halfplanes)
from .window import (CUBE_VERTICES, HULL_INDICES, INTERIOR_INDICES, DecagonQ,
                     GridShift, PolytopeP, d_test_points, enumerate_accepted_3d,
                     label_keys, label_rows, points_in_convex_polygon)

#: volume below which an intersection counts as a touch, not an overlap;
#: realized J/K overlaps have volume > 0.05, float noise sits below 1e-12
VOLUME_FLOOR = 1e-12

#: overlap classes keyed by (neighbor count, K count, J count)
OVERLAP_SIGNATURES = {
    (4, 0, 4): "A1",
    (5, 1, 4): "A23",
    (4, 1, 3): "A46",
    (5, 2, 3): "A57",
    (6, 2, 4): "A8",
}

#: relative class frequencies 1 : p^-3 : p^-2 : p^-3 : (p^-2 + p^-4)/2
_RAW_RATIOS = {
    "A1": 1.0,
    "A23": PHI ** -3,
    "A46": PHI ** -2,
    "A57": PHI ** -3,
    "A8": 0.5 * (PHI ** -2 + PHI ** -4),
}
ANALYTIC_CLASS_FREQUENCIES = {
    label: value / sum(_RAW_RATIOS.values()) for label, value in _RAW_RATIOS.items()
}


@dataclass(frozen=True)
class Lattice3:
    """Accepted labels in a box with their 3-d points and sorted label keys."""

    labels: np.ndarray  # (N, 5) int64, sorted
    points: np.ndarray  # (N, 3)
    radius: int

    def __post_init__(self):
        object.__setattr__(self, "keys", label_keys(self.labels, self.radius))

    def rows(self, labels) -> np.ndarray:
        """Row of each label (last axis 5), -1 where it is not a lattice point."""
        return label_rows(self.keys, label_keys(labels, self.radius))

    def __contains__(self, label) -> bool:
        return bool(self.rows(label) >= 0)


def build_lattice3(radius: int, shift: GridShift, Q: DecagonQ,
                   basis: ProjectionBasis | None = None,
                   eps: float = DEFAULT_EPS) -> Lattice3:
    basis = basis or make_basis()
    labels, points = enumerate_accepted_3d(radius, shift, Q, basis, eps)
    return Lattice3(labels=labels, points=points, radius=radius)


def find_tips(lat: Lattice3, shift: GridShift, Q: DecagonQ,
              basis: ProjectionBasis | None = None,
              eps: float = DEFAULT_EPS) -> np.ndarray:
    """Labels whose plane test point falls strictly inside the inner decagon.

    Every tip is connected to all ten unit neighbors and anchors a unit cell.
    """
    basis = basis or make_basis()
    pts = d_test_points(lat.labels, shift, basis)
    status = points_in_convex_polygon(pts, Q._inner_normals, Q._inner_offsets, eps)
    if np.any(status == -1):
        bad = lat.labels[status == -1][0]
        raise SingularityError(
            f"label {tuple(int(x) for x in bad)} lies within eps of the inner "
            "decagon boundary; perturb the shift")
    return lat.labels[status == 1]


def tip_triangle(tip_label, shift: GridShift, Q: DecagonQ,
                 basis: ProjectionBasis | None = None,
                 eps: float = DEFAULT_EPS) -> int:
    """Which of the ten inner-decagon triangles holds this tip's test point."""
    basis = basis or make_basis()
    pt = d_test_points(np.asarray(tip_label)[None, :], shift, basis)[0]
    for t in range(10):
        tri = Q.triangles[t]
        status = points_in_convex_polygon(pt[None, :], *polygon_halfplanes(tri), eps)
        if status[0] == 1:
            return t
    raise SingularityError(
        f"tip test point {tuple(pt.tolist())} lies on a triangle boundary of the inner decagon")


@dataclass(frozen=True)
class CellInstance:
    """One 26-atom unit cell: a translated polytope anchored at a tip."""

    tip_label: np.ndarray       # (5,)
    tip_point: np.ndarray       # (3,)
    hull_atoms: np.ndarray      # (22, 5) labels on the translated hull
    interior_atoms: np.ndarray  # (4, 5) labels strictly inside, sorted


def build_cells(tips, lat: Lattice3) -> list[CellInstance]:
    """Assemble the cells of many tips by one lookup of tip + cube vertices.

    All 22 hull translates must be lattice points.  The only offsets that
    can carry an interior atom are the ten interior cube vertices (no other
    m has m.W strictly inside the polytope with m.D short enough for both
    ends to pass the decagon test), and exactly four of them must hit.
    """
    tips = np.asarray(tips, dtype=np.int64).reshape(-1, 5)
    atoms = tips[:, None, :] + CUBE_VERTICES             # (n, 32, 5)
    rows = lat.rows(atoms)
    if np.any(rows[:, 0] < 0):
        bad = tips[np.argmax(rows[:, 0] < 0)]
        raise ValueError(f"{tuple(bad.tolist())} is not a lattice point")
    missing = (rows[:, HULL_INDICES] < 0).sum(axis=1)
    if np.any(missing):
        i = int(np.argmax(missing))
        raise ConsistencyError(
            f"cell at {tuple(tips[i].tolist())}: {missing[i]} hull atoms are not "
            "lattice points (is the tip too close to the enumeration boundary?)")
    inner = rows[:, INTERIOR_INDICES]
    found = (inner >= 0).sum(axis=1)
    if np.any(found != 4):
        i = int(np.argmax(found != 4))
        raise ConsistencyError(
            f"cell at {tuple(tips[i].tolist())} has {found[i]} interior atoms, "
            "expected 4")
    # misses are -1, so the four hits sort last, in label order
    inner = np.sort(inner, axis=1)[:, -4:]
    hull = atoms[:, HULL_INDICES]
    return [CellInstance(tip_label=tips[i], tip_point=lat.points[rows[i, 0]],
                         hull_atoms=hull[i], interior_atoms=lat.labels[inner[i]])
            for i in range(len(tips))]


# ---------------------------------------------------------------------------
# convex intersections of neighboring cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OverlapShape:
    volume: float
    faces: int

    @property
    def overlapping(self) -> bool:
        return self.volume > VOLUME_FLOOR


_EMPTY_OVERLAP = OverlapShape(volume=0.0, faces=0)


def convex_intersection(offset, P: PolytopeP, eps: float = DEFAULT_EPS) -> OverlapShape:
    """Intersection of the polytope with a translated copy of itself.

    Runs a Chebyshev-center LP over the 40 face half-spaces; when the
    intersection is solid, reports its volume and the face count after
    merging coincident planes.
    """
    offset = np.asarray(offset, dtype=float)
    A = np.vstack([P.face_normals, P.face_normals])
    b = np.concatenate([P.face_offsets, P.face_offsets + P.face_normals @ offset])

    res = linprog(c=[0.0, 0.0, 0.0, -1.0],
                  A_ub=np.column_stack([A, np.ones(len(A))]), b_ub=b,
                  bounds=[(None, None)] * 3 + [(0, None)], method="highs")
    if not res.success or res.x[3] < 1e-7:
        return _EMPTY_OVERLAP
    center = res.x[:3]

    try:
        hs = HalfspaceIntersection(np.column_stack([A, -b]), center)
        hull = ConvexHull(hs.intersections)
    except QhullError:
        return _EMPTY_OVERLAP

    # count distinct supporting planes that actually carry a 2-d facet
    planes: list[tuple[np.ndarray, float]] = []
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
    return OverlapShape(volume=float(hull.volume), faces=faces)


@dataclass(frozen=True)
class OverlapTable:
    """Cached cell intersections for every feasible tip-to-tip 5-d offset."""

    offsets: tuple         # candidate 5-d offsets as tuples
    shapes: dict           # offset tuple -> OverlapShape


def build_overlap_table(P: PolytopeP, basis: ProjectionBasis | None = None,
                        eps: float = DEFAULT_EPS) -> OverlapTable:
    """Precompute intersections for all offsets two tips can realize.

    Both tips have plane test points inside the inner decagon (radius 1/p),
    so the plane offset is below 2/p; overlap further needs |dz| <= 4 and an
    xy offset below the diameter 2p.  That confines the 5-d offset to
    {-2..2}^5, a finite set computed once; results are shift-independent.
    """
    basis = basis or make_basis()
    rng = np.arange(-2, 3, dtype=np.int64)
    grid = np.stack(np.meshgrid(*([rng] * 5), indexing="ij"), axis=-1).reshape(-1, 5)
    grid = grid[np.any(grid != 0, axis=1)]

    plane = grid.astype(float) @ basis.D
    space = grid.astype(float) @ basis.W
    feasible = ((np.linalg.norm(plane, axis=1) < 2.0 / PHI + 1e-9)
                & (np.abs(space[:, 2]) <= 4)
                & (np.linalg.norm(space[:, :2], axis=1) < 2.0 * PHI + 1e-9))
    offsets = grid[feasible]

    shapes = {}
    for m, off3 in zip(offsets, offsets.astype(float) @ basis.W):
        shapes[tuple(int(x) for x in m)] = convex_intersection(off3, P, eps)
    return OverlapTable(offsets=tuple(shapes.keys()), shapes=shapes)


def overlap_signatures(inner: np.ndarray, tips: np.ndarray, radius: int,
                       table: OverlapTable) -> np.ndarray:
    """(neighbors, K, J) of each inner tip: its overlapping neighbor cells by shape.

    `tips` must hold every tip within reach of an inner tip, and inner tips
    must lie two label steps inside the box, so the key of tip + m is the
    tip's key plus the offset's.
    """
    tip_keys = label_keys(tips, radius)
    inner_keys = label_keys(inner, radius)
    origin = label_keys(np.zeros(5, dtype=np.int64), radius)
    sig = np.zeros((len(inner), 3), dtype=np.int64)
    for m in table.offsets:
        shape = table.shapes[m]
        if not shape.overlapping:
            continue
        hit = label_rows(tip_keys, inner_keys + (label_keys(m, radius) - origin)) >= 0
        if shape.faces not in (6, 12) and np.any(hit):
            tip = inner[np.argmax(hit)]
            raise CensusViolationError(
                f"overlap of {tuple(tip.tolist())} and {tuple((tip + m).tolist())} "
                f"has {shape.faces} faces, expected 6 or 12")
        sig[:, 0] += hit
        sig[:, 1 if shape.faces == 12 else 2] += hit
    return sig


def shared_atom_count(tip_a, tip_b, lat: Lattice3) -> int:
    """Number of atoms the two tips' 26-atom cells have in common.

    Overlapping neighbor cells share the lattice points inside their
    intersection; reported as a statistic only, no published values exist
    to assert against.
    """
    a, b = (label_keys(np.vstack([c.hull_atoms, c.interior_atoms]), lat.radius)
            for c in build_cells(np.vstack([tip_a, tip_b]), lat))
    return len(np.intersect1d(a, b))


@dataclass(frozen=True)
class OverlapCensus:
    c: float
    n_tips: int
    counts: dict      # class label -> count
    frequencies: dict  # class label -> empirical frequency
    analytic: dict    # class label -> analytic frequency
    shared_atoms: dict = None  # class label -> mean atoms shared with neighbors


def overlap_census(lat: Lattice3, shift: GridShift, Q: DecagonQ, P: PolytopeP,
                   basis: ProjectionBasis | None = None,
                   eps: float = DEFAULT_EPS, margin: int = 3,
                   table: OverlapTable | None = None,
                   shared_atom_sample: int = 0) -> OverlapCensus:
    """Classify every boundary-complete tip and tally the five overlap classes.

    With shared_atom_sample > 0, also reports the mean number of atoms a
    cell shares with its overlapping neighbors, averaged over that many
    sampled tips per class.
    """
    basis = basis or make_basis()
    table = table or build_overlap_table(P, basis, eps)
    tips = find_tips(lat, shift, Q, basis, eps)
    inner = tips[np.abs(tips).max(axis=1) <= lat.radius - margin]

    sigs = [tuple(s) for s in overlap_signatures(inner, tips, lat.radius, table).tolist()]
    for i, sig in enumerate(sigs):
        if sig not in OVERLAP_SIGNATURES:
            raise CensusViolationError(
                f"tip {tuple(inner[i].tolist())} has overlap signature {sig}, "
                "outside the five known classes")
    classes = [OVERLAP_SIGNATURES[sig] for sig in sigs]
    counter = Counter(classes)

    shared_sums: dict[str, list] = {lab: [] for lab in ANALYTIC_CLASS_FREQUENCIES}
    if shared_atom_sample:
        tip_keys = label_keys(tips, lat.radius)
        overlapping = np.array([m for m in table.offsets if table.shapes[m].overlapping])
        safe = lat.radius - margin - 2  # shared-atom cells need one more label ring
        for tip, label in zip(inner, classes):
            if len(shared_sums[label]) < shared_atom_sample and np.abs(tip).max() <= safe:
                others = tip + overlapping
                for other in others[label_rows(tip_keys, label_keys(others, lat.radius)) >= 0]:
                    shared_sums[label].append(shared_atom_count(tip, other, lat))
    total = sum(counter.values())
    if total == 0:
        raise ConfigError("no boundary-complete tips in the lattice box")
    freqs = {lab: counter.get(lab, 0) / total for lab in ANALYTIC_CLASS_FREQUENCIES}
    shared = None
    if shared_atom_sample:
        shared = {lab: (float(np.mean(v)) if v else float("nan"))
                  for lab, v in shared_sums.items()}
    return OverlapCensus(c=shift.c, n_tips=total,
                         counts={lab: counter.get(lab, 0) for lab in ANALYTIC_CLASS_FREQUENCIES},
                         frequencies=freqs,
                         analytic=dict(ANALYTIC_CLASS_FREQUENCIES),
                         shared_atoms=shared)
