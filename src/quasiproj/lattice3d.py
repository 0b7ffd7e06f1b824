"""3-d quasiperiodic lattice: tips, 26-atom unit cells, and cell overlaps.

Lattice points are the 5-d integer points whose plane test point falls in
the decagon window.  Points whose test point falls in the inner decagon are
tips: each carries a translated copy of the 22-vertex polytope as a unit
cell holding 26 atoms (22 hull sites plus 4 interior).  Neighboring cells
overlap in one of two convex polyhedra, a 6-faced J or a 12-faced K, and
each tip falls in one of five overlap classes with c-independent
frequencies.  A K neighbor's cell shares 15 atoms with the tip's and a J
neighbor's 8, so the class also fixes the mean atoms a cell shares.

Both the cells and the classes are properties of the tips, so nothing here
holds the lattice.  Since sum_j d_j = 0, the labels k + n (1,1,1,1,1) of a
column share one test point and so one decision; the decagon scan tests each
column once, keeps only the tip columns, and still raises for a singular
label that is not a tip.  A tip's overlap class is fixed by which of the
test points t + m.D of its 30 overlapping neighbors k + m fall in the inner
decagon, so it is read off the tip's test point t by point location.  The
census classifies each chunk of the scan's tip columns as it comes, each
column once, counts it as many times as it has boundary-complete tips, and
keeps only the five class tallies, so its memory does not grow with the
radius.  A cell is its tip plus the 32 cube vertices, and build_cells
decides each of those atoms by the decagon test on its test point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (CensusViolationError, ConfigError, ConsistencyError,
                     SingularityError)
from .geometry import BASIS, DEFAULT_EPS, PHI
from .window import (CUBE_VERTICES, DECAGON, HULL_INDICES, INTERIOR_INDICES,
                     GridShift, accept_3d_bulk, d_test_points, label_keys,
                     scan_tip_columns)

#: overlap classes keyed by (neighbor count, K count, J count)
OVERLAP_SIGNATURES = {
    (4, 0, 4): "A1",
    (5, 1, 4): "A23",
    (4, 1, 3): "A46",
    (5, 2, 3): "A57",
    (6, 2, 4): "A8",
}

_CLASSES = tuple(OVERLAP_SIGNATURES.values())
#: class row of each signature (K + J, K, J) by its code 11 K + J (K <= 20,
#: J <= 10), -1 for a signature outside the five classes
_CLASS_OF_CODE = np.full(21 * 11, -1, dtype=np.int64)
_CLASS_OF_CODE[[11 * k + j for _, k, j in OVERLAP_SIGNATURES]] = np.arange(len(_CLASSES))

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


#: the ten interior cube vertices in label order, which is the order of the
#: interior atoms tip + m of every cell
_INTERIOR_BY_LABEL = np.array(INTERIOR_INDICES)[
    np.lexsort(CUBE_VERTICES[list(INTERIOR_INDICES)].T[::-1])]


def build_cells(tips, shift: GridShift, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The atoms of each tip's cell, decided by one decagon test of tip + cube vertices.

    Returns (hull (n, 22, 5) in POLYTOPE.vertices order, the tip first,
    interior (n, 4, 5) in label order).  Raises SingularityError for an atom within
    eps of the decagon boundary and ValueError for a tip that is not a
    lattice point.  All 22 hull translates must be lattice points.  The only
    offsets that can carry an interior atom are the ten interior cube
    vertices (no other m has m.W strictly inside the polytope with m.D short
    enough for both ends to pass the decagon test), and exactly four of
    them must hit.
    """
    tips = np.asarray(tips, dtype=np.int64).reshape(-1, 5)
    atoms = tips[:, None, :] + CUBE_VERTICES             # (n, 32, 5)
    status = accept_3d_bulk(atoms.reshape(-1, 5), shift, eps).reshape(atoms.shape[:2])
    if np.any(status == -1):
        bad = atoms[status == -1][0]
        raise SingularityError(
            f"cell atom {tuple(bad.tolist())} lands within eps of the decagon boundary "
            f"for gamma={tuple(shift.gamma.tolist())}; perturb the shift")
    if np.any(status[:, 0] != 1):
        bad = tips[np.argmax(status[:, 0] != 1)]
        raise ValueError(f"{tuple(bad.tolist())} is not a lattice point")
    present = status == 1
    _check_cells(tips, present)
    interior = atoms[:, _INTERIOR_BY_LABEL][present[:, _INTERIOR_BY_LABEL]]
    return atoms[:, HULL_INDICES], interior.reshape(-1, 4, 5)


def _check_cells(tips: np.ndarray, present: np.ndarray) -> None:
    """Raise ConsistencyError unless each cell, tip + the 32 cube vertices with
    `present` (n, 32) marking its lattice points, has all 22 hull atoms and
    exactly 4 of the 10 interior ones."""
    missing = (~present[:, HULL_INDICES]).sum(axis=1)
    if np.any(missing):
        i = int(np.argmax(missing))
        raise ConsistencyError(
            f"cell at {tuple(tips[i].tolist())}: {missing[i]} hull atoms are not "
            f"lattice points, so {tuple(tips[i].tolist())} is not a tip")
    found = present[:, INTERIOR_INDICES].sum(axis=1)
    if np.any(found != 4):
        i = int(np.argmax(found != 4))
        raise ConsistencyError(
            f"cell at {tuple(tips[i].tolist())} has {found[i]} interior atoms, "
            "expected 4")


# ---------------------------------------------------------------------------
# overlaps of neighboring cells
# ---------------------------------------------------------------------------

def _orbit(seed) -> np.ndarray:
    """The seed's ten images under cyclic shift of the coordinates and negation."""
    rolls = np.array([np.roll(seed, s) for s in range(5)], dtype=np.int64)
    return np.vstack([rolls, -rolls])


#: 5-d tip-to-tip offsets m whose cells overlap, by the shape of the overlap:
#: the 12-faced K (volumes 6.88 and 2.67) and the 6-faced J (volume 1.31).
#: Two tips' plane test points lie in the inner decagon, which confines m to
#: 100 offsets in {-2..2}^5; these 30 of them give a solid intersection of
#: the polytope with its translate by m.W.  The polytope alone fixes them,
#: so they hold for every shift.
OVERLAP_OFFSETS = {
    "K": np.vstack([_orbit((1, 0, 0, 0, 0)), _orbit((1, 0, 0, 0, -1))]),
    "J": _orbit((1, 0, 1, 0, 0)),
}
OVERLAP_OFFSETS["K"].setflags(write=False)
OVERLAP_OFFSETS["J"].setflags(write=False)


def overlap_signatures(points: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """(neighbors, K, J) of each tip, from its plane test point t (n, 2).

    The cell of k + m overlaps the tip k's for every m of OVERLAP_OFFSETS,
    and k + m is a tip when its test point t + m.D lies strictly inside the
    inner decagon, so the signature is a property of t alone.  Raises
    SingularityError for a neighbor test point within eps of the inner
    decagon boundary.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    hits = {}
    for shape, offsets in OVERLAP_OFFSETS.items():
        hits[shape] = np.zeros(len(points), dtype=np.int64)
        # one offset at a time keeps the temporaries at the size of points
        for m in offsets:
            moved = points + m @ BASIS.D
            status = DECAGON.inner.classify(moved, eps)
            if np.any(status == -1):
                i = int(np.argmax(status == -1))
                raise SingularityError(
                    f"neighbor test point {tuple(moved[i].tolist())} of the tip at "
                    f"{tuple(points[i].tolist())}, offset {tuple(m.tolist())}, lies "
                    "within eps of the inner decagon boundary; perturb the shift")
            hits[shape] += status == 1
    return np.column_stack([hits["K"] + hits["J"], hits["K"], hits["J"]])


@dataclass(frozen=True)
class OverlapCensus:
    c: float
    n_tips: int
    counts: dict      # class label -> count
    frequencies: dict  # class label -> empirical frequency
    analytic: dict    # class label -> analytic frequency
    shared_atoms: dict  # class label -> mean atoms shared with neighbors, nan if no tips


#: label steps from the box edge within which a tip is not classified or
#: given a cell, so that none of its neighbours or atoms lies outside the box
TIP_MARGIN = 3


def overlap_census(radius: int, shift: GridShift,
                   eps: float = DEFAULT_EPS) -> OverlapCensus:
    """Classify every boundary-complete tip of the box and tally the five overlap classes.

    Tips within TIP_MARGIN label steps of the box edge are not classified.
    The tips k + n (1,1,1,1,1) of a column share their test point, so their
    neighboring tips are translates of each other and they have one class.
    So each tip column of scan_tip_columns is classified once, as its chunk
    comes, and its class counted once per boundary-complete tip:
    2 (radius - TIP_MARGIN) + 1 - s, s the column's spread.  The class is
    read off the column's test point by overlap_signatures.  Only the class
    tallies outlive a chunk.

    The scan's SingularityError comes first, after its last chunk, though
    the chunks before the singular one have been classified.  Then, in
    this order: ConfigError if no tip is boundary-complete; the first
    chunk's SingularityError from overlap_signatures, for a neighbor test
    point within eps of the inner decagon boundary; and
    CensusViolationError, naming the least-key boundary-complete tip whose
    signature is outside the five classes.

    Also reports the mean number of atoms a cell shares with its
    overlapping neighbors, per class: (15 K + 8 J) / (K + J) from the
    class's signature, nan for a class with no tips.
    """
    M = int(radius)
    tally = np.zeros(len(_CLASSES))
    total = 0
    neighbor_error = None
    outside = []  # (key, message) of the least-key offending tip of a chunk
    for reps, _ in scan_tip_columns(M, shift, eps):
        spread = reps.max(axis=1) - reps.min(axis=1)
        weight = 2 * (M - TIP_MARGIN) + 1 - spread
        inner, weight = reps[weight > 0], weight[weight > 0]
        total += int(weight.sum())
        if neighbor_error or not len(inner):
            continue
        try:
            sigs = overlap_signatures(d_test_points(inner, shift), eps)
        except SingularityError as exc:
            # the scan may still raise for a later chunk, which comes first
            neighbor_error = exc
            continue
        cls = _CLASS_OF_CODE[11 * sigs[:, 1] + sigs[:, 2]]
        if np.any(cls < 0):
            # the first boundary-complete tip of each offending column
            bad = np.flatnonzero(cls < 0)
            first = inner[bad] - (M - TIP_MARGIN + inner[bad].min(axis=1))[:, None]
            keys = label_keys(first, M)
            i = int(np.argmin(keys))
            outside.append((int(keys[i]),
                            f"tip {tuple(first[i].tolist())} has overlap signature "
                            f"{tuple(sigs[bad[i]].tolist())}, outside the five known classes"))
            continue
        tally += np.bincount(cls, weights=weight, minlength=len(_CLASSES))
    if total == 0:
        raise ConfigError("no boundary-complete tips in the lattice box")
    if neighbor_error:
        raise neighbor_error
    if outside:
        raise CensusViolationError(min(outside)[1])
    counts = dict(zip(_CLASSES, tally.astype(np.int64).tolist()))
    # a K neighbor's cell shares 15 atoms with the tip's, a J neighbor's 8
    shared = {lab: (15 * k + 8 * j) / n if counts[lab] else float("nan")
              for (n, k, j), lab in OVERLAP_SIGNATURES.items()}
    return OverlapCensus(c=shift.c, n_tips=total, counts=counts,
                         frequencies={lab: n / total for lab, n in counts.items()},
                         analytic=dict(ANALYTIC_CLASS_FREQUENCIES),
                         shared_atoms=shared)
