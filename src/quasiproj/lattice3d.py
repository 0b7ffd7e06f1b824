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
column share one test point and so one decision, and the tip scan tests
each column once against both decagons, raising for a label within eps of
either boundary.  Cells and census read one pass over the tip columns that
hold a boundary-complete tip; the census keeps only the five class
tallies, so its memory does not grow with the radius.  The tip scan lives
here, with its only reader: the 2-d modes read neither decagon, so they
load none of this module.

A tip's cell and class are read off its test point t by sign, as
tiling2d.neighbor_masks reads the 2-d steps: atom k + m, m a cube vertex,
is a lattice point when t + m.D lies strictly inside the decagon (the
classify_steps status at eps 0), and overlapping neighbor k + m a tip when
it lies strictly inside the inner decagon.  For a boundary-complete tip of
a regular scan that is the scan's own decision: TIP_MARGIN = 3 keeps every
atom offset in {0,1}^5 and every overlap offset in {-1,0,1}^5 inside the
box, so the scan has put the test point of k + m more than eps inside or
outside each decagon, and t + m.D lies within scan._POINT_DRIFT (radius +
1) of it, which check_eps keeps below eps.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .errors import CensusViolationError, ConfigError, ConsistencyError
from .geometry import BASIS, DEFAULT_EPS, PHI
from .scan import (_SCAN_SLACK, RowStencils, _expand, _key_weights, _scan_chunks,
                   check_eps, label_columns)
from .window import CUBE_VERTICES, DECAGON, HULL_INDICES, INTERIOR_INDICES, GridShift

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


def scan_tip_columns(radius: int, shift: GridShift, eps: float = DEFAULT_EPS
                     ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Decide every column of the box [-radius, radius]^5 against the
    decagon and the inner decagon, SCAN_ROWS rows of (a0, a1) at a time.

    Yields, per chunk, (points (2, n), keys, spread, n_points): the test
    point (as x and y rows), first member's key and spread of each of its
    tip columns, and the number of lattice points in all its columns.
    Since sum_j d_j = 0, the labels k + n (1,1,1,1,1) of a column share one
    test point (in floats, to about 1e-14 at radius 20), so one test
    against each decagon decides the whole column.  A column is named by
    its representative a = k - k4 (1,1,1,1,1).  With spread
    s = max(a) - min(a), both taken with 0, it meets the box in the
    2 radius + 1 - s labels a + n (1,1,1,1,1),
    -radius - min(a) <= n <= radius - max(a).  The first has the key
    a . w - min(a) sum(w), w = _key_weights(radius), and each next one
    sum(w) more.  The scan fixes (a0, a1) in [-2 radius, 2 radius]^2 and
    reads a row's (a2, a3) off the decagon's row stencil over d2 and d3,
    keeping those of spread s <= 2 radius; as in scan_2d, a column's test
    point t0 + a2 d2 + a3 d3 and its key follow from its row and (a2, a3).

    Only MAX_KEY_RADIUS limits the radius: the scan holds one chunk at a
    time.  Raises ConfigError, before anything is allocated, if eps fails
    `check_eps`.  A chunk that holds a singular label is not yielded, nor
    is any after it; the scan raises SingularityError naming the first
    label within eps of the decagon boundary, else the first within eps of
    the inner decagon boundary.  First members' keys carry -min(a) sum(w),
    so they do not ascend from one chunk to the next, but a column's first
    member has k0 + radius = a0 - min(a, 0) >= max(a0, 0).  So once a label
    on the decagon boundary is found, the scan stops at the first chunk
    whose rows all have a0 > k0 + radius of the least one found; while only
    the inner decagon boundary has one, it runs to the last chunk.
    """
    M, S = int(radius), 2 * int(radius)
    side = 2 * S + 1
    d = BASIS.D
    check_eps(M, eps, "cells and overlap classes")
    stencils = RowStencils.of([DECAGON.window], d[2:4].T, eps + _SCAN_SLACK)
    gamma_d = shift.gamma @ d
    weights = _key_weights(M)

    def scan_rows(rows):
        a0, a1 = rows // side - S, rows % side - S
        # hi and lo: the largest and least coordinate so far, 0 included
        hi, lo = np.maximum(np.maximum(a0, a1), 0), np.minimum(np.minimum(a0, a1), 0)
        meets = hi - lo <= S
        a0, a1, hi, lo = a0[meets], a1[meets], hi[meets], lo[meets]
        t0 = np.outer(a0, d[0]) + np.outer(a1, d[1]) - gamma_d
        row_key = a0 * weights[0] + a1 * weights[1]
        row, a23 = stencils.candidates(stencils.inv @ t0.T)
        lo = np.minimum(np.minimum(lo[row], a23[0]), a23[1])
        spread = np.maximum(np.maximum(hi[row], a23[0]), a23[1]) - lo
        meets = spread <= S
        row, a23, lo, spread = row[meets], a23.compress(meets, axis=1), lo[meets], spread[meets]
        keys = row_key[row] + weights[2:4] @ a23 - lo * weights.sum()
        a2, a3 = a23
        pts = np.empty((2, len(a3)))
        for j, xy in enumerate(pts):
            np.multiply(a3, d[3, j], out=xy)
            xy += t0[row, j] + a2 * d[2, j]
        del row, a23, a2, a3, lo, meets
        status = DECAGON.window.classify(pts, eps)
        inner = DECAGON.inner.classify(pts, eps)
        n_points = int(np.sum((2 * M + 1 - spread)[status == 1]))
        tip = inner == 1
        return ((pts[:, tip], keys[tip], spread[tip], n_points),
                (keys[status == -1], keys[inner == -1]))

    # a column's first member has k0 + radius = a0 - min(a, 0) >= max(a0, 0),
    # so no row from a0 on holds a key below max(a0, 0) weights[0]
    yield from _scan_chunks(side ** 2, scan_rows,
                            ("the decagon boundary", "the inner decagon boundary"),
                            shift, M, lambda row: max(row // side - S, 0) * weights[0])



#: label steps from the box edge within which a tip is not classified or
#: given a cell, so that none of its neighbours or atoms lies outside the box
TIP_MARGIN = 3


def _complete_columns(M: int, shift: GridShift, eps: float):
    """Per chunk of scan_tip_columns, (points (2, n), first, count, n_tips,
    n_points): for each tip column that holds a boundary-complete tip, its
    test point, the key of its first such tip and how many it holds; then
    the chunk's numbers of tips and lattice points.  A column's first member
    in the box has its least component at -M, so TIP_MARGIN steps up the
    column reach its first tip clear of the box edge, one of
    2 (M - TIP_MARGIN) + 1 - s at spread s."""
    step = _key_weights(M).sum()
    for points, keys, spread, n_points in scan_tip_columns(M, shift, eps):
        count = 2 * (M - TIP_MARGIN) + 1 - spread
        held = count > 0
        yield (points[:, held], keys[held] + TIP_MARGIN * step, count[held],
               int(np.sum(2 * M + 1 - spread)), n_points)


#: largest radius whose cells build_cells holds within a 4 GB memory budget.
#: `qc lattice3d --c 0.4` peaks at 46.4, 198.6, 666.3 and 1679.2 MiB at radius
#: 10, 20, 30 and 40 (ru_maxrss, medians of 3), which 30.0e6 + 4092
#: (2 (R - TIP_MARGIN) + 1)^3 B, the cells of the boundary-complete tips,
#: fits to 12 MB: 3.76 GB at radius 51 and 4.0005 GB at 52.  The decagon is
#: a fixed figure, so the tip density, and this radius, do not depend on c.
MAX_CELLS_RADIUS = 51


def build_cells(radius: int, shift: GridShift, eps: float
                ) -> tuple[tuple[np.ndarray, np.ndarray], int, int]:
    """The cells of the boundary-complete tips of the box [-radius, radius]^5.

    Returns ((hull (n, 22, 5) in POLYTOPE.vertices order, the tip first,
    interior (n, 4, 5) in label order), lattice points in the box, tips in
    it), the n tips in key order.  Atom k + m is a lattice point when t + m.D
    lies strictly inside the decagon, t the test point the tips of k's
    column share, so one classify_steps call at eps 0 reads the 32 atoms of
    each column of _complete_columns for all its tips (exact, by the
    module's argument).  All 22 hull translates must be lattice points.
    The only offsets that can carry an interior atom are the ten interior
    cube vertices (no other m has m.W strictly inside the polytope with m.D
    short enough for both ends to pass the decagon test), and exactly four
    of them must hit.  Raises ConfigError, before anything is allocated, if
    radius is above MAX_CELLS_RADIUS; otherwise as scan_tip_columns does,
    then ConsistencyError from _check_cells.
    """
    M = int(radius)
    if M > MAX_CELLS_RADIUS:
        raise ConfigError(
            f"radius {M} is above {MAX_CELLS_RADIUS}, the largest whose cells fit in "
            f"the 4 GB memory budget; use a smaller radius")
    points, first, count, n_tips, n_points = zip(*_complete_columns(M, shift, eps))
    count = np.concatenate(count)
    column, n = _expand(np.zeros_like(count), count - 1)
    keys = np.concatenate(first)[column] + n * _key_weights(M).sum()
    order = np.argsort(keys)
    tips = np.column_stack(label_columns(keys[order], M))
    present = DECAGON.window.classify_steps(np.concatenate(points, axis=1),
                                            DECAGON.projections, 0.0).T[column[order]] == 1
    _check_cells(tips, present)
    interior = tips[:, None, :] + CUBE_VERTICES[_INTERIOR_BY_LABEL]
    interior = interior[present[:, _INTERIOR_BY_LABEL]].reshape(-1, 4, 5)
    hull = tips[:, None, :] + CUBE_VERTICES[list(HULL_INDICES)]
    return (hull, interior), sum(n_points), sum(n_tips)


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


#: the 30 offsets m in OVERLAP_OFFSETS order
_OFFSETS = np.vstack([OVERLAP_OFFSETS["K"], OVERLAP_OFFSETS["J"]])


def overlap_signatures(points: np.ndarray) -> np.ndarray:
    """(neighbors, K, J) of each tip, from its plane test point t, given as
    x and y rows (2, n).

    The cell of k + m overlaps the tip k's for every m of OVERLAP_OFFSETS,
    and k + m is a tip when its test point t + m.D lies strictly inside the
    inner decagon, so the signature is a property of t alone: the
    classify_steps status at eps 0 with the 30 steps m.D, the scan's own
    decision for a boundary-complete tip (see the module docstring).
    """
    hits = DECAGON.inner.classify_steps(np.asarray(points, dtype=float),
                                        _OFFSETS @ BASIS.D, 0.0) == 1
    n_k = len(OVERLAP_OFFSETS["K"])
    k, j = hits[:n_k].sum(axis=0), hits[n_k:].sum(axis=0)
    return np.column_stack([k + j, k, j])


class OverlapCensus(NamedTuple):
    c: float
    n_tips: int
    counts: dict      # class label -> count
    frequencies: dict  # class label -> empirical frequency
    analytic: dict    # class label -> analytic frequency
    shared_atoms: dict  # class label -> mean atoms shared with neighbors, nan if no tips


def overlap_census(radius: int, shift: GridShift,
                   eps: float = DEFAULT_EPS) -> OverlapCensus:
    """Classify every boundary-complete tip of the box and tally the five overlap classes.

    Tips within TIP_MARGIN label steps of the box edge are not classified.
    The tips k + n (1,1,1,1,1) of a column share their test point, so their
    neighboring tips are translates of each other and they have one class.
    So each column of _complete_columns is classified once, as its chunk
    comes, by overlap_signatures on its test point, and its class counted
    once per boundary-complete tip.  Only the class tallies outlive a chunk.

    The scan's SingularityError comes first, after its last chunk, though
    the chunks before the singular one have been classified; it is the
    only one, since overlap_signatures reads the scan's decisions by sign.
    Then ConfigError if no tip is boundary-complete, and then
    CensusViolationError, naming the least-key boundary-complete tip whose
    signature is outside the five classes.

    Also reports the mean number of atoms a cell shares with its
    overlapping neighbors, per class: (15 K + 8 J) / (K + J) from the
    class's signature, nan for a class with no tips.
    """
    M = int(radius)
    tally = np.zeros(len(_CLASSES))
    total = 0
    outside = []  # (key, message) of the least-key offending tip of a chunk
    for points, first, count, _, _ in _complete_columns(M, shift, eps):
        total += int(count.sum())
        sigs = overlap_signatures(points)
        cls = _CLASS_OF_CODE[11 * sigs[:, 1] + sigs[:, 2]]
        if np.any(cls < 0):
            bad = np.flatnonzero(cls < 0)
            i = bad[np.argmin(first[bad])]
            tip = tuple(int(k) for k in label_columns(first[i], M))
            outside.append((int(first[i]),
                            f"tip {tip} has overlap signature "
                            f"{tuple(sigs[i].tolist())}, outside the five known classes"))
            continue
        tally += np.bincount(cls, weights=count, minlength=len(_CLASSES))
    if total == 0:
        raise ConfigError("no boundary-complete tips in the lattice box")
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
