"""The slice windows V_I and the 2-d label-box scan against them.

A 5-d integer point of index I = sum_j k_j is a tiling vertex iff its
orthogonal projection falls strictly inside the slice window V_I of the
polytope at height I - c.  Only these windows depend on c.  The 3-d modes
read neither, so they do not import this module.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ConsistencyError, DegenerateWindowError
from .geometry import BASIS, DEFAULT_EPS, ConvexWindow
from . import locate2d
from .scan import (_SCAN_SLACK, RowStencils, _key_weights, _scan_chunks, check_eps,
                   label_columns)
from .window import CONSTRUCTION_TOL, GridShift, PolytopeP

#: the c = 0 index-5 window is the point 0, given as a square of zero size:
#: widened by eps and the slack, it holds the singular disk |t| <= eps
POINT_WINDOW = ConvexWindow(np.zeros((1, 2)),
                            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                            np.zeros(4))


def slice_window(P: PolytopeP, index: int, c: float) -> ConvexWindow:
    """Clip the polytope faces against the plane z = index - c: the window V_index.

    Collects face/plane intersection points, face by face in loop order (a
    vertex on the plane, then the crossing of the edge that leaves it),
    keeps the first of those within CONSTRUCTION_TOL of each other and
    orders them by angle.  The result is a pentagon near the tips and a
    decagon through the middle of the polytope.
    """
    if not 1 <= index <= 5:
        raise ValueError(f"index must be in [1, 5], got {index}")
    if not 0.0 <= c < 1.0:
        raise ValueError(f"c must lie in [0, 1), got {c}")
    h = index - c
    eps = CONSTRUCTION_TOL
    if abs(h) <= eps or abs(h - 5.0) <= eps:
        raise DegenerateWindowError(
            f"slice at height {h} degenerates to a tip (index {index}, c = {c})")

    # (face, edge, 2): each loop edge from its vertex a to the next vertex b
    loops = np.array(P.face_loops)
    ends = P.vertices[np.stack([loops, np.roll(loops, -1, axis=1)], axis=2)]
    za, zb = ends[..., 0, 2], ends[..., 1, 2]
    found = np.empty(loops.shape + (2, 2))
    found[..., 0, :] = ends[..., 0, :2]
    cross = (za - h) * (zb - h) < 0
    t = ((h - za[cross]) / (zb[cross] - za[cross]))[:, None]
    found[cross, 1] = (1 - t) * ends[cross, 0, :2] + t * ends[cross, 1, :2]
    pts = found[np.stack([np.abs(za - h) <= eps, cross], axis=2)]

    # eps-dedup, keeping the first of each cluster, then angular order
    close = np.abs(pts[:, None] - pts[None]).max(axis=2) <= eps
    uniq, rest = [], np.arange(len(pts))
    while len(rest):
        uniq.append(rest[0])
        rest = rest[~close[rest[0], rest]]
    if len(uniq) not in (5, 10):
        raise ConsistencyError(
            f"slice window at height {h} has {len(uniq)} vertices, expected 5 or 10")
    poly = pts[uniq]
    cen = poly.mean(axis=0)
    ang = np.arctan2(poly[:, 1] - cen[1], poly[:, 0] - cen[0])
    poly = poly[np.argsort(ang)]
    return ConvexWindow.of(poly)


class WindowSet(NamedTuple):
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


class ScanPiece(NamedTuple):
    """The labels one chunk of the 2-d scan accepted, of all five indices."""

    index: np.ndarray   # slice index I of each label
    points: np.ndarray  # (2, n) test points, as x and y rows
    keys: np.ndarray    # label_keys of the labels
    extent: np.ndarray  # label_extent of the labels: max_j |k_j|
    masks: np.ndarray   # neighbour mask of each (see tiling2d.neighbor_masks), < 0 if undecided


def scan_2d(radius: int, shift: GridShift, wset: WindowSet) -> Iterator[ScanPiece]:
    """Test every label of the box [-radius, radius]^5 against its index
    window, SCAN_ROWS rows of (k0, k1) at a time.

    Yields, per chunk, one ScanPiece: the labels of every index that the
    chunk accepted, in no set order.  A label's test point is
    t = t0 + k2 a + k3 b, with a = w2 - w4, b = w3 - w4 and t0 fixed by the
    row (k0, k1) and the index I, and k4 = I - k0 - k1 - k2 - k3.  It is
    summed as k3 b + (t0 + k2 a), and differs from sum_j (k_j - gamma_j) w_j
    by up to about 5e-14 at radius 80, far inside eps.

    A row stencil per index (`scan.RowStencils`), built once per call from
    wset, names a row's candidates, every label within eps of its window
    among them: about 1.05 labels are tested per accepted one.  Five
    lookups in the direction tables of `locate2d`, built once per call too,
    give a candidate's status against its window and its neighbour mask,
    where they are sure, which is exactly what the edge tests give.  Only the
    candidates whose status is not sure are tested, in the chunk, by
    `ConvexWindow.classify`, once per index (274 of the 170,329 candidates
    of the `freq_census` benchmark, c = 0.5 and radius 80); a mask that is
    not sure is negative in the piece, for its reader to compute (2,307 of
    its 161,833 accepted labels).  At c = 0 the index-5 window is the point
    0, and each of its few candidates is tested as |t| <= eps, which is
    singular.

    Only MAX_KEY_RADIUS limits the radius: the scan holds one chunk at a
    time.  Raises ValueError unless wset was built for shift.c, and
    ConfigError, before anything is allocated, if wset.eps is not above the
    float error of the test points (`check_eps`), so that no label, and no
    vertex type read off a test point, is decided by that error.  A chunk
    with a singular label is not yielded, nor is any after it: the scan
    stops there and raises SingularityError naming the first label in key
    order, of any index, whose test point lies within eps of its window
    boundary, the c = 0 index-5 point window included.  The chunks are
    runs of (k0, k1) rows, the two leading digits of the key, so every key
    of a chunk is below every key of the next, and that label is in the
    first chunk that holds a singular one.
    """
    if wset.c != shift.c:
        raise ValueError(f"the windows are built for c = {wset.c!r}, "
                         f"the shift has c = {shift.c!r}")
    M = int(radius)
    check_eps(M, wset.eps, "vertex types")
    side = 2 * M + 1
    w = BASIS.W[:, :2]
    a, b = w[2] - w[4], w[3] - w[4]
    weights = _key_weights(M)
    step, reach = np.column_stack([a, b]), wset.eps + _SCAN_SLACK
    windows = [wset.slices.get(i) for i in range(1, 6)]
    stencils = RowStencils.of([wset.slices.get(i, POINT_WINDOW) for i in range(1, 6)],
                              step, reach)
    tables = locate2d.build(wset, step, reach)
    gamma_w = shift.gamma @ w
    index = np.arange(1, 6)
    # a row's t0 and s are those of (k0, k1, 0, 0, 0), plus what I adds, as
    # x and y rows of (index, row) pairs, index-major
    t0_index = np.ascontiguousarray((index[:, None] * w[4]).T)[..., None]
    s_index = (index[:, None] * w[4] - gamma_w) @ stencils.inv.T
    s_index = np.ascontiguousarray(s_index.T)[..., None]
    # the key of (k0, k1, k2, k3, I - k0 - k1 - k2 - k3) is that of
    # (k0, k1, 0, 0, I - k0 - k1) plus k2 (w2 - w4) + k3 (w3 - w4)
    key_k2, key_k3 = weights[2] - weights[4], weights[3] - weights[4]
    key_base = M * (weights[2] + weights[3] + weights[4])

    def scan_rows(rows):
        n = len(rows)
        k0, k1 = rows // side - M, rows % side - M
        t01 = np.column_stack([k0, k1]) @ (w[:2] - w[4])
        t0 = t01.T[:, None] + t0_index
        t0 -= gamma_w[:, None, None]
        s = (stencils.inv @ t01.T)[:, None] + s_index
        pair, k23 = stencils.candidates(s, index[:, None] - 1)
        # k4 of (k0, k1, 0, 0) at I, the key of (k0, k1, 0, 0) at I and the
        # pair's extent so far
        k4_row = index[:, None] - (k0 + k1)
        key_pair = (k4_row + (rows * weights[1] + key_base)).ravel()
        k4 = k4_row.astype(np.int32).ravel().take(pair)
        k4 -= k23[0]
        k4 -= k23[1]
        extent_pair = np.tile(np.maximum(np.abs(k0), np.abs(k1)).astype(np.int32), 5)
        del k0, k1, k4_row, t01, s
        extent = np.abs(k23).max(axis=0)
        np.maximum(extent, np.abs(k4, out=k4), out=extent)
        inside = extent <= M
        pair, k23, extent = pair[inside], k23.compress(inside, axis=1), extent[inside]
        del k4, inside
        np.maximum(extent, extent_pair.take(pair), out=extent)
        k2, k3 = k23
        keys = key_pair.take(pair)
        keys += k2 * key_k2
        keys += k3 * key_k3
        # x and y rows, summed as k3 b + (t0 + k2 a)
        pts = t0.reshape(2, -1).take(pair, axis=1)
        pts += np.multiply.outer(a, k2)
        pts += np.multiply.outer(b, k3)
        del k2, k3, k23
        at = pair // n
        word = locate2d.words(tables, pts, at)
        state = word & (locate2d.INSIDE | locate2d.NOT_OUTSIDE)
        accepted = state == locate2d.INSIDE | locate2d.NOT_OUTSIDE
        doubt = np.flatnonzero(state == locate2d.NOT_OUTSIDE)
        singular = []
        if len(doubt):
            for i in range(5):
                mine = doubt[at[doubt] == i]
                if not len(mine):
                    continue
                if i == 4 and wset.degenerate_top:
                    # nothing is accepted, and a test point within eps of 0 is singular
                    status = np.where(np.linalg.norm(pts[:, mine], axis=0) <= wset.eps, -1, 0)
                else:
                    status = windows[i].classify(pts[:, mine].T, wset.eps)
                accepted[mine[status == 1]] = True
                singular.append(keys[mine[status == -1]])
        # the mask bits less MASK_SURE, so negative where the tables cannot tell
        masks = word[accepted].view(np.int16)
        masks &= locate2d.MASK_SURE | 1023
        masks -= locate2d.MASK_SURE
        at = at[accepted]
        at += 1
        # compress, as pts[:, accepted] runs several times slower
        piece = ScanPiece(at, pts.compress(accepted, axis=1), keys[accepted],
                          extent[accepted], masks)
        return piece, (np.concatenate(singular) if singular else keys[:0],)

    yield from _scan_chunks(side ** 2, scan_rows, ("a window boundary",), shift, M,
                            lambda row: row * weights[1])


#: largest radius whose accepted labels enumerate_accepted_2d holds within a
#: 4 GB memory budget.  `qc tiling2d` (c = 0.5) peaks at 98.4, 283.0, 599.9
#: and 1575.9 MiB at radius 50, 100, 150 and 250 (ru_maxrss, medians of 3),
#: which 39.6e6 + 6433 (2R+1)^2 B fits to 6.6 MB: 3.98 GB at radius 391 and
#: 4.004 GB at 392.  The windows' areas sum to vol(P) = 17.2048 at every c
#: (to 1e-14 at c = p^-2, 0.1, 0.2, 0.5, 0.7, 0.9 and 0.999), so the vertex
#: density, and this radius, do not depend on c.
MAX_TILING_RADIUS = 391


def enumerate_accepted_2d(radius: int, shift: GridShift, wset: WindowSet
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All accepted labels in the box [-radius, radius]^5, in key order.

    Returns (labels (N,5) int64, tiling vertices (N,2), keys (N,) int64):
    the keys are label_keys(labels, radius), strictly increasing.  One sort
    puts the keys of `scan_2d`'s pieces in order, and the labels are decoded
    from the keys.  Raises ConfigError, before anything is allocated, if
    radius is above MAX_TILING_RADIUS or, by `check_eps`, if eps is within
    the float error of the scan's test points, and SingularityError if any
    label in the box has its test point within eps of a window boundary.
    """
    if radius > MAX_TILING_RADIUS:
        raise ConfigError(
            f"radius {radius} is above {MAX_TILING_RADIUS}, the largest whose tiling "
            f"vertices fit in the 4 GB memory budget; use a smaller radius")
    keys = np.concatenate([piece.keys for piece in scan_2d(radius, shift, wset)])
    keys.sort()
    labels = np.column_stack(label_columns(keys, radius))
    return labels, labels.astype(float) @ BASIS.D, keys
