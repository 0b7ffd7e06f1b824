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
from .geometry import BASIS, DEFAULT_EPS, ConvexWindow, EdgeProbes
from . import locate
from .scan import (_SCAN_SLACK, RowStencils, _key_weights, _scan_chunks, check_eps,
                   label_columns)
from .window import CONSTRUCTION_TOL, GridShift, PolytopeP

#: the point 0, the window of a slice that is a tip and of index 0 and 6: a
#: square of zero size, it accepts nothing; its eps band, |t|_inf <= eps as at
#: every window's corners, is singular, and its row stencil names every label there
POINT_WINDOW = ConvexWindow(np.zeros((1, 2)), np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]]),
                            np.zeros(4))

#: a label's word (`locate`): its neighbour mask, MASK_SURE, and its status
MASK_SURE, (INSIDE, NOT_OUTSIDE) = 1 << 10, locate.status_bits(10, 0)


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
        # the dedup merges only some crossings around a vertex the plane nears
        if abs(h - round(h)) <= 2 * eps:
            raise DegenerateWindowError(
                f"slice at height {h} passes within {2 * eps:g} of a vertex layer of "
                f"the polytope, where it has {len(uniq)} vertices (index {index}, c = {c})")
        raise ConsistencyError(
            f"slice window at height {h} has {len(uniq)} vertices, expected 5 or 10")
    poly = pts[uniq]
    cen = poly.mean(axis=0)
    ang = np.arctan2(poly[:, 1] - cen[1], poly[:, 0] - cen[0])
    poly = poly[np.argsort(ang)]
    return ConvexWindow.of(poly)


class WindowSet(NamedTuple):
    """The index windows for one value of c, but for a slice that is a tip."""

    c: float
    eps: float
    slices: dict  # index -> ConvexWindow


def build_windows(P: PolytopeP, c: float, eps: float = DEFAULT_EPS) -> WindowSet:
    """The slice windows at c, with eps as the boundary tolerance of acceptance.

    When c (1 - c) is below eps or CONSTRUCTION_TOL, the top (bottom) slice
    is a tip, as V_{6-I}(1 - c) = -V_I(c): slices lacks it, and the scan
    takes it to be the point 0, POINT_WINDOW.  c and eps are plain floats."""
    c, eps = float(c), float(eps)
    tol = max(eps, CONSTRUCTION_TOL)
    tip = 5 if c < tol else 1 if 1 - c < tol else 0
    slices = {index: slice_window(P, index, c) for index in range(1, 6) if index != tip}
    return WindowSet(c=c, eps=eps, slices=slices)


def index_probes(wset: WindowSet) -> EdgeProbes:
    """The 11 probes of index I, family I - 1: t in V_I (its status), t + w_m
    in V_{I+1} (bit m) and t - w_m in V_{I-1} (bit 5 + m), POINT_WINDOW for
    a V_J wset lacks."""
    w = BASIS.W[:, :2]
    moves = np.concatenate([np.zeros((1, 2)), w, -w])[:, None]
    window = np.repeat([0, 1, -1], [1, 5, 5])[:, None] + np.arange(1, 6)
    return EdgeProbes.of([wset.slices.get(j, POINT_WINDOW) for j in range(7)], window,
                         np.broadcast_to(moves, (11, 5, 2)))


class ScanPiece(NamedTuple):
    """The labels one chunk of the 2-d scan accepted, of all five indices."""

    index: np.ndarray   # slice index I of each label
    keys: np.ndarray    # label_keys of the labels
    extent: np.ndarray  # label_extent of the labels: max_j |k_j|
    masks: np.ndarray   # neighbour mask of each, exact (see `locate`)


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
    among them: about 1.05 labels are tested per accepted one.  One
    `locate.locate` call per chunk, on the locator of the 11 probes of each
    index, built once per call too, gives each candidate's exact word, its
    status and its neighbour mask; its direction tables leave 2,581 of the
    170,329 candidates of the `freq_census` benchmark (c = 0.5, radius 80,
    seed 0) to the kernel.  So every mask a piece holds is exact.  A slice
    that is a tip is the point 0, POINT_WINDOW, which accepts none of its few
    candidates and finds singular those within eps of 0 in the max norm.

    Only MAX_KEY_RADIUS limits the radius: the scan holds one chunk at a
    time.  Raises ValueError unless wset was built for shift.c, and
    ConfigError, before anything is allocated, if wset.eps is not above the
    float error of the test points (`check_eps`), so that no label, and no
    vertex type read off a test point, is decided by that error.  A chunk
    with a singular label is not yielded, nor is any after it: the scan
    stops there and raises SingularityError naming the first label in key
    order, of any index, whose test point lies within eps of its window
    boundary, the point window included.  The chunks are
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
    windows = [wset.slices.get(i, POINT_WINDOW) for i in range(1, 6)]
    stencils = RowStencils.of(windows, step, reach)
    locator = locate.build(index_probes(wset), stencils.radius, 1, wset.eps)
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
        word = locate.locate(locator, pts, at)
        state = word & (INSIDE | NOT_OUTSIDE)
        accepted = state == INSIDE | NOT_OUTSIDE
        singular = keys[state == NOT_OUTSIDE]
        masks = word[accepted]
        masks &= 1023
        at = at[accepted]
        at += 1
        return ScanPiece(at, keys[accepted], extent[accepted], masks), (singular,)

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
