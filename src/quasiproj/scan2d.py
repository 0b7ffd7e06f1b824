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
from .scan import (_SCAN_SLACK, _expand, _integer_span, _key_weights,
                   _LineScan, _scan_chunks, check_eps, label_columns)
from .window import CONSTRUCTION_TOL, GridShift, PolytopeP


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

    # eps-dedup, then angular order around the centroid
    uniq: list[np.ndarray] = []
    for p in pts:
        if not any(np.max(np.abs(p - q)) <= eps for q in uniq):
            uniq.append(p)
    if len(uniq) not in (5, 10):
        raise ConsistencyError(
            f"slice window at height {h} has {len(uniq)} vertices, expected 5 or 10")
    poly = np.array(uniq)
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


#: the c = 0 index-5 window is the point 0, given as a square of zero size:
#: widened by eps and the slack, it holds the singular disk |t| <= eps
_POINT_WINDOW = ConvexWindow(np.zeros((1, 2)),
                             np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                             np.zeros(4))


class ScanPiece(NamedTuple):
    """The labels of one index that one chunk of the 2-d scan accepted, in key order."""

    index: int
    points: np.ndarray  # (2, n) test points, as x and y rows
    keys: np.ndarray    # label_keys of the labels
    extent: np.ndarray  # label_extent of the labels: max_j |k_j|


def scan_2d(radius: int, shift: GridShift,
            wset: WindowSet) -> Iterator[tuple[ScanPiece, ...]]:
    """Test every label of the box [-radius, radius]^5 against its index
    window, SCAN_ROWS rows of (k0, k1) at a time.

    Yields, per chunk, one ScanPiece per index I = 1 .. 5, which holds the
    labels of that index the chunk accepted.  The pieces of an index come
    in key order, chunk after chunk.  The scan fixes (k0, k1) and
    scan-converts (k2, k3), with k4 = I - k0 - k1 - k2 - k3.  Along a
    scan line a label's key, its extent and its test point all follow from
    the line and k3, so no label array is multiplied out: the test point is
    t0 + k2 a + k3 b, which differs from sum_j (k_j - gamma_j) w_j by up to
    about 5e-14 at radius 80, far inside eps.  Each index is tested against
    its own window only; nearly every label tested is accepted (all 161,833
    of the `freq_census` benchmark box, c = 0.5 and radius 80).

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
            accepted = status == 1
            pieces.append(ScanPiece(index, pts[:, accepted], keys[accepted],
                                    extent[accepted]))
            del status, accepted, pts, keys, extent
        return tuple(pieces), (np.concatenate(singular),)

    yield from _scan_chunks(side ** 2, scan_rows, ("a window boundary",), shift, M,
                            ascending=True)


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
    the keys are label_keys(labels, radius), strictly increasing.  The
    keys of `scan_2d`'s pieces are in key order within each index, so one
    stable sort merges them, and the labels are decoded from the keys.
    Raises ConfigError, before anything is allocated, if radius is above
    MAX_TILING_RADIUS or, by `check_eps`, if eps is within the float error
    of the scan's test points, and SingularityError if any label in the box
    has its test point within eps of a window boundary.
    """
    if radius > MAX_TILING_RADIUS:
        raise ConfigError(
            f"radius {radius} is above {MAX_TILING_RADIUS}, the largest whose tiling "
            f"vertices fit in the 4 GB memory budget; use a smaller radius")
    keys = np.concatenate([piece.keys for pieces in scan_2d(radius, shift, wset)
                           for piece in pieces])
    keys.sort(kind="stable")
    labels = np.column_stack(label_columns(keys, radius))
    return labels, labels.astype(float) @ BASIS.D, keys
