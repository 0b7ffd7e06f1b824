"""Label-box enumeration by scan conversion: the line scan, the chunking and
the label keys of the 2-d scan and the tip scan.

Fix all but two label coordinates (u, v).  The test point is then affine in
them, t0 + u a + v b, and one-to-one, so the labels a window accepts are the
integer points of a convex polygon in the (u, v) plane.  Each enumerator
finds the integer points of that polygon, widened by eps plus a float slack
so the whole singular band |d| <= eps is inside it, and tests every point it
finds against the window.  Candidates are then accepted labels, rejects
within the slack of the window, and singular labels, which raise.
  2-d (`scan2d`):     fix (k0, k1, I) and read (k2, k3) off a row stencil
                      (`locate2d`); k4 = I - k0 - k1 - k2 - k3.
  3-d (`lattice3d`):  the labels k + n (1,1,1,1,1) of a column share one
                      test point, so the scan runs over column representatives
                      a = k - k4 (1,1,1,1,1): fix (a0, a1) and line-scan
                      (a2, a3) with _LineScan.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, SingularityError
from .geometry import ConvexWindow

#: how far past eps a scan reaches, far above the float error of its bounds
_SCAN_SLACK = 1e-6

#: a bound, per unit of radius, on the float error of the scans' test points
#: t and of t + w_m (2-d) or t + m.D (3-d): ten roundings of terms below ~5
#: radius.  Measured, at most 7.1e-16 radius in 2-d and 8.7e-16 in 3-d
#: (radius 10 to 160, three shifts)
_POINT_DRIFT = 2e-14


def check_eps(radius: int, eps: float, reading: str) -> None:
    """Raise ConfigError unless eps is above _POINT_DRIFT (radius + 1), so
    that `reading`, read off the test points, is the scan's own decision."""
    drift = _POINT_DRIFT * (radius + 1)
    if not eps > drift:
        raise ConfigError(
            f"eps {eps:g} is not above {drift:.2g}, the float error of the test "
            f"points at radius {radius}, so {reading} cannot be read off them; "
            f"use a larger tolerance")


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
        # row 0 of the inverse of [a b], which needs no LAPACK call
        inv_u = np.array([b[1], -b[0]]) / (a[0] * b[1] - a[1] * b[0])
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


#: rows per chunk of both scans: (k0, k1) rows in `scan2d.scan_2d`, (a0, a1)
#: rows of column representatives in `lattice3d.scan_tip_columns`.
#: Everything a scan holds per row or label lives for one chunk, so its
#: working set does not grow with the radius: a 2-d chunk tests at most
#: about 9,100 candidates at c = 0.5 (8,624 at radius 80, 9,066 at 200), and
#: the traced peak of `qc freq`'s tally is about 1.1 MB at radius 40 to 100,
#: that of the overlap census about 0.75 MB at radius 57.  At 256, 1024 and
#: 4096 rows, `qc freq --radius 80` peaks at 32.4, 32.9 and 36.8 MB in 0.31,
#: 0.21 and 0.25 s, and `qc overlap-census --c 0.2 --radius 20` at 31.6, 32.0
#: and 34.3 MB in 0.17, 0.17 and 0.16 s (ru_maxrss and wall time, medians of
#: 7, auto gamma, 2 shared vCPUs).  Fewer rows save little memory and cost
#: time; more cost memory.
SCAN_ROWS = 1024


def _scan_chunks(n_rows: int, scan_rows, boundaries: tuple, shift,
                 radius: int, least_key) -> Iterator:
    """Run scan_rows on range(n_rows), SCAN_ROWS rows at a time, and yield
    what it finds in each chunk.

    scan_rows(rows) returns (found, singular), where singular holds, per
    boundary of `boundaries`, the keys of the labels of those rows within
    eps of it.  A chunk with a singular label is not yielded, nor is any
    after it, and the scan then raises SingularityError naming the least
    such label of the first boundary that has one.  least_key(row) bounds
    from below every key the rows from `row` on can find, so the scan stops
    once a label singular at the first boundary is below that bound at the
    next chunk; while only a later boundary has one, it runs on, since a
    label of the first found later is named before it.
    """
    held = [[] for _ in boundaries]
    for start in range(0, n_rows, SCAN_ROWS):
        stop = min(start + SCAN_ROWS, n_rows)
        found, singular = scan_rows(np.arange(start, stop))
        for keys, bad in zip(held, singular):
            if len(bad):
                keys.append(bad)
        if not any(held):
            yield found
        # free this chunk before the next is made
        del found, singular
        if held[0] and min(map(np.min, held[0])) < least_key(stop):
            break
    for keys, describe in zip(held, boundaries):
        if keys:
            first = label_columns(min(map(np.min, keys)), radius)
            raise SingularityError(
                f"label {tuple(int(x) for x in first)} lands within eps of {describe} "
                f"for gamma={tuple(shift.gamma.tolist())}; perturb the shift")


#: largest box half-width whose label keys fit in int64, (2R+1)^5 < 2^63; the
#: tip scan's largest intermediate value, |a . w| <= 2R sum(w) for a column
#: representative a, is then about 9.212e18 < 2^63 ~ 9.223e18 (R = 3103)
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
