"""Label-box enumeration by scan conversion: the row stencils, the chunking
and the label keys of the 2-d scan and the tip scan.

Fix all but two label coordinates (u, v).  The test point is then affine in
them, t0 + u a + v b, and one-to-one, so the labels a window accepts are the
integer points of a convex polygon in the (u, v) plane.  Both scans read a
row's candidates off the row stencils (`RowStencils`) of their windows,
widened by eps plus a float slack so the whole singular band |d| <= eps is
inside them, and test every candidate against its window.  Candidates are
then accepted labels, rejects near the window, and singular labels, which
raise.
  2-d (`scan2d`):     a row is (k0, k1, I), its labels (k2, k3), and
                      k4 = I - k0 - k1 - k2 - k3.
  3-d (`lattice3d`):  the labels k + n (1,1,1,1,1) of a column share one
                      test point, so the scan runs over column representatives
                      a = k - k4 (1,1,1,1,1): a row is (a0, a1), its
                      labels (a2, a3).
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ConsistencyError, SingularityError

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


#: cells per side of a row stencil's grid over f.  At 32, `qc freq --radius
#: 80` (c = 0.5, the benchmark's shift) tests 170,329 candidates for its
#: 161,833 accepted labels, and the five stencils hold 8,718 offsets; at 16
#: it tests 177,441 and at 64 165,924, with 33,988 offsets, and its census
#: takes 45, 40 and 40 ms (in process, warm)
STENCIL_GRID = 32


class RowStencils(NamedTuple):
    """The row stencils of convex windows, widened by a reach, over steps
    [a b]: which labels (u, v) of a row put its test point t0 + u a + v b in
    a window.

    With s = [a b]^-1 t0 = floor(s) + f, a row's candidates are z - floor(s)
    for the z stored for the cell [f] of f, of side 1/G: every z with z + [f]
    meeting the widened window.  Built once by `of`; `candidates` reads them.
    """

    inv: np.ndarray    # [a b]^-1, so that a row's s = inv @ t0
    first: np.ndarray  # CSR starts of the stencil of (window, cell), at window G^2 + cell
    z: np.ndarray      # (2, n) int16 offsets of all stencils, in CSR order

    @classmethod
    def of(cls, shapes: list, step: np.ndarray, reach: float) -> "RowStencils":
        """The stencils of the windows `shapes` over step = [a b].

        In (u, v) units, z + [f] meets the widened window when the fine
        point Q = G z + cell has Q / G in it Minkowski-grown by [-1/G, 0]^2:
        the half-planes of its edges, each grown by the cell's support,
        within its extent.  Each window's edges and corners are padded to
        the most any has by repeats.
        """
        G = STENCIL_GRID
        if len(shapes) * G * G > 2 ** 15:
            raise ValueError(f"{len(shapes)} windows' cells do not fit in int16")
        inv = np.array([[step[1, 1], -step[0, 1]], [-step[1, 0], step[0, 0]]])
        inv /= step[0, 0] * step[1, 1] - step[0, 1] * step[1, 0]
        pad = np.arange(max(len(s.offsets) for s in shapes))
        normals = np.array([s.normals.take(pad % len(s.normals), axis=0) for s in shapes])
        room = np.array([s.offsets.take(pad % len(s.offsets)) for s in shapes]) + reach
        corners = np.array([s.polygon.take(pad % len(s.polygon), axis=0)
                            for s in shapes]) @ inv.T
        # widening moves a corner by reach / cos(half its turn), at most
        # reach / cos(45 degrees) where edges turn by up to 90 degrees, as here
        push = 2 * reach * np.hypot(*inv.T)
        lo = np.floor((corners.min(axis=1) - push) * G) - 1
        hi = np.ceil((corners.max(axis=1) + push) * G)
        if max(-lo.min(), hi.max()) >= 2 ** 15 * G:
            raise ConsistencyError(f"the stencils' offsets at reach {reach:g} do not fit in int16")
        m = normals @ step
        room += np.maximum(-m, 0).sum(axis=2) / G
        # rows of Q1, then each row's Q2 between the edges that bound it
        win, q1 = _expand(lo[:, 0].astype(np.int64), hi[:, 0].astype(np.int64))
        bound = (room[win] - m[win, :, 0] * (q1 / G)[:, None]) * G
        slope = m[win, :, 1]
        up, down = slope >= 1e-12, slope <= -1e-12
        ratio = bound / np.where(up | down, slope, 1.0)
        # (clipped, as an edge nearly parallel to b bounds far outside the extent)
        q2_lo = np.ceil(np.clip(np.where(down, ratio, -np.inf).max(axis=1), lo[win, 1],
                                hi[win, 1] + 1))
        q2_hi = np.floor(np.minimum(np.where(up, ratio, np.inf).min(axis=1), hi[win, 1]))
        # an edge parallel to b bounds the rows alone
        q2_hi[(~(up | down) & (bound < -1e-9)).any(axis=1)] = -np.inf
        count = np.maximum(q2_hi - q2_lo + 1, 0).astype(np.int32)
        q2 = np.arange(count.sum())
        q2 += np.repeat(q2_lo.astype(np.int64) - np.cumsum(count) + count, count)
        cell = np.repeat(((win * G + q1 % G) * G).astype(np.int16), count)
        cell += (q2 % G).astype(np.int16)
        z = np.stack([np.repeat((q1 // G).astype(np.int16), count), (q2 // G).astype(np.int16)])
        # free what the sort does not need
        del q2, bound, ratio
        # a stable argsort of int16 is a radix sort
        z = z.take(np.argsort(cell, kind="stable"), axis=1)
        first = np.zeros(len(shapes) * G * G + 1, dtype=np.int32)
        np.cumsum(np.bincount(cell, minlength=len(shapes) * G * G), out=first[1:])
        return cls(inv, first, z)

    def candidates(self, s: np.ndarray, window=0) -> tuple[np.ndarray, np.ndarray]:
        """(row, (u, v)), int32: every candidate of each row, rows ascending.

        s holds the rows' s = inv @ t0 as x and y rows, of any shape after
        the first axis, and window (broadcast against s[0]) the index in
        `shapes` of each row's window; row numbers the flattened rows.
        """
        G = STENCIL_GRID
        base = np.floor(s)
        cell = ((s - base) * G).astype(np.intp)
        # an s a hair below an integer gives f = 1 in floats, in the last cell
        np.minimum(cell, G - 1, out=cell)
        stencil = cell[0] * G
        stencil += cell[1]
        stencil += window * (G * G)
        stencil = stencil.ravel()
        start = self.first[stencil]
        count = self.first[stencil + 1] - start
        row = np.repeat(np.arange(len(start), dtype=np.int32), count)
        pos = np.repeat(start - np.cumsum(count, dtype=np.int32) + count, count)
        pos += np.arange(len(pos), dtype=np.int32)
        uv = base.astype(np.int32).reshape(2, -1).take(row, axis=1)
        np.subtract(self.z.take(pos, axis=1), uv, out=uv)
        return row, uv


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
