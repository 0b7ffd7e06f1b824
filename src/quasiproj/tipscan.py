"""The 3-d label-box scan: every column of the box against the decagon and
the inner decagon, whose points are the tips of the 3-d unit cells.

It yields tip columns, not tips: `lattice3d` reads the cells and overlap
classes of all a column's tips off its test point.  The 2-d modes read
neither decagon, so they do not import this module.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .geometry import BASIS, DEFAULT_EPS
from .scan import (_SCAN_SLACK, _expand, _integer_span, _key_weights, _LineScan,
                   _scan_chunks, check_eps)
from .window import DECAGON, GridShift


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
    scan-converts (a2, a3); as in scan_2d, a column's test point
    t0 + a2 d2 + a3 d3 and its key follow from its scan line and a3.

    Only MAX_KEY_RADIUS limits the radius: the scan holds one chunk at a
    time.  Raises ConfigError, before anything is allocated, if eps fails
    `check_eps`.  A chunk that holds a singular label is not yielded, nor
    is any after it; after the last chunk the scan raises SingularityError
    naming the first label within eps of the decagon boundary, then the
    first within eps of the inner decagon boundary.  It runs to the last
    chunk because first members' keys carry -min(a) sum(w), so they do not
    ascend from one chunk to the next.
    """
    M, S = int(radius), 2 * int(radius)
    side = 2 * S + 1
    d = BASIS.D
    check_eps(M, eps, "cells and overlap classes")
    scan = _LineScan.of(d[2], d[3], DECAGON.window, eps + _SCAN_SLACK)
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
        row, a2, v_lo, v_hi = scan(t0, S)
        hi, lo = np.maximum(hi[row], a2), np.minimum(lo[row], a2)
        meets = hi - lo <= S
        row, a2, v_lo, v_hi, hi, lo = (x[meets] for x in (row, a2, v_lo, v_hi, hi, lo))
        # a3 keeps the spread within 2 radius
        line, a3 = _expand(*_integer_span(v_lo, v_hi, hi - S, lo + S))
        lo = np.minimum(lo[line], a3)
        spread = np.maximum(hi[line], a3) - lo
        keys = (row_key[row] + a2 * weights[2])[line] + a3 * weights[3] - lo * weights.sum()
        pts = np.empty((2, len(a3)))
        for j, xy in enumerate(pts):
            np.multiply(a3, d[3, j], out=xy)
            xy += (t0[row, j] + a2 * d[2, j])[line]
        del row, a2, hi, lo, line, a3
        status = DECAGON.window.classify(pts.T, eps)
        inner = DECAGON.inner.classify(pts.T, eps)
        n_points = int(np.sum((2 * M + 1 - spread)[status == 1]))
        tip = inner == 1
        return ((pts[:, tip], keys[tip], spread[tip], n_points),
                (keys[status == -1], keys[inner == -1]))

    yield from _scan_chunks(side ** 2, scan_rows,
                            ("the decagon boundary", "the inner decagon boundary"),
                            shift, M, ascending=False)

