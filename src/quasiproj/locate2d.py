"""Point location in the slice windows: the tables the 2-d scan reads.

Every edge of every slice window V_I is normal to one of five directions
u_d, at 36 d degrees: a window is a slice of the zonohedron of the w_j, so
each edge is parallel to some w_i - w_j.  So whether a test point t is
inside V_I, and which of its steps t +- w_m land in V_{I+-1} (its neighbour
mask, the vertex type), depend on t only through the five projections
u_d . t.  Two tables are built once per WindowSet:

  - a row stencil per index, which names the labels of a scan row that can
    lie in the window: a row's test points are t0 + k2 a + k3 b, and with
    s = [a b]^-1 t0 = floor(s) + f, its candidates are z - floor(s) for the
    z in the stencil of the cell of f, of side 1/STENCIL_GRID;
  - a direction table per index and direction, of TABLE_SIZE buckets of
    u_d . t, whose uint16 word holds, along u_d, the ten neighbour-mask
    bits, MASK_SURE, INSIDE (t inside V_I beyond eps) and NOT_OUTSIDE (t not
    beyond eps outside V_I); the five words of a point, ANDed, hold them for
    the whole window.

A bucket is sure of a bit only if no threshold of that bit lies within a
margin of the bucket: TABLE_MARGIN, plus the normals' largest distance from
the directions times the largest |t| a stencil reaches.  The margin bounds
the gap between u_d . t and a window's own n . t, under 1e-15 where the
normals are within 1e-16 of the directions and |t| < 2, and the rounding of
the bucket index, under 1e-13.  So a sure status is the status
`ConvexWindow.classify` gives on the same point, and a sure mask is
`tiling2d.neighbor_masks` bit for bit, at every point a stencil reaches.
The 2-d scan sends the rest to those exact tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError
from .geometry import BASIS, ConvexWindow
from .scan import _expand


#: the c = 0 index-5 window is the point 0, given as a square of zero size:
#: widened by eps and the slack, it holds the singular disk |t| <= eps
POINT_WINDOW = ConvexWindow(np.zeros((1, 2)),
                            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                            np.zeros(4))

#: cells per side of a row stencil's grid over f.  At 32, `qc freq --radius
#: 80` (c = 0.5, the benchmark's shift) tests 170,329 candidates for its
#: 161,833 accepted labels, and the five stencils hold 8,718 offsets; at 16
#: it tests 177,441 and at 64 165,924, with 33,988 offsets, and its census
#: takes 45, 40 and 40 ms (in process, warm)
STENCIL_GRID = 32

#: buckets of a direction table, over a span of 4.  At 4096, 274 statuses
#: of those 170,329 candidates and 2,307 masks of the accepted labels fall
#: back to the edge tests; at 2048, 440 and 3,033; at 8192, 182 and 1,544,
#: each in the same time.  The 25 tables hold 200 kB
TABLE_SIZE = 4096

#: how far every threshold lies from a bucket the tables call sure, beyond
#: the normals' distance from the directions (see the module docstring).
#: Over the scan's candidates |n . t - (+-u_d) . t| is at most 7.2e-16 at
#: c = 0.5 (radius 80) and 8.3e-16 at p^-2 + 1e-9; at c = 1 - 1e-6, whose
#: V_1 has edges ~1e-6 long, 1.4e-10, which the normals' term covers
TABLE_MARGIN = 1e-11

# the bits of a direction table's word above the ten neighbour-mask bits
MASK_SURE = 1 << 10
INSIDE = 1 << 11
NOT_OUTSIDE = 1 << 12

#: the unit normals of the five edge directions of every window, at 36 d degrees
DIRECTIONS = np.column_stack([np.cos(np.arange(5) * np.pi / 5),
                              np.sin(np.arange(5) * np.pi / 5)])


class Tables(NamedTuple):
    """The row stencils and the direction tables of one WindowSet."""

    inv: np.ndarray    # [a b]^-1, so that a row's s = inv @ t0
    first: np.ndarray  # CSR starts of the stencil of (index I, cell), at (I - 1) G^2 + cell
    z: np.ndarray      # (2, n) int16 offsets (z2, z3) of all stencils, in CSR order
    units: np.ndarray  # (5, 2) the directions, times buckets per unit of projection
    lift: float        # added to a scaled projection to give its bucket
    words: np.ndarray  # uint16 words of direction d, index I at (5 d + I - 1) K + bucket


def _stencils(shapes: list, step: np.ndarray, inv: np.ndarray, reach: float):
    """The row stencils of five windows: CSR starts of the stencil of each
    (index I, cell), at (I - 1) G^2 + cell, and its offsets (z2, z3), int16.

    A row's labels in window I, widened by reach, are z - floor(s) for the z
    with z + [f] in it, [f] the cell of f of side 1/G.  In (k2, k3) units
    that is the fine point Q = G z + cell, Q / G in the widened window
    Minkowski-grown by [-1/G, 0]^2: the half-planes of its edges, each grown
    by the cell's support, within its extent.  step is [a b], inv its
    inverse; each window's edges and corners are padded to ten by repeats.
    """
    G, ten = STENCIL_GRID, np.arange(10)
    normals = np.array([s.normals.take(ten % len(s.normals), axis=0) for s in shapes])
    room = np.array([s.offsets.take(ten % len(s.offsets)) for s in shapes]) + reach
    corners = np.array([s.polygon.take(ten % len(s.polygon), axis=0) for s in shapes]) @ inv.T
    # widening moves a corner by at most reach / cos(45 degrees) here
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
    # G is a power of two, so Q mod G and Q // G are a mask and a shift
    shift = G.bit_length() - 1
    q2 = np.arange(count.sum(), dtype=np.int32)
    q2 += np.repeat(q2_lo.astype(np.int32) - np.cumsum(count, dtype=np.int32) + count, count)
    cell = np.repeat(((win * G + (q1 & (G - 1))) * G).astype(np.int16), count)
    cell += (q2 & (G - 1)).astype(np.int16)
    z = np.stack([np.repeat((q1 >> shift).astype(np.int16), count),
                  (q2 >> shift).astype(np.int16)])
    # a stable argsort of int16 is a radix sort
    z = z.take(np.argsort(cell, kind="stable"), axis=1)
    first = np.zeros(5 * G * G + 1, dtype=np.int32)
    np.cumsum(np.bincount(cell, minlength=5 * G * G), out=first[1:])
    return first, z


def _intervals(wset):
    """Per index I, direction d and condition, the interval (lo, hi) of
    p = u_d . t where the condition holds along d, each (5, 5, 12); and the
    largest |n - (+-u_d)| over the windows' normals n.

    The conditions of index I are: k + e_m is a vertex (bit m: t + w_m in
    V_{I+1}, n . t < o - n . w_m on each of its edges, as neighbor_masks
    reads it), k - e_m is one (bit 5 + m), t is inside V_I beyond eps, and
    t is not beyond eps outside V_I.  An edge of normal n ~ +u_d bounds p
    from above, one of normal n ~ -u_d from below.  No vertex has index 0
    or 6, nor 5 at c = 0, whose window decides no status.
    """
    eps = wset.eps
    # the interval of each condition that window J bounds, at rows J = 0 .. 6
    lo = np.full((7, 5, 12), -np.inf)
    hi = np.full((7, 5, 12), np.inf)
    absent = [0, 6] + ([5] if wset.degenerate_top else [])
    lo[absent], hi[absent] = np.inf, -np.inf
    if wset.degenerate_top:
        # the point window: t is never inside it, nor surely outside
        lo[5, :, 11], hi[5, :, 11] = -np.inf, np.inf
    owner = np.concatenate([np.full(len(wset.slices[j].offsets), j) for j in wset.slices])
    normals = np.concatenate([window.normals for window in wset.slices.values()])
    offsets = np.concatenate([window.offsets for window in wset.slices.values()])[:, None]
    w = BASIS.W[:, :2]
    values = np.concatenate([offsets - normals @ w.T, offsets - normals @ -w.T,
                             offsets + [-eps, eps]], axis=1)
    turn = np.rint(np.arctan2(normals[:, 1], normals[:, 0]) / (np.pi / 5))
    turn = turn.astype(np.int64) % 10
    if np.bincount(owner * 10 + turn).max() > 1:
        raise ConsistencyError("two edges of a window share one of the ten directions")
    d, below = turn % 5, turn >= 5
    hi[owner[~below], d[~below]] = values[~below]
    lo[owner[below], d[below]] = -values[below]
    worst = np.abs(normals - np.where(below, -1.0, 1.0)[:, None] * DIRECTIONS[d]).max()
    # index I reads window I + 1 for bits 0-4, I - 1 for bits 5-9, I for its status
    return tuple(np.concatenate([x[2:7, :, :5], x[0:5, :, 5:10], x[1:6, :, 10:]], axis=2)
                 for x in (lo, hi)) + (float(worst),)


def build(wset, step: np.ndarray, reach: float) -> Tables:
    """Build the row stencils and the direction tables of wset (see the module docstring)."""
    G, K = STENCIL_GRID, TABLE_SIZE
    inv = np.array([[step[1, 1], -step[0, 1]], [-step[1, 0], step[0, 0]]])
    inv /= step[0, 0] * step[1, 1] - step[0, 1] * step[1, 0]
    shapes = [wset.slices.get(index, POINT_WINDOW) for index in range(1, 6)]
    first, z = _stencils(shapes, step, inv, reach)

    # every test point a stencil reaches lies within `span` / 2 of 0
    radius = max(float(np.hypot(*shape.polygon.T).max()) for shape in shapes)
    reach_t = radius + 2 * reach + np.hypot(*step).sum() / G
    span = 2.0 ** math.ceil(math.log2(2 * reach_t + 1e-6))
    scale = K / span
    lo, hi, worst = _intervals(wset)
    margin = TABLE_MARGIN + reach_t * worst

    # the buckets within margin of a threshold are unsure; between the two
    # of an interval lie the buckets where it surely holds
    def near(theta):
        ends = [np.clip(np.floor((theta + sign * margin + span / 2) * scale), -1, K)
                for sign in (-1, 1)]
        return [end.astype(np.int64).transpose(1, 0, 2).reshape(25, 12, 1) for end in ends]
    lo_a, lo_b = near(lo)
    hi_a, hi_b = near(hi)
    # a table is constant between consecutive range ends: read each piece at
    # its first bucket, per direction d and index I, at row 5 d + I - 1
    cuts = np.concatenate([np.zeros((25, 1, 1), np.int64), lo_a, lo_b + 1, hi_a,
                           hi_b + 1], axis=1).reshape(25, -1)
    cuts = np.sort(np.clip(cuts, 0, K), axis=1)
    at = cuts[:, None, :]
    holds = (lo_b < at) & (at < hi_a)
    unsure = ((lo_a <= at) & (at <= lo_b)) | ((hi_a <= at) & (at <= hi_b))
    word = (holds[:, :10] << np.arange(10)[:, None]).sum(axis=1)
    word |= MASK_SURE * ~unsure[:, :10].any(axis=1)
    word |= INSIDE * holds[:, 10]
    word |= NOT_OUTSIDE * (holds[:, 11] | unsure[:, 11])
    lengths = np.diff(cuts, axis=1, append=K)
    table = np.repeat(word.astype(np.uint16).ravel(), lengths.ravel())
    return Tables(inv, first, z, DIRECTIONS * scale, span / 2 * scale, table)


def words(tables: Tables, points: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The direction tables' word of each test point (x and y rows) of index
    at + 1: five lookups, one per direction, ANDed."""
    K = len(tables.words) // 25
    # the bucket of t in the table of direction d and index I is
    # units[d] . t + lift, truncated, at (5 d + I - 1) K
    at_bucket = at * float(K)
    at_bucket += tables.lift
    bucket = np.empty(len(at), np.intp)
    for d, unit in enumerate(tables.units):
        projected = unit @ points
        projected += at_bucket
        np.copyto(bucket, projected, casting="unsafe")
        if d:
            word &= tables.words.take(bucket)
        else:
            word = tables.words.take(bucket)
        at_bucket += 5 * K
    return word
