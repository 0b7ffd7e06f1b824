"""Point location in the slice windows: the tables the 2-d scan reads.

Every edge of every slice window V_I is normal to one of five directions
u_d, at 36 d degrees: a window is a slice of the zonohedron of the w_j, so
each edge is parallel to some w_i - w_j.  So whether a test point t is
inside V_I, and which of its steps t +- w_m land in V_{I+-1} (its neighbour
mask, the vertex type), depend on t only through the five projections
u_d . t.  Built once per WindowSet, a direction table per index and
direction, of TABLE_SIZE buckets of u_d . t, holds in a uint16 word, along
u_d, the ten neighbour-mask bits, MASK_SURE, INSIDE (t inside V_I beyond
eps) and NOT_OUTSIDE (t not beyond eps outside V_I); the five words of a
point, ANDed, hold them for the whole window.  The scan's row stencils
(`scan.RowStencils`) name the test points they are read at.

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
from .geometry import BASIS
from .scan import STENCIL_GRID


#: buckets of a direction table, over a span of 4.  At 4096, 274 statuses
#: of the 170,329 candidates of `qc freq --radius 80` (c = 0.5) and 2,307
#: masks of its accepted labels fall back to the edge tests; at 2048, 440 and 3,033; at 8192, 182 and 1,544,
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
    """The direction tables of one WindowSet."""

    units: np.ndarray  # (5, 2) the directions, times buckets per unit of projection
    lift: float        # added to a scaled projection to give its bucket
    words: np.ndarray  # uint16 words of direction d, index I at (5 d + I - 1) K + bucket


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
    """Build the direction tables of wset (see the module docstring) for
    the scan's row stencils over step = [a b], at `reach`."""
    K = TABLE_SIZE
    # every test point a stencil reaches lies within `span` / 2 of 0
    radius = max(float(np.hypot(*shape.polygon.T).max()) for shape in wset.slices.values())
    reach_t = radius + 2 * reach + np.hypot(*step).sum() / STENCIL_GRID
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
    return Tables(DIRECTIONS * scale, span / 2 * scale, table)


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
