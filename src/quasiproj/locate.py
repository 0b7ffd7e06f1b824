"""Point location in the windows: every window decision of both scans, the
cells and the overlap classes.

A locator answers, for each test point t, one word over the probes of an
`EdgeProbes`, with d a probe's largest edge distance (`edge_distances`):
its S leading status probes say whether t + v is inside the window beyond
eps (INSIDE, d < -eps) and not beyond eps outside it (NOT_OUTSIDE,
d <= eps), each of its M mask probes whether t + v is strictly inside
(d < 0).  The word holds the M mask bits, MASK_SURE, then INSIDE and
NOT_OUTSIDE of each status probe.  `locate` gives every point's exact word.

Most points need no edge tests.  Every edge of every window here is normal
to one of five directions u_d: at 36 d degrees for the slice windows V_I,
slices of the zonohedron of the w_j, so that each edge is parallel to
some w_i - w_j, and at 18 + 36 d degrees for both decagons.  So a probe's
test, max_e n_e . t < o_e - n_e . v -+ eps or 0, reads t only through
the u_d . t, bounded by the thresholds of the edges of normal +-u_d.  Built
once per run or call, a table per family and direction, of TABLE_SIZE
buckets of u_d . t, holds the word's bits along u_d; ANDed, the five words
of a point hold them for the whole window.

A bucket is sure of a bit only if no threshold of that bit lies within a
margin of the bucket: TABLE_MARGIN, plus the normals' largest distance from
the directions times the largest |t| looked up.  The margin bounds the gap
between u_d . t and a window's own n . t, under 1e-15 where the normals are
within 1e-16 of the directions and |t| < 2, and the rounding of the bucket
index, under 1e-13.  So where the tables are sure, their word is the exact
word; `locate` sends the rest to the kernel.  A window whose offsets are
all 0 is the point 0 (`scan2d.POINT_WINDOW`): no point is inside it, and
none surely outside its eps band, so its mask bits are surely clear and a
status against it is never sure.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .geometry import EdgeProbes, edge_distances


#: buckets of a direction table.  At 4096, 274 statuses of the 170,329
#: candidates of `qc freq --radius 80` (c = 0.5) and 2,307 masks of its
#: accepted labels take the exact word; at 2048, 440 and 3,033; at 8192, 182
#: and 1,544, each in the same time.  The 2-d scan's 25 tables hold 200 kB,
#: the tip scan's 20 kB, the neighbours' 80 kB and the atoms' 160 kB
TABLE_SIZE = 4096

#: how far every threshold lies from a bucket the tables call sure, beyond
#: the normals' distance from the directions (see the module docstring).
#: Over the 2-d scan's candidates |n . t - (+-u_d) . t| is at most 7.2e-16
#: at c = 0.5 (radius 80) and 8.3e-16 at p^-2 + 1e-9; at c = 1 - 1e-6,
#: whose V_1 has edges ~1e-6 long, 1.4e-10, which the normals' term covers
TABLE_MARGIN = 1e-11


def status_bits(masks: int, s: int) -> tuple[int, int]:
    """INSIDE and NOT_OUTSIDE of status probe s, with `masks` mask bits."""
    return 1 << (masks + 1 + 2 * s), 1 << (masks + 2 + 2 * s)


class Locator(NamedTuple):
    """The direction tables of a set of probes, and the probes."""

    units: np.ndarray   # (5, 2) the directions, times buckets per unit of projection
    lift: float         # added to a scaled projection to give its bucket
    words: np.ndarray   # words of direction d, family f at (F d + f) TABLE_SIZE + bucket
    probes: EdgeProbes  # S status probes, then the mask probes
    status: int         # S
    eps: float          # the status probes' band


def _intervals(probes: EdgeProbes, status: int, eps: float):
    """Per test (the M mask tests, then INSIDE and NOT_OUTSIDE of each
    status probe), family and direction d, the interval (lo, hi) of
    p = u_d . t where it holds along d, each (C, F, 5); the directions; and
    the largest |n - (+-u_d)| over the windows' normals n.  An edge of
    normal n ~ +u_d bounds p from above by its threshold, one of normal
    n ~ -u_d from below by minus it, and the tightest bound holds.
    """
    nx, ny, offsets = probes.edges
    P = len(probes.window)
    probe = np.concatenate([np.arange(status, P), np.repeat(np.arange(status), 2)])
    band = np.concatenate([np.zeros(P - status), np.tile([-eps, eps], status)])
    point = (offsets == 0).all(axis=0)
    angle = np.arctan2(ny, nx)
    # 0 or 18 degrees, from the normals of the first window of nonzero area
    base = np.pi / 10 * (np.rint(angle[0, np.argmin(point)] / (np.pi / 10)) % 2)
    turn = np.rint((angle - base) / (np.pi / 5)).astype(np.int64) % 10
    theta = base + np.arange(10) * np.pi / 5
    worst = np.hypot(nx - np.cos(theta[turn]), ny - np.sin(theta[turn]))[:, ~point].max()
    window = probes.window[probe]
    bound = np.full(window.shape + (10,), np.inf)
    test, family = np.indices(window.shape)
    np.minimum.at(bound, (test, family, turn[:, window]),
                  offsets[:, window] - probes.steps[:, probe] + band[:, None])
    lo, hi = -bound[..., 5:], bound[..., :5]
    # the point 0: a test below eps holds nowhere, one at eps everywhere
    flat = point[window]
    always = flat & (band > 0)[:, None]
    lo[flat], hi[flat] = np.inf, -np.inf
    lo[always], hi[always] = -np.inf, np.inf
    directions = np.column_stack([np.cos(theta[:5]), np.sin(theta[:5])])
    return lo, hi, directions, float(worst)


def build(probes: EdgeProbes, radius: float, status: int = 0, eps: float = 0.0) -> Locator:
    """The direction tables of probes (see the module docstring), whose
    first `status` probes are status probes of band eps, for test points
    within radius of 0."""
    K, F = TABLE_SIZE, probes.window.shape[1]
    span = 2.0 ** math.ceil(math.log2(2 * radius + 1e-6))
    scale = K / span
    lo, hi, directions, worst = _intervals(probes, status, eps)
    C, margin = len(lo), TABLE_MARGIN + radius * worst

    # the buckets within margin of a threshold are unsure; between the two
    # of an interval lie the buckets where it surely holds
    def near(theta):
        ends = [np.clip(np.floor((theta + sign * margin + span / 2) * scale), -1, K)
                for sign in (-1, 1)]
        return [end.astype(np.int64).transpose(2, 1, 0).reshape(5 * F, C, 1) for end in ends]
    lo_a, lo_b = near(lo)
    hi_a, hi_b = near(hi)
    # a table is constant between consecutive range ends: read each piece at
    # its first bucket, per direction d and family f, at row F d + f
    cuts = np.concatenate([np.zeros((5 * F, 1, 1), np.int64), lo_a, lo_b + 1, hi_a,
                           hi_b + 1], axis=1).reshape(5 * F, -1)
    cuts = np.sort(np.clip(cuts, 0, K), axis=1, kind="stable")
    at = cuts[:, None, :]
    holds = (lo_b < at) & (at < hi_a)
    unsure = ((lo_a <= at) & (at <= lo_b)) | ((hi_a <= at) & (at <= hi_b))
    M = C - 2 * status
    holds[:, M + 1::2] |= unsure[:, M + 1::2]
    bits = np.concatenate([holds[:, :M], ~unsure[:, :M].any(axis=1, keepdims=True),
                           holds[:, M:]], axis=1)
    word = (np.int64(1) << np.arange(C + 1)) @ bits
    lengths = np.diff(cuts, axis=1, append=K)
    table = np.repeat(word.astype(np.min_scalar_type((1 << C + 1) - 1)).ravel(),
                      lengths.ravel())
    return Locator(directions * scale, span / 2 * scale, table, probes, status, eps)


def words(loc: Locator, points: np.ndarray, at) -> np.ndarray:
    """The direction tables' word of each test point (x and y rows) of
    family at, an int or one per point: five lookups, one per direction,
    ANDed."""
    F = loc.probes.window.shape[1]
    K = len(loc.words) // (5 * F)
    # the bucket of t in the table of direction d and family f is
    # units[d] . t + lift, truncated, at (F d + f) K
    at_bucket = at * float(K)
    at_bucket += loc.lift
    bucket = np.empty(points.shape[1], np.intp)
    for d, unit in enumerate(loc.units):
        projected = unit @ points
        projected += at_bucket
        np.copyto(bucket, projected, casting="unsafe")
        if d:
            word &= loc.words.take(bucket)
        else:
            word = loc.words.take(bucket)
        at_bucket += F * K
    return word


def exact(loc: Locator, points: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The exact word of each test point (x and y rows) of family at, one
    per point, read off the largest edge distances d of its probes, with
    MASK_SURE set.  One kernel call takes any mix of families."""
    d = edge_distances(loc.probes, points, at)
    S, M = loc.status, len(d) - loc.status
    holds = np.concatenate([d[S:] < 0, np.ones((1, d.shape[1]), bool), np.stack(
        [d[:S] < -loc.eps, d[:S] <= loc.eps], axis=1).reshape(2 * S, d.shape[1])])
    return ((np.int64(1) << np.arange(M + 1 + 2 * S)) @ holds).astype(loc.words.dtype)


def locate(loc: Locator, points: np.ndarray, at=0) -> np.ndarray:
    """The exact word of each test point (x and y rows, (2, n)) of family
    at, an int or one per point: the tables' word, else `exact`, in one call
    for the points whose status they leave unsure, and for those whose mask
    they do unless they put the point beyond eps outside the first status
    probe's window, where no caller reads it (and MASK_SURE may be clear).
    """
    word = words(loc, points, at)
    M = len(loc.probes.window) - loc.status
    unsure = word & 1 << M == 0
    for s in range(loc.status):
        inside, not_outside = status_bits(M, s)
        state = word & (inside | not_outside)
        if s == 0:
            unsure &= state != 0
        unsure |= state == not_outside
    unsure = np.flatnonzero(unsure)
    if len(unsure):
        word[unsure] = exact(loc, points[:, unsure], np.broadcast_to(at, word.shape)[unsure])
    return word
