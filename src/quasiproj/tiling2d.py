"""Vertex typing and frequency statistics of generalized Penrose tilings.

An accepted vertex of index I has n "positive" edges toward index I+1
neighbors and n' "negative" edges toward index I-1 neighbors; the pair
[n, n']_I is its vertex type.  The analytic frequency of a type is
A_I[n, n'] / (5 p), with the A functions piecewise quadratic in the grid
shift sum c.  The full census holds 3 + 9 + 20 + 9 + 3 types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CensusViolationError, ConfigError
from .geometry import BASIS, PHI
from .window import GridShift, WindowSet, scan_2d

_P = PHI


class VertexType(NamedTuple):
    index: int
    n_pos: int
    n_neg: int


def neighbor_masks(points: np.ndarray, index: int, wset: WindowSet) -> np.ndarray:
    """The 10-bit neighbour mask of each test point t of index I, given as
    x and y rows, shape (2, n).

    Bit m is set when t + w_m lies inside V_{I+1}, and bit 5 + m when t - w_m
    lies inside V_{I-1}: the steps k + e_m and k - e_m of a vertex k that are
    vertices, so its type [n, n']_I is (popcount(mask & 31),
    popcount(mask >> 5)).  Inside is strictly inside every edge line of the
    window, n . t < o - n . v for each of its edges (n, o), with v = w_m or
    -w_m, and the window's own normals and offsets.

    Why it is exact for a boundary-complete vertex of a regular scan: its
    neighbours lie in the box, and the scan has tested each against its
    window, or passed it by as more than eps outside, and raises if any lies
    within eps of the boundary.  So at the scan's test point p of each
    neighbour, n . p - o is below -eps on every edge of an accepted one and
    above eps on some edge of a rejected one.  t + v lies within the float
    error of the scan's points from p, which `_POINT_DRIFT` bounds and
    `empirical_frequencies` keeps below eps, so every difference keeps its
    sign against 0, and each bit is the scan's own decision.
    """
    if not 1 <= index <= 5:
        raise ValueError(f"index must be in [1, 5], got {index}")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or len(points) != 2:
        raise ValueError(f"points must have shape (2, n), got {points.shape}")
    w = BASIS.W[:, :2]
    masks = np.zeros(points.shape[1], dtype=np.int64)
    for first, other, steps in ((0, index + 1, w), (5, index - 1, -w)):
        window = wset.slices.get(other)
        if window is None:  # no vertex has that index
            continue
        # (edges, n) against (edges, 5 steps): bit first + m where every edge holds
        along = window.normals @ points
        room = window.offsets[:, None] - window.normals @ steps.T
        inside = (along[:, None, :] < room[:, :, None]).all(axis=0)
        masks |= (1 << (first + np.arange(5))) @ inside
    return masks


# ---------------------------------------------------------------------------
# analytic frequencies
#
# theta(x) below is the Heaviside step with theta(0) = 1.  Two formulas are
# two-branch with both branches nonzero at the shared breakpoint; these are
# evaluated with exclusive branches so the boundary value is the common
# (continuous) limit rather than the doubled sum.
# ---------------------------------------------------------------------------

def _H(x: float) -> float:
    return 1.0 if x >= 0.0 else 0.0


def _A1(n: int, n_neg: int, c: float) -> float:
    if n_neg != 0:
        return 0.0
    w = (1.0 - c) ** 2
    if n == 5:
        return 0.5 * (_P + 1 / _P) * _P ** -4 * w
    if n == 4:
        return 2.5 * _P ** -4 * w
    if n == 3:
        return 2.5 * _P ** -3 * w
    return 0.0


def _A2(n: int, n_neg: int, c: float) -> float:
    b = _P ** -2
    if (n, n_neg) == (5, 0):
        if c <= b:
            return 0.5 * (_P + 1 / _P) * (_P ** -3 + c) ** 2
        return 0.5 * (_P + 1 / _P) * _P ** -4 * (2.0 - c) ** 2
    if (n, n_neg) == (5, 1):
        return _H(b - c) * 2.5 * (_P ** -5 + c) * _P * (b - c)
    if (n, n_neg) == (5, 2):
        return _H(b - c) * 2.5 * (b - c) ** 2 / _P
    if (n, n_neg) == (4, 0):
        return _H(c - b) * 2.5 * (c - b) * ((1 - c) / _P + _P ** -3 * (2 - c))
    if (n, n_neg) == (4, 1):
        if c <= b:
            return 2.5 * c ** 2 / _P
        return 2.5 * _P ** -3 * (1 - c) ** 2
    if (n, n_neg) == (3, 2):
        return _H(b - c) * 2.5 * _P ** 2 * (b - c) ** 2
    if (n, n_neg) == (3, 1):
        return 5 * _P ** -2 * (1 - c) ** 2 - _H(b - c) * 5 * _P ** 2 * (b - c) ** 2
    if (n, n_neg) == (3, 0):
        return 2.5 * c ** 2 - _H(c - b) * 5 * (c - b) ** 2
    if (n, n_neg) == (2, 1):
        return 2.5 * (1 - c) ** 2 / _P
    return 0.0


def _A3_direct(n: int, n_neg: int, c: float) -> float:
    p = _P
    if (n, n_neg) == (0, 5):
        return _H(p ** -3 - c) * 0.5 * (p + 1 / p) * (p ** -3 - c) ** 2
    if (n, n_neg) == (1, 5):
        return _H(p ** -3 - c) * 2.5 * (p ** -3 - c) ** 2
    if (n, n_neg) == (2, 5):
        return (_H(p ** -2 - c) * 2.5 * p ** 2 * (p ** -2 - c) ** 2
                - _H(p ** -3 - c) * 5 * p ** 2 * (p ** -3 - c) ** 2)
    if (n, n_neg) == (3, 5):
        return _H(2 * p ** -3 - c) * (
            2.5 * c ** 2
            - _H(c - p ** -3) * 5 * p ** 2 * (c - p ** -3) ** 2
            + _H(c - p ** -2) * 5 * p ** 3 * (c - p ** -2) ** 2)
    if (n, n_neg) == (4, 5):
        return _H(c - p ** -3) * (
            _H(p ** -2 + p ** -4 - c) * 2.5 * p ** 3 * (p ** -2 + p ** -4 - c) ** 2
            - _H(2 * p ** -3 - c) * 5 * p ** 3 * (2 * p ** -3 - c) ** 2
            + _H(p ** -2 - c) * 5 * p ** 2 * (p ** -2 - c) ** 2)
    if (n, n_neg) == (5, 5):
        return _H(c - p ** -3) * (
            _H(2 * p ** -2 - c) * 0.5 * (p + 1 / p) * (2 * p ** -2 - c) ** 2
            - _H(p ** -2 + p ** -4 - c) * 2.5 * p ** 3 * (p ** -2 + p ** -4 - c) ** 2
            + _H(2 * p ** -3 - c) * 2.5 * p ** 3 * (2 * p ** -3 - c) ** 2)
    if (n, n_neg) == (3, 4):
        return _H(p ** -1 - c) * (
            2.5 * p ** -3 * c ** 2
            - _H(c - p ** -2) * 5 * p * (c - p ** -2) ** 2
            + _H(c - 2 * p ** -3) * 2.5 * p ** 3 * (c - 2 * p ** -3) ** 2)
    if (n, n_neg) == (4, 4):
        return _H(p ** -1 - c) * (
            _H(c - p ** -2) * 5 * (c - p ** -2) ** 2
            - _H(c - 2 * p ** -3) * 5 * p ** 3 * (c - 2 * p ** -3) ** 2
            + _H(c - p ** -2 - p ** -4) * 5 * p ** 3 * (c - p ** -2 - p ** -4) ** 2)
    if (n, n_neg) == (3, 3):
        return (5 * p ** -4 * (1 - c) ** 2
                - _H(p ** -1 - c) * 5 * p ** -1 * (p ** -1 - c) ** 2
                + _H(p ** -2 - c) * 5 * p ** -1 * (p ** -2 - c) ** 2)
    if (n, n_neg) == (2, 3):
        return (5 * p ** -3 * (1 - c) ** 2
                - _H(p ** -2 - c) * 2.5 * p ** -1 * (p ** -2 - c) ** 2)
    if (n, n_neg) == (2, 2):
        return 10 * c * (1 - c) / p
    if (n, n_neg) == (1, 2):
        return 2.5 * (1 - c) ** 2 / p
    return None  # not one of the twelve transcribed functions


_A3_TWELVE = ((0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (5, 5),
              (3, 4), (4, 4), (3, 3), (2, 3), (2, 2), (1, 2))
_A3_MIRRORED = tuple((b, a) for (a, b) in _A3_TWELVE if a != b)

#: allowed vertex types per index (positive frequency for some c in [0, 1))
CENSUS = {
    1: {(5, 0), (4, 0), (3, 0)},
    2: {(5, 0), (5, 1), (5, 2), (4, 0), (4, 1), (3, 2), (3, 1), (3, 0), (2, 1)},
    3: set(_A3_TWELVE) | set(_A3_MIRRORED),
    4: {(0, 5), (1, 5), (2, 5), (0, 4), (1, 4), (2, 3), (1, 3), (0, 3), (1, 2)},
    5: {(0, 5), (0, 4), (0, 3)},
}


def analytic_A(index: int, n_pos: int, n_neg: int, c: float) -> float:
    """Frequency function A_I[n, n']; the probability of the type is A / (5 p).

    Types outside the census return 0.  The I = 5 column comes from I = 1 by
    c -> 1 - c, I = 4 from I = 2 with the edge counts swapped, and the eight
    untranscribed I = 3 functions from their mirrors, all per the same rule.
    """
    if not 1 <= index <= 5:
        raise ValueError(f"index must be in [1, 5], got {index}")
    if not 0.0 <= c < 1.0:
        raise ValueError(f"c must lie in [0, 1), got {c}")
    if not (0 <= n_pos <= 5 and 0 <= n_neg <= 5):
        raise ValueError(f"edge counts must be in [0, 5], got ({n_pos}, {n_neg})")
    if index == 1:
        return _A1(n_pos, n_neg, c)
    if index == 5:
        return _A1(n_neg, n_pos, 1.0 - c)
    if index == 2:
        return _A2(n_pos, n_neg, c)
    if index == 4:
        return _A2(n_neg, n_pos, 1.0 - c)
    direct = _A3_direct(n_pos, n_neg, c)
    if direct is not None:
        return direct
    mirrored = _A3_direct(n_neg, n_pos, 1.0 - c)
    return mirrored if mirrored is not None else 0.0


def analytic_probability(index: int, n_pos: int, n_neg: int, c: float) -> float:
    return analytic_A(index, n_pos, n_neg, c) / (5.0 * _P)


def census_support(c: float, tol: float = 1e-12) -> list[VertexType]:
    """All vertex types with positive analytic frequency at this c, sorted."""
    out = []
    for index in range(1, 6):
        for (n, n_neg) in sorted(CENSUS[index]):
            if analytic_A(index, n, n_neg, c) > tol:
                out.append(VertexType(index, n, n_neg))
    return out


# ---------------------------------------------------------------------------
# empirical statistics
# ---------------------------------------------------------------------------

class FrequencyRow(NamedTuple):
    index: int
    n_pos: int
    n_neg: int
    analytic: float
    empirical: float
    count: int


@dataclass(frozen=True)
class FrequencyReport:
    c: float
    rows: tuple
    n_vertices: int

    @property
    def analytic_total(self) -> float:
        return sum(r.analytic for r in self.rows)


#: a bound, per unit of radius, on how far t + w_m lies from the scan's own
#: test point of k + e_m.  `scan_2d` forms each coordinate with about ten
#: roundings of terms below ~5 radius, so the two differ by at most ~1.2e-14
#: radius, and by ~1e-15 more in n . t - o; measured, 7.1e-16 radius at most
#: (radius 10 to 160, three shifts)
_POINT_DRIFT = 2e-14

#: label steps from the box edge within which a vertex's type is not counted
VERTEX_MARGIN = 2

#: the type code 6 n + n' of each neighbour mask
_TYPE_OF_MASK = np.array([6 * bin(m & 31).count("1") + bin(m >> 5).count("1")
                          for m in range(1024)], dtype=np.intp)


def empirical_frequencies(radius: int, shift: GridShift,
                          wset: WindowSet) -> FrequencyReport:
    """Classify every boundary-complete vertex in the label box and tally types.

    Vertices within VERTEX_MARGIN label steps of the box edge are discarded
    so no neighborhood is truncated.  Each chunk of `scan_2d` is classified
    as it comes: the type of a vertex is read off its test point by
    `neighbor_masks`, so nothing is kept per vertex and the working set
    does not grow with the radius.

    Raises ConfigError if eps is not above _POINT_DRIFT (radius + 1), where
    the masks could differ from the scan's decisions.  The scan raises
    SingularityError after its last chunk, so a singular label is named
    before any result or CensusViolationError, though the chunks before its
    own have been classified.  Raises CensusViolationError, naming the
    first vertex in label order, if a classified type falls outside the
    analytic support at this c.
    """
    drift = _POINT_DRIFT * (radius + 1)
    if not wset.eps > drift:
        raise ConfigError(
            f"eps {wset.eps:g} is not above {drift:.2g}, the float error of the test "
            f"points at radius {radius}, so vertex types cannot be read off them; "
            f"use a larger tolerance")
    support = [(vt.index, vt.n_pos, vt.n_neg) for vt in census_support(shift.c)]
    # type [n, n']_I as the code 36 I + 6 n + n'
    allowed = np.zeros((6, 36), dtype=bool)
    allowed.flat[[36 * i + 6 * n + nn for i, n, nn in support]] = True
    counts = np.zeros((6, 36), dtype=np.int64)
    outside = []  # (key, code) of the first vertex of a piece outside the support
    for pieces in scan_2d(radius, shift, wset):
        for piece in pieces:
            inner = piece.status == 1
            inner &= piece.extent <= radius - VERTEX_MARGIN
            masks = neighbor_masks(piece.points[:, inner], piece.index, wset)
            code = _TYPE_OF_MASK[masks]
            found = np.bincount(code, minlength=36)
            counts[piece.index] += found
            if found[~allowed[piece.index]].any():
                bad = np.argmax(~allowed[piece.index][code])
                key = piece.keys[np.flatnonzero(inner)[bad]]
                outside.append((int(key), 36 * piece.index + int(code[bad])))
        # free this chunk before the scan makes the next
        del pieces, piece, inner, masks, code
    total = int(counts.sum())
    if total == 0:
        raise ConfigError("label box too small: no boundary-complete vertices")
    if outside:
        i, n, nn = map(int, np.unravel_index(min(outside)[1], (6, 6, 6)))
        if (n, nn) not in CENSUS[i]:
            raise CensusViolationError(
                f"observed type [{n},{nn}]_{i} is outside the census")
        raise CensusViolationError(
            f"observed type [{n},{nn}]_{i} has zero analytic frequency at c={shift.c}")

    rows = []
    for (i, n, nn) in support:
        cnt = int(counts[i, 6 * n + nn])
        rows.append(FrequencyRow(i, n, nn,
                                 analytic=analytic_probability(i, n, nn, shift.c),
                                 empirical=cnt / total, count=cnt))
    return FrequencyReport(c=shift.c, rows=tuple(rows), n_vertices=total)
