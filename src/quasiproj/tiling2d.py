"""Vertex typing and frequency statistics of generalized Penrose tilings.

An accepted vertex of index I has n "positive" edges toward index I+1
neighbors and n' "negative" edges toward index I-1 neighbors; the pair
[n, n']_I is its vertex type.  The analytic frequency of a type is
A_I[n, n'] / (5 p), with the A functions piecewise quadratic in the grid
shift sum c.  The full census holds 3 + 9 + 20 + 9 + 3 types.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CensusViolationError, ConfigError
from .geometry import PHI
from .scan2d import WindowSet, scan_2d
from .window import GridShift

_P = PHI


class VertexType(NamedTuple):
    index: int
    n_pos: int
    n_neg: int


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


class FrequencyReport(NamedTuple):
    c: float
    rows: tuple
    n_vertices: int

    @property
    def analytic_total(self) -> float:
        return sum(r.analytic for r in self.rows)


#: label steps from the box edge within which a vertex's type is not counted
VERTEX_MARGIN = 2

#: the number of set bits of each 5-bit number
_POP5 = np.array([bin(m).count("1") for m in range(32)], dtype=np.intp)

#: the type code 36 I + 6 n + n' of each index I and neighbour mask m, at
#: (I << 10) + m, where m = 32 (k - e_m bits) + (k + e_m bits)
_TYPE_CODE = (36 * np.arange(6)[:, None] + np.add.outer(_POP5, 6 * _POP5).ravel()).ravel()


def empirical_frequencies(radius: int, shift: GridShift,
                          wset: WindowSet) -> FrequencyReport:
    """Classify every boundary-complete vertex in the label box and tally types.

    Vertices within VERTEX_MARGIN label steps of the box edge are discarded
    so no neighborhood is truncated.  Each chunk of `scan_2d` is tallied as
    it comes: the type [n, n']_I of a vertex is the two popcounts of the
    neighbour mask the scan gives it, bit m set when k + e_m is a vertex and
    bit 5 + m when k - e_m is one.  So the working set hardly grows with
    the radius.

    The masks are exact (`locate`): for a boundary-complete vertex of a
    regular scan each bit is the scan's own decision.  Its neighbours lie
    in the box, and the scan has put each one's test point more than eps
    inside or outside its window, or raised.  t +- w_m lies within the
    float error of the scan's points from that point, which
    `scan._POINT_DRIFT` bounds and `scan_2d` keeps below eps, refusing any
    eps not above it (`check_eps`), so every sign against the window's
    edges is the scan's.

    The scan raises ConfigError, by `check_eps`, if eps is too small for
    that, and SingularityError at its first singular chunk, so a singular
    label is named before any result or CensusViolationError, though the
    chunks before its own have been classified.  Raises
    CensusViolationError, naming the first vertex in label order, if a
    classified type falls outside the analytic support at this c.
    """
    support = [(vt.index, vt.n_pos, vt.n_neg) for vt in census_support(shift.c)]
    # type [n, n']_I as the code 36 I + 6 n + n'; code 216 is not counted
    allowed = np.zeros(217, dtype=bool)
    allowed[[36 * i + 6 * n + nn for i, n, nn in support] + [216]] = True
    counts = np.zeros(216, dtype=np.int64)
    outside = []  # (key, code) of the first vertex of a chunk outside the support
    for piece in scan_2d(radius, shift, wset):
        code = piece.index << 10
        code += piece.masks
        code = _TYPE_CODE.take(code)
        code[piece.extent > radius - VERTEX_MARGIN] = 216
        found = np.bincount(code, minlength=217)[:216]
        counts += found
        if found[~allowed[:216]].any():
            bad = np.flatnonzero(~allowed[code])
            first = bad[np.argmin(piece.keys[bad])]
            outside.append((int(piece.keys[first]), int(code[first])))
        # free this chunk before the scan makes the next
        del piece, code
    counts = counts.reshape(6, 36)
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
