"""Numeric kernel: golden-ratio constants, projection bases, convex predicates.

Everything downstream projects the 5-d integer lattice through the two
matrices built here: D (5x2) maps to the tiling plane, W (5x3) to the
orthogonal space that carries the acceptance windows.  All arithmetic is
double precision with a single absolute tolerance ``eps`` for boundary
decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PolygonError

#: golden ratio p = (sqrt(5)+1)/2, satisfying p**2 = p + 1
PHI = (np.sqrt(5.0) + 1.0) / 2.0

#: fivefold rotation angle 2*pi/5
THETA = 2.0 * np.pi / 5.0

#: default absolute tolerance for boundary / singularity decisions
DEFAULT_EPS = 1e-9


@dataclass(frozen=True)
class ProjectionBasis:
    """Row generators of the tiling plane and its 3-d orthogonal space.

    Row j of ``D`` is d_j = (cos j*theta, sin j*theta); row j of ``W`` is
    w_j = (cos 2j*theta, sin 2j*theta, 1) = (d_{2j}, 1).  The two column
    spaces are orthogonal: D^T W = 0.
    """

    D: np.ndarray  # (5, 2)
    W: np.ndarray  # (5, 3)


def make_basis() -> ProjectionBasis:
    """Build the standard fivefold projection basis."""
    j = np.arange(5)
    D = np.column_stack([np.cos(j * THETA), np.sin(j * THETA)])
    W = np.column_stack([np.cos(2 * j * THETA), np.sin(2 * j * THETA), np.ones(5)])
    D.setflags(write=False)
    W.setflags(write=False)
    return ProjectionBasis(D=D, W=W)


def polygon_halfplanes(polygon: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals and offsets of a CCW convex polygon.

    A point x is strictly inside iff normals @ x < offsets componentwise.
    """
    poly = np.asarray(polygon, dtype=float)
    if poly.ndim != 2 or poly.shape[0] < 3 or poly.shape[1] != 2:
        raise PolygonError(f"need at least 3 plane vertices, got shape {poly.shape}")
    edges = np.roll(poly, -1, axis=0) - poly
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    if np.any(lengths <= 0):
        raise PolygonError("degenerate polygon edge of zero length")
    # rotate each CCW edge by -90 degrees to point outward
    normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
    offsets = np.einsum("ij,ij->i", normals, poly)
    return normals, offsets


@dataclass(frozen=True)
class ConvexWindow:
    """A CCW convex polygon and its outward unit edge normals and offsets.

    A point x is strictly inside iff normals @ x < offsets componentwise.
    Every acceptance decision tests points against one of these.
    """

    polygon: np.ndarray  # (n, 2) CCW
    normals: np.ndarray  # (m, 2)
    offsets: np.ndarray  # (m,)

    @classmethod
    def of(cls, polygon) -> "ConvexWindow":
        """The window of a CCW convex polygon, with its half-planes computed once."""
        poly = np.array(polygon, dtype=float)
        normals, offsets = polygon_halfplanes(poly)
        for arr in (poly, normals, offsets):
            arr.setflags(write=False)
        return cls(poly, normals, offsets)

    @property
    def area(self) -> float:
        p, q = self.polygon, np.roll(self.polygon, -1, axis=0)
        return 0.5 * float(np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))

    @property
    def half_width(self) -> float:
        """Distance from the origin, the centre of every window here, to the nearest edge."""
        return float(self.offsets.min())

    def classify(self, pts: np.ndarray, eps: float) -> np.ndarray:
        """+1 inside, 0 outside, -1 within eps of the boundary, per point."""
        return points_in_convex_polygon(pts, self.normals, self.offsets, eps)


#: points per product in max_edge_distance.  It bounds the (edges, points)
#: temporary to 640 kB at 10 edges, which stays in cache and runs faster than
#: one product over every point.
PREDICATE_CHUNK = 8192


def max_edge_distance(pts: np.ndarray, normals: np.ndarray,
                      offsets: np.ndarray) -> np.ndarray:
    """Largest signed distance of each point past an edge line; < 0 strictly inside."""
    n = len(pts)
    out = np.empty(n)
    start = 0
    while start < n:
        # a last chunk of one point would go through gemv, which differs
        # from the gemm of wider chunks in the last bit, so it joins the one
        # before it
        stop = n if n - start <= PREDICATE_CHUNK + 1 else start + PREDICATE_CHUNK
        # as (edges, points), so that the max runs elementwise across a few long rows
        d = normals @ pts[start:stop].T
        d -= offsets[:, None]
        d.max(axis=0, out=out[start:stop])
        start = stop
    return out


def points_in_convex_polygon(pts: np.ndarray, normals: np.ndarray,
                             offsets: np.ndarray, eps: float) -> np.ndarray:
    """Vectorized classification: +1 inside, 0 outside, -1 boundary-within-eps."""
    d_max = max_edge_distance(pts, normals, offsets)
    status = np.zeros(len(pts), dtype=np.int8)
    status[d_max < -eps] = 1
    status[np.abs(d_max) <= eps] = -1
    return status
