"""Numeric kernel: golden-ratio constants, projection bases, convex windows, edge_distances.

Everything downstream projects the 5-d integer lattice through the two
matrices of BASIS, built once here: D (5x2) maps to the tiling plane, W
(5x3) to the orthogonal space that carries the acceptance windows.  All
arithmetic is double precision with a single absolute tolerance ``eps`` for
boundary decisions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import PolygonError

#: golden ratio p = (sqrt(5)+1)/2, satisfying p**2 = p + 1
PHI = (np.sqrt(5.0) + 1.0) / 2.0

#: fivefold rotation angle 2*pi/5
THETA = 2.0 * np.pi / 5.0

#: default absolute tolerance for boundary / singularity decisions
DEFAULT_EPS = 1e-9


class ProjectionBasis(NamedTuple):
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


#: the one projection of the paper, which every construction reads
BASIS = make_basis()


class ConvexWindow(NamedTuple):
    """A CCW convex polygon and its outward unit edge normals and offsets.

    A point x is strictly inside iff normals @ x < offsets componentwise.
    Every window decision reads these edges through one locator,
    `locate.locate`, on `EdgeProbes` built from them.
    """

    polygon: np.ndarray  # (n, 2) CCW
    normals: np.ndarray  # (m, 2)
    offsets: np.ndarray  # (m,)

    @classmethod
    def of(cls, polygon) -> "ConvexWindow":
        """The window of a CCW convex polygon, with its half-planes computed once."""
        poly = np.array(polygon, dtype=float)
        if poly.ndim != 2 or poly.shape[0] < 3 or poly.shape[1] != 2:
            raise PolygonError(f"need at least 3 plane vertices, got shape {poly.shape}")
        edges = np.roll(poly, -1, axis=0) - poly
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        if np.any(lengths <= 0):
            raise PolygonError("degenerate polygon edge of zero length")
        # rotate each CCW edge by -90 degrees to point outward
        normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
        offsets = np.einsum("ij,ij->i", normals, poly)
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


def stack_edges(windows) -> np.ndarray:
    """The x and y of the outward normals, and the offsets, of the windows'
    edges, (3, E, W): each window's edges are padded to the E of the most
    by repeats, which moves no largest edge distance."""
    pad = np.arange(max(len(window.offsets) for window in windows))
    return np.stack([np.column_stack([window.normals, window.offsets]).take(
        pad % len(window.offsets), axis=0).T for window in windows], axis=2)


class EdgeProbes(NamedTuple):
    """Probe p of family f tests t + v against windows[window[p, f]], v its
    move, over that window's edges (n, o): so its step terms n . v are
    stacked once."""

    edges: np.ndarray   # (3, E, W) the windows' edges, `stack_edges`
    window: np.ndarray  # (P, F) the window of each probe of each family
    steps: np.ndarray   # (E, P, F) n . v over the edges of that window

    @classmethod
    def of(cls, windows, window, moves) -> "EdgeProbes":
        """The probes of moves (P, F, 2), window broadcast to (P, F)."""
        edges = stack_edges(windows)
        moves = np.asarray(moves, dtype=float)
        window = np.broadcast_to(window, moves.shape[:2]).astype(np.intp)
        nx, ny = edges[0].take(window, axis=1), edges[1].take(window, axis=1)
        return cls(edges, window, nx * moves[..., 0] + ny * moves[..., 1])


def edge_distances(probes: EdgeProbes, points: np.ndarray, at: np.ndarray) -> np.ndarray:
    """max_e (n_e . t - o_e) + n_e . v_p, the largest edge distance of each
    probe p of each test point t (x and y rows, (2, n)) of family at[i], as
    (P, n): below 0, t + v_p is strictly inside the probe's window.  Every
    caller reads it through `locate.locate`, which applies the thresholds.
    It is summed elementwise in one order, over one (E, P, n) array, so a
    point's distances do not depend on the points decided with it.
    """
    nx, ny, offsets = probes.edges
    window = probes.window.take(at, axis=1)
    d = nx.take(window, axis=1) * points[0]
    y = ny.take(window, axis=1)
    y *= points[1]
    d += y
    # (a take into out= buffers a copy unless its mode is "clip" or "wrap")
    d -= offsets.take(window, axis=1, out=y, mode="clip")
    d += probes.steps.take(at, axis=2, out=y, mode="clip")
    return d.max(axis=0)
