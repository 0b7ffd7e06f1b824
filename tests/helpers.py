"""Independent oracles used by the tests.

The mesh-condition oracles solve the defining linear feasibility problem
directly (does some point r and some lambda in the open unit 5-cube satisfy
grid-projection + gamma + lambda = k?) with an LP, bypassing the window
construction entirely.
"""

import numpy as np
from scipy.optimize import linprog


def mesh_margin_2d(k, shift, basis) -> float:
    """Max margin t such that t <= lambda_j <= 1 - t with lambda = k - gamma - D r.

    Positive: k satisfies the 2-d mesh condition strictly.  Negative: it
    does not.  Near zero: boundary case.
    """
    rhs = np.asarray(k, dtype=float) - shift.gamma
    A = np.vstack([np.column_stack([basis.D, np.ones(5)]),
                   np.column_stack([-basis.D, np.ones(5)])])
    b = np.concatenate([rhs, 1.0 - rhs])
    res = linprog([0.0, 0.0, -1.0], A_ub=A, b_ub=b,
                  bounds=[(None, None)] * 3, method="highs")
    assert res.success, res.message
    return float(res.x[2])


def mesh_margin_3d(k, shift, basis) -> float:
    """3-d analog of mesh_margin_2d, over space points and the plane grids."""
    rhs = np.asarray(k, dtype=float) - shift.gamma
    A = np.vstack([np.column_stack([basis.W, np.ones(5)]),
                   np.column_stack([-basis.W, np.ones(5)])])
    b = np.concatenate([rhs, 1.0 - rhs])
    res = linprog([0.0, 0.0, 0.0, -1.0], A_ub=A, b_ub=b,
                  bounds=[(None, None)] * 4, method="highs")
    assert res.success, res.message
    return float(res.x[3])


def mesh_solution_2d(k, shift, basis):
    """The maximizing (r, lambda) pair for the 2-d mesh condition LP."""
    rhs = np.asarray(k, dtype=float) - shift.gamma
    A = np.vstack([np.column_stack([basis.D, np.ones(5)]),
                   np.column_stack([-basis.D, np.ones(5)])])
    b = np.concatenate([rhs, 1.0 - rhs])
    res = linprog([0.0, 0.0, -1.0], A_ub=A, b_ub=b,
                  bounds=[(None, None)] * 3, method="highs")
    assert res.success, res.message
    r = res.x[:2]
    lam = rhs - basis.D @ r
    return r, lam


def polygon_area(poly) -> float:
    p = np.asarray(poly, dtype=float)
    q = np.roll(p, -1, axis=0)
    return 0.5 * float(np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))


def interior_atoms_sweep(tips, lat, P, eps=1e-9):
    """Brute-force interior atoms: sweep the four lattice layers above each tip.

    A lattice point is an interior atom when its 3-d point lies strictly
    inside the polytope translated to the tip.  Returns one (4, 5) label
    array per tip, in label order; no lookup tables are involved.
    """
    z = lat.labels.sum(axis=1)
    layers = {int(v): np.flatnonzero(z == v) for v in np.unique(z)}
    tip_rows = {tuple(int(x) for x in row): i for i, row in enumerate(lat.labels)}
    out = []
    for tip in tips:
        tip_point = lat.points[tip_rows[tuple(int(x) for x in tip)]]
        found = []
        for dz in range(1, 5):
            rows = layers.get(int(tip.sum()) + dz, np.empty(0, dtype=np.int64))
            rel = lat.points[rows] - tip_point
            inside = np.max(rel @ P.face_normals.T - P.face_offsets, axis=1) < -eps
            found.extend(rows[inside].tolist())
        out.append(lat.labels[sorted(found)])
    return out


def overlap_signature_loop(tip, tip_set, table):
    """(neighbors, K, J) of one tip by probing every table offset in a Python set."""
    neighbors = k_shares = j_shares = 0
    for m in table.offsets:
        other = tuple(int(a) + b for a, b in zip(tip, m))
        shape = table.shapes[m]
        if other in tip_set and shape.overlapping:
            neighbors += 1
            k_shares += shape.faces == 12
            j_shares += shape.faces == 6
    return neighbors, k_shares, j_shares
