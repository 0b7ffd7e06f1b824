from itertools import islice

import numpy as np
import pytest
from scipy.spatial import cKDTree

import quasiproj as qp
from quasiproj import geometry, lattice3d, locate, scan2d
from quasiproj.errors import ConfigError, DegenerateWindowError, PolygonError
from quasiproj.lattice3d import (MAX_CELLS_RADIUS, build_cells, overlap_census,
                                 scan_tip_columns)
from quasiproj.scan import (MAX_KEY_RADIUS, STENCIL_GRID, RowStencils, label_columns,
                            label_extent, label_index, label_keys)
from quasiproj.scan2d import (MAX_TILING_RADIUS, ScanPiece, enumerate_accepted_2d,
                              slice_window)
from quasiproj.window import (CUBE_VERTICES, FACE_LOOPS, HULL_INDICES,
                              INTERIOR_INDICES, normalize_shift, random_shift)

import helpers
from helpers import (accept_2d_bulk, accept_3d_bulk, benchmark_gamma, classify, d_test_points,
                     enumerate_accepted_3d, fan_triangles, label_rows,
                     lambda_box_candidates_2d, lambda_box_candidates_3d, mesh_margin_2d,
                     mesh_margin_3d, mesh_solution_2d, moved_shift, neighbor_counts,
                     neighbor_masks, numpy_draw, points_in_convex_polygon, polygon_area,
                     step_rows)

P_GOLD = qp.PHI


# -- shifts ------------------------------------------------------------------

def test_normalize_shift_examples():
    s = normalize_shift([0, 0, 0, 0, 0])
    assert s.c == 0.0 and np.allclose(s.gamma, 0)

    s = normalize_shift([0.3, 0.3, 0.3, 0.3, 0.3])
    assert s.c == pytest.approx(0.5, abs=1e-12)
    assert s.gamma[0] == pytest.approx(-0.7, abs=1e-12)
    assert np.allclose(s.gamma[1:], 0.3)

    s = normalize_shift([0.2, 0.2, 0, 0, 0])
    assert s.c == pytest.approx(0.4, abs=1e-12)
    assert np.allclose(s.gamma, [0.2, 0.2, 0, 0, 0])

    # c is the fsum, correctly rounded: an exact sum of 0 is c = 0 in any order
    for g in ([-0.4, 0.1, 0.1, 0.1, 0.1], [0.1, -0.4, 0.1, 0.1, 0.1], [0.1] * 4 + [-0.4]):
        s = normalize_shift(g)
        assert s.c == 0.0 and s.gamma.tolist() == g


def test_normalize_shift_relabels_pattern(basis, windows_for):
    # normalization shifts gamma_0 by an integer n, which relabels k_0 -> k_0 + n;
    # the accepted pattern is unchanged up to that relabeling.  The LP oracle
    # handles the raw (un-normalized) shift directly.
    raw = np.array([1.7, 0.4, 0.1, 0.3, 0.2])
    s = normalize_shift(raw)
    n = int(np.floor(raw.sum()))
    assert s.c == pytest.approx(raw.sum() - n, abs=1e-12)
    ws = windows_for(s.c)

    class RawShift:
        gamma = raw
        c = s.c

    rng = np.random.default_rng(3)
    for _ in range(40):
        k = rng.integers(-3, 4, 5)
        k_raw = k.copy()
        k_raw[0] += n
        m_norm = mesh_margin_2d(k, s, basis)
        m_raw = mesh_margin_2d(k_raw, RawShift(), basis)
        assert m_norm == pytest.approx(m_raw, abs=1e-9)
        if abs(m_norm) > 1e-7:
            status = accept_2d_bulk(k, s, ws, basis)[0]
            assert (status == 1) == (m_norm > 0)


def test_random_shift_sum_pinned():
    for seed in range(5):
        s = random_shift(0.37, seed)
        assert s.c == pytest.approx(0.37, abs=1e-12)
        assert s.gamma.sum() == pytest.approx(0.37, abs=1e-12)


def test_random_shift_draws_numpy_s_draw():
    # the CI pins use auto gamma, so the pure-Python draw must be numpy's
    # bit for bit: the seeds a run starts from, the redraw seeds of
    # io.shift_draws, and seeds of two to seven 32-bit words
    seeds = [*range(3000),
             *(seed + 1009 * attempt for seed in (0, 7, 8, 2999) for attempt in range(20)),
             2 ** 32, 2 ** 40, 2 ** 63, 2 ** 64 + 5, 2 ** 128 + 3, 2 ** 200 - 1]
    for seed in seeds:
        drawn = random_shift(0.5, seed).gamma[1:]
        assert drawn.tobytes() == numpy_draw(seed).tobytes(), seed
    with pytest.raises(ValueError):
        random_shift(0.5, -1)


# -- cube vertex table -------------------------------------------------------

def test_cube_vertex_table():
    assert CUBE_VERTICES.shape == (32, 5)
    assert len({tuple(r) for r in CUBE_VERTICES}) == 32
    assert set(np.unique(CUBE_VERTICES)) == {0, 1}
    sums = CUBE_VERTICES.sum(axis=1)
    assert sums[0] == 0
    assert all(sums[1:6] == 1)
    assert all(sums[6:16] == 2)
    assert all(sums[16:26] == 3)
    assert all(sums[26:31] == 4)
    assert sums[31] == 5


# -- polytope ----------------------------------------------------------------

def test_polytope_combinatorics(P):
    assert len(P.vertices) == 22
    assert len(P.edges) == 40
    assert len(P.face_loops) == 20
    assert 22 - 40 + 20 == 2
    assert np.allclose(P.projections[0], [0, 0, 0], atol=1e-12)
    assert np.allclose(P.projections[31], [0, 0, 5], atol=1e-12)


def test_polytope_closed_forms(P, basis):
    d = basis.D
    for j in range(5):
        assert np.allclose(P.projections[j + 1], [*d[j], 1], atol=1e-9)
        assert np.allclose(P.projections[j + 6], [*(d[j] + d[(j + 1) % 5]), 2], atol=1e-9)
        assert np.allclose(P.projections[j + 21],
                           [*(-d[(j - 2) % 5] - d[(j - 1) % 5]), 3], atol=1e-9)
        assert np.allclose(P.projections[j + 26], [*(-d[(j - 1) % 5]), 4], atol=1e-9)
        # interior ring
        assert np.allclose(P.projections[11 + j], [*(d[j] + d[(j + 2) % 5]), 2], atol=1e-9)
        assert np.allclose(P.projections[16 + j],
                           [*(-d[(j + 1) % 5] - d[(j - 1) % 5]), 3], atol=1e-9)


def test_polytope_interior_points_strictly_inside(P):
    for i in INTERIOR_INDICES:
        signed = P.face_normals @ P.projections[i] - P.face_offsets
        assert signed.max() < -1e-6, f"P_{i} not strictly inside"


def test_polytope_faces_are_unit_rhombi(P):
    for loop in P.face_loops:
        assert len(loop) == 4
        pts = P.vertices[list(loop)]
        edges = np.roll(pts, -1, axis=0) - pts
        lengths = np.linalg.norm(edges, axis=1)
        assert np.allclose(lengths, np.sqrt(2.0), atol=1e-9)  # |w_j| = sqrt(2)
        assert np.allclose(edges[0], -edges[2], atol=1e-9)
        assert np.allclose(edges[1], -edges[3], atol=1e-9)


def test_polytope_hull_vertex_set(P):
    assert set(P.hull_cube_indices.tolist()) == set(HULL_INDICES)


def test_face_loops_match_qhull(P):
    from scipy.spatial import ConvexHull
    hull = ConvexHull(P.projections)
    assert set(hull.vertices.tolist()) == set(HULL_INDICES)
    for normal, offset in zip(P.face_normals, P.face_offsets):
        # Qhull rows are (outward normal, -offset), one per triangle
        err = np.abs(hull.equations - np.append(normal, -offset)).max(axis=1)
        assert err.min() < 1e-12
    # each face is spanned by one generator pair (w_i, w_j): its cube edges
    # are the unit steps e_i and e_j; each pair spans two faces
    pairs = []
    for loop in FACE_LOOPS:
        steps = CUBE_VERTICES[list(loop[1:] + loop[:1])] - CUBE_VERTICES[list(loop)]
        assert np.all(np.abs(steps).sum(axis=1) == 1)
        pairs.append(tuple(np.flatnonzero(np.any(steps != 0, axis=0)).tolist()))
    assert all(len(p) == 2 for p in pairs)
    assert sorted(pairs) == sorted([(i, j) for i in range(5) for j in range(i + 1, 5)] * 2)


# -- decagon -----------------------------------------------------------------

def test_decagon_closed_forms(Q, basis):
    d = basis.D
    proj = Q.projections
    assert np.allclose(proj[0], 0, atol=1e-12)
    assert np.allclose(proj[31], 0, atol=1e-12)
    for j in range(5):
        assert np.allclose(proj[11 + j], -P_GOLD * d[(3 - 2 * j) % 5], atol=1e-9)
        assert np.allclose(proj[16 + j], P_GOLD * d[(5 - 2 * j) % 5], atol=1e-9)
        assert np.allclose(proj[j + 1], d[(5 - 2 * j) % 5], atol=1e-9)
        assert np.allclose(proj[26 + j], -d[(2 - 2 * j) % 5], atol=1e-9)
        assert np.allclose(proj[j + 6], d[(4 - 2 * j) % 5] / P_GOLD, atol=1e-9)
        assert np.allclose(proj[21 + j], -d[(3 - 2 * j) % 5] / P_GOLD, atol=1e-9)


def test_decagon_radii(Q):
    assert len(Q.window.polygon) == 10
    assert np.allclose(np.linalg.norm(Q.window.polygon, axis=1), P_GOLD, atol=1e-9)
    radii = np.sort(np.linalg.norm(Q.interior_points, axis=1))
    assert len(radii) == 22
    assert np.allclose(radii[:2], 0.0, atol=1e-9)
    assert np.allclose(radii[2:12], 1.0 / P_GOLD, atol=1e-9)
    assert np.allclose(radii[12:], 1.0, atol=1e-9)


def test_inner_decagon(Q):
    assert len(Q.inner.polygon) == 10
    assert np.allclose(np.linalg.norm(Q.inner.polygon, axis=1), 1 / P_GOLD, atol=1e-9)
    # the ten fan triangles tile the inner decagon
    triangles = fan_triangles(Q.inner.polygon)
    tri_area = sum(polygon_area(t) for t in triangles)
    assert tri_area == pytest.approx(polygon_area(Q.inner.polygon), abs=1e-9)
    for t in triangles:
        assert polygon_area(t) > 0  # CCW and nondegenerate


# -- slice windows -----------------------------------------------------------

def test_slice_shapes_generic_c(P):
    ws = qp.build_windows(P, 0.5)
    assert [len(ws.slices[i].polygon) for i in range(1, 6)] == [5, 10, 10, 10, 5]
    assert 5 in ws.slices


def test_slice_shapes_c_zero(P, basis):
    ws = qp.build_windows(P, 0.0)
    assert sorted(ws.slices) == [1, 2, 3, 4]
    assert all(len(ws.slices[i].polygon) == 5 for i in ws.slices)
    assert 5 not in ws.slices
    # V_1 at c=0 is the pentagon spanned by the five plane generators
    v1 = ws.slices[1].polygon
    expect = basis.D[np.argsort(np.arctan2(basis.D[:, 1], basis.D[:, 0]))]
    assert np.allclose(v1, expect, atol=1e-9)
    with pytest.raises(DegenerateWindowError):
        slice_window(P, 5, 0.0)


def test_slice_window_errors(P):
    with pytest.raises(ValueError):
        slice_window(P, 0, 0.5)
    with pytest.raises(ValueError):
        slice_window(P, 6, 0.5)
    with pytest.raises(ValueError):
        slice_window(P, 3, 1.5)


@pytest.mark.parametrize("c", [0.0, 1e-12, P_GOLD ** -3, P_GOLD ** -2, 2 * P_GOLD ** -3,
                               P_GOLD ** -2 + P_GOLD ** -4, 1 / P_GOLD, 0.5, 0.999,
                               P_GOLD ** -2 - 1e-9, P_GOLD ** -2 + 1e-9, 2e-9,
                               1 - 1e-9])
def test_slice_window_is_the_face_loop_it_replaced(c, P):
    # each polygon, with its normals and offsets, is bit for bit the one the
    # face-by-face loop found, and what the loop refused is refused alike: at
    # c = 0 and 1e-12 V_5 is a tip, and at 1 - 1e-9 V_1 is one and V_4 has
    # vertices closer than CONSTRUCTION_TOL
    for index in range(1, 6):
        expected = helpers.slice_window_loop(P, index, c)
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as err:
                slice_window(P, index, c)
            assert str(err.value) == str(expected)
            continue
        got = slice_window(P, index, c)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_slice_windows_nest_in_shadow(P, Q):
    # the xy shadow of the polytope is the circumradius-p decagon
    for c in (0.0, 0.25, 0.5, 0.8):
        ws = qp.build_windows(P, c)
        for w in ws.slices.values():
            status = points_in_convex_polygon(w.polygon.T, Q.window.normals,
                                              Q.window.offsets, 1e-9)
            assert np.all(status != 0)


def test_slice_area_central_symmetry(P):
    # central symmetry of the polytope: V_I at c mirrors V_{6-I} at 1-c
    for c in (0.1, 0.25, 0.4, 0.6, 0.85):
        ws = qp.build_windows(P, c)
        wsm = qp.build_windows(P, 1.0 - c)
        for i in range(1, 6):
            assert ws.slices[i].area == pytest.approx(wsm.slices[6 - i].area, abs=1e-9)


# -- acceptance --------------------------------------------------------------

def test_accept_2d_trivial_rejects(basis, windows_for):
    shift = random_shift(0.5, 1)
    ws = windows_for(0.5)
    assert accept_2d_bulk([0, 0, 0, 0, 0], shift, ws, basis)[0] == 0
    assert accept_2d_bulk([2, 0, 0, 0, 0], shift, ws, basis)[0] == 0


def test_accept_2d_against_lp_oracle(basis, windows_for):
    shift = normalize_shift([0.1] * 5)
    ws = windows_for(shift.c)
    status = accept_2d_bulk([1, 0, 0, 0, 0], shift, ws, basis)[0]
    m = mesh_margin_2d([1, 0, 0, 0, 0], shift, basis)
    assert (status == 1) == (m > 0)

    rng = np.random.default_rng(4)
    accepted, verts, keys = enumerate_accepted_2d(3, shift, ws)
    pool = [rng.integers(-3, 4, 5) for _ in range(200)]
    pool += [accepted[i] for i in rng.choice(len(accepted), 25, replace=False)]
    statuses = accept_2d_bulk(np.array(pool), shift, ws, basis)
    checked_accepts = 0
    for k, status in zip(pool, statuses):
        margin = mesh_margin_2d(k, shift, basis)
        if abs(margin) < 1e-7:
            continue  # boundary cases are Singular territory
        assert (status == 1) == (margin > 0), (k, margin)
        if status == 1:
            checked_accepts += 1
            # the enumerator holds the label, with its index and tiling vertex
            row = label_rows(keys, label_keys(k, 3))
            assert row >= 0 and accepted[row].sum() == k.sum()
            assert np.allclose(verts[row], k.astype(float) @ basis.D)
    assert checked_accepts >= 25


def test_accepted_labels_recover_unit_cube_lambda(basis, windows_for):
    # mesh condition: the recovered lambda lies strictly inside the unit cube
    shift = random_shift(0.5, 5)
    ws = windows_for(0.5)
    labels, _, _ = enumerate_accepted_2d(4, shift, ws)
    rng = np.random.default_rng(6)
    for i in rng.choice(len(labels), size=25, replace=False):
        _, lam = mesh_solution_2d(labels[i], shift, basis)
        assert np.all(lam > 0) and np.all(lam < 1)


def test_accept_2d_singular_at_exact_zero_shift(basis, windows_for):
    # gamma = 0 puts the test point of e_0 exactly on a window vertex
    shift = normalize_shift([0.0] * 5)
    ws = windows_for(0.0)
    assert accept_2d_bulk([1, 0, 0, 0, 0], shift, ws, basis)[0] == -1


def test_accept_3d_examples(Q, basis):
    shift = normalize_shift([0.13, 0.07, 0.11, 0.05, 0.09])
    assert accept_3d_bulk([0, 0, 0, 0, 0], shift)[0] == 1
    _, points, keys, _ = enumerate_accepted_3d(1, shift, Q, basis)
    assert np.allclose(points[label_rows(keys, label_keys(np.zeros(5), 1))], [0, 0, 0])
    # the test point is tiny compared to the decagon inradius
    t = d_test_points(np.zeros((1, 5)), shift)[0]
    assert np.linalg.norm(t) < P_GOLD * np.cos(np.pi / 10)

    assert accept_3d_bulk([3, 0, 0, 0, 0], shift)[0] == 0
    t3 = d_test_points(np.array([[3, 0, 0, 0, 0]]), shift)[0]
    assert np.linalg.norm(t3) > P_GOLD


def test_accept_3d_translation_invariance(Q, basis):
    shift = random_shift(0.45, 9)
    ones = np.ones(5, dtype=np.int64)
    rng = np.random.default_rng(10)
    ks = np.array([rng.integers(-6, 7, 5) for _ in range(60)])
    status = accept_3d_bulk(ks, shift)
    assert np.array_equal(accept_3d_bulk(ks + ones, shift), status)
    # the lattice points of accepted labels, read off the enumerator
    _, points, keys, _ = enumerate_accepted_3d(7, shift, Q, basis)
    r1 = label_rows(keys, label_keys(ks[status == 1], 7))
    r2 = label_rows(keys, label_keys(ks[status == 1] + ones, 7))
    assert np.all(r1 >= 0) and np.all(r2 >= 0)
    assert np.allclose(points[r2] - points[r1], [0, 0, 5], atol=1e-9)


def test_accept_3d_against_lp_oracle(basis):
    shift = random_shift(0.3, 12)
    rng = np.random.default_rng(13)
    for _ in range(150):
        k = rng.integers(-3, 4, 5)
        margin = mesh_margin_3d(k, shift, basis)
        if abs(margin) < 1e-7:
            continue
        status = accept_3d_bulk(k, shift)[0]
        assert (status == 1) == (margin > 0), (k, margin)


# -- enumeration -------------------------------------------------------------

def test_chain_relations(basis):
    d, w = basis.D, basis.W
    pinv = 1 / P_GOLD
    for j in range(5):
        assert np.allclose(d[(j - 1) % 5] + d[(j + 1) % 5], pinv * d[j], atol=1e-12)
    assert np.allclose(w[3], w[0] + pinv * w[1] - pinv * w[2], atol=1e-12)
    assert np.allclose(w[4], -pinv * w[0] + pinv * w[1] + w[2], atol=1e-12)


def test_enumerate_2d_matches_naive(basis, windows_for):
    from itertools import product
    shift = random_shift(0.5, 7)
    ws = windows_for(0.5)
    M = 3
    box = np.array(list(product(range(-M, M + 1), repeat=5)))
    box = box[(box.sum(axis=1) >= 1) & (box.sum(axis=1) <= 5)]
    naive = {tuple(k) for k in box[accept_2d_bulk(box, shift, ws, basis) == 1].tolist()}
    chain, verts, _ = enumerate_accepted_2d(M, shift, ws)
    assert {tuple(r) for r in chain} == naive
    assert np.allclose(verts, chain.astype(float) @ basis.D)
    # sorted lexicographically
    assert np.array_equal(chain, chain[np.lexsort(chain.T[::-1])])


def _turns(normals, start):
    """The multiple k of 36 degrees, 0 <= k < 10, nearest each normal's angle
    less `start` degrees, and the largest distance of a normal from its
    direction (cos, sin)(start + 36 k)."""
    angle = np.degrees(np.arctan2(normals[:, 1], normals[:, 0])) - start
    k = np.rint(angle / 36).astype(int) % 10
    theta = np.radians(start + 36 * k)
    return k, np.abs(normals - np.column_stack([np.cos(theta), np.sin(theta)])).max()


def test_the_windows_edge_directions():
    # every slice window's edges are normal to the ten directions at 36 k
    # degrees, each at most once, which the 2-d scan's direction tables
    # read; the decagons' are at 18 + 36 k degrees, which theirs read
    for c in np.concatenate([[0.0], np.linspace(0.01, 0.99, 99)]):
        for window in qp.build_windows(qp.POLYTOPE, c).slices.values():
            k, off = _turns(window.normals, 0)
            assert off <= 1e-12 and len(set(k.tolist())) == len(k)
    for window in (qp.DECAGON.window, qp.DECAGON.inner):
        k, off = _turns(window.normals, 18)
        assert off <= 1e-12 and sorted(k.tolist()) == list(range(10))


def test_a_window_mismatch_names_plain_numbers(windows_for):
    # normalize_shift sums gamma in numpy, but the shift keeps c as a float
    shift = normalize_shift([0.25, 0.25, 0.0, 0.0, 0.0])
    assert type(shift.c) is float
    with pytest.raises(ValueError, match=r"^the windows are built for c = 0\.2, "
                                         r"the shift has c = 0\.5$"):
        next(qp.scan2d.scan_2d(8, shift, windows_for(0.2)))


def test_windows_built_at_a_numpy_c_name_plain_numbers():
    # build_windows keeps c and eps as plain floats, as GridShift keeps c
    ws = qp.build_windows(qp.POLYTOPE, np.float64(0.3), np.float64(1e-9))
    assert type(ws.c) is float and type(ws.eps) is float
    with pytest.raises(ValueError, match=r"^the windows are built for c = 0\.3, "
                                         r"the shift has c = 0\.5$"):
        next(qp.scan2d.scan_2d(8, random_shift(0.5, 1), ws))


@pytest.mark.parametrize("c", [0.0, 0.5])
def test_scan_2d_pieces_describe_their_labels(c, basis, windows_for, monkeypatch):
    # 37 rows per chunk, so the 25^2 rows of R = 12 span 17 chunks
    monkeypatch.setattr(qp.scan, "SCAN_ROWS", 37)
    R, ws = 12, windows_for(c)
    shift = random_shift(c, 3)
    # the oracle: the accepted labels of the whole box, on multiplied-out points
    cand = lambda_box_candidates_2d(R, shift)
    cand = cand[accept_2d_bulk(cand, shift, ws, basis) == 1]
    found = {index: [] for index in range(1, 6)}
    chunks, below = 0, -1
    for piece in qp.scan2d.scan_2d(R, shift, ws):
        chunks += 1
        # every key of a chunk, over all five indices, is below every key of
        # the next, which lets the scan stop at its first singular chunk
        assert len(piece.keys) and piece.keys.min() > below
        below = piece.keys.max()
        labels = np.column_stack(label_columns(piece.keys, R))
        assert np.array_equal(label_keys(labels, R), piece.keys)
        assert np.array_equal(label_extent(labels), piece.extent)
        assert np.all(label_index(labels) == piece.index)
        # every label a piece holds is accepted by its own window
        assert np.all(accept_2d_bulk(labels, shift, ws, basis) == 1)
        for index in range(1, 6):
            found[index].append(piece.keys[piece.index == index])
        # every mask is the mask of the edge tests, at the multiplied-out points
        t = ((labels - shift.gamma) @ basis.W[:, :2]).T
        for index in range(1, 6):
            mine = piece.index == index
            assert np.array_equal(piece.masks[mine], neighbor_masks(t[:, mine], index, ws))
    assert chunks == 17
    assert (c == 0) == (5 not in ws.slices)
    for index in range(1, 6):
        # each index's keys, over all chunks, are the box's accepted keys
        expected = np.unique(label_keys(cand[label_index(cand) == index], R))
        assert np.array_equal(np.sort(np.concatenate(found[index])), expected)
    # the c = 0 index-5 window is a point, which accepts nothing
    assert (len(np.concatenate(found[5])) == 0) == (c == 0)


def test_scan_2d_stops_at_its_first_singular_chunk(P, monkeypatch):
    # at tol 1e-3 and 37 rows per chunk, this draw's first singular label is
    # in the eighth of twelve chunks, and the four after it are never scanned
    shift, R = random_shift(0.5, 28), 10
    ws = qp.build_windows(P, 0.5, 1e-3)
    with pytest.raises(qp.errors.SingularityError) as whole:
        enumerate_accepted_2d(R, shift, ws)
    monkeypatch.setattr(qp.scan, "SCAN_ROWS", 37)
    calls = []
    scan_chunks = qp.scan2d._scan_chunks
    monkeypatch.setattr(qp.scan2d, "_scan_chunks",
                        lambda n_rows, scan_rows, *args: scan_chunks(
                            n_rows, lambda rows: calls.append(1) or scan_rows(rows), *args))
    with pytest.raises(qp.errors.SingularityError) as chunked:
        enumerate_accepted_2d(R, shift, ws)
    assert str(chunked.value) == str(whole.value)
    k0, k1 = map(int, str(whole.value).removeprefix("label (").split(", ")[:2])
    first = ((k0 + R) * (2 * R + 1) + k1 + R) // 37
    assert first == 7
    # one scan per chunk, through the first singular chunk
    assert len(calls) == first + 1


def test_enumerate_3d_matches_naive(Q, basis):
    from itertools import product
    shift = random_shift(0.31, 8)
    M = 2
    box = np.array(list(product(range(-M, M + 1), repeat=5)))
    naive = {tuple(k) for k in box[accept_3d_bulk(box, shift) == 1].tolist()}
    chain, *_ = enumerate_accepted_3d(M, shift, Q, basis)
    assert {tuple(r) for r in chain} == naive


def _lex_sorted(labels):
    return labels[np.lexsort(labels.T[::-1])]


def test_enumerate_repeat_and_nested_box_deterministic(Q, basis, windows_for):
    # repeated runs agree exactly, and a bigger box restricted to a smaller
    # one gives the smaller box's labels in the same order
    shift = random_shift(0.5, 7)
    ws = windows_for(0.5)
    l1, v1, _ = enumerate_accepted_2d(6, shift, ws)
    l2, v2, _ = enumerate_accepted_2d(6, shift, ws)
    assert np.array_equal(l1, l2) and np.array_equal(v1, v2)
    big, _, _ = enumerate_accepted_2d(9, shift, ws)
    assert np.array_equal(big[np.abs(big).max(axis=1) <= 6], l1)

    m1, *_ = enumerate_accepted_3d(4, shift, Q, basis)
    m2, *_ = enumerate_accepted_3d(4, shift, Q, basis)
    assert np.array_equal(m1, m2)
    big, *_ = enumerate_accepted_3d(6, shift, Q, basis)
    assert np.array_equal(big[np.abs(big).max(axis=1) <= 4], m1)


# -- scan conversion against the lambda-box oracle ---------------------------

@pytest.mark.parametrize("c", [0.0, P_GOLD ** -3, P_GOLD ** -2, 0.5, 0.9])
def test_enumerate_matches_lambda_box_oracle(c, Q, basis, windows_for):
    ws = windows_for(c)
    for seed in (1, 2, 3):
        shift = random_shift(c, seed)
        for R in (3, 10):
            cand = lambda_box_candidates_2d(R, shift)
            status = accept_2d_bulk(cand, shift, ws, basis)
            assert not np.any(status == -1)
            labels, _, _ = enumerate_accepted_2d(R, shift, ws)
            assert np.array_equal(labels, _lex_sorted(cand[status == 1])), (seed, R)

            cand = lambda_box_candidates_3d(R, shift)
            status = accept_3d_bulk(cand, shift)
            assert not np.any(status == -1)
            labels, *_ = enumerate_accepted_3d(R, shift, Q, basis)
            assert np.array_equal(labels, _lex_sorted(cand[status == 1])), (seed, R)


def _record(monkeypatch, name, module):
    """Wrap module.<name> so every (points or candidates, status) it sees is kept."""
    tested = []
    original = getattr(module, name)

    def recorded(labels, *args, **kwargs):
        status = original(labels, *args, **kwargs)
        tested.append((np.atleast_2d(labels), status))
        return status

    monkeypatch.setattr(module, name, recorded)
    return tested


def test_enumeration_tests_at_most_twice_what_it_accepts(Q, basis, windows_for,
                                                          monkeypatch):
    # the 2-d scan looks up its candidates' test points in the direction
    # tables of the index windows, the c = 0 index-5 point window, which
    # accepts nothing, among them
    tested2, words = [], locate.words

    def recorded(loc, points, at):
        word = words(loc, points, at)
        tested2.append((points, word))
        return word
    monkeypatch.setattr(locate, "words", recorded)
    tested3 = _record(monkeypatch, "accept_3d_bulk", helpers)
    for c, seed in ((0.0, 1), (0.5, 7), (0.9, 2)):
        shift = random_shift(c, seed)
        tested2.clear()
        labels, _, _ = enumerate_accepted_2d(12, shift, windows_for(c))
        assert sum(len(s) for _, s in tested2) <= 2 * len(labels)
        tested3.clear()
        labels, *_ = enumerate_accepted_3d(8, shift, Q, basis)
        assert sum(len(t) for t, _ in tested3) <= 2 * len(labels)


def _assert_singular(enumerate_call, tested, k):
    with pytest.raises(qp.errors.SingularityError) as info:
        enumerate_call()
    cand = np.vstack([t for t, _ in tested])
    status = np.concatenate([s for _, s in tested])
    assert status[np.all(cand == k, axis=1)].tolist() == [-1]
    first = _lex_sorted(cand[status == -1])[0]
    assert f"label {tuple(first.tolist())} lands" in str(info.value)


def _box_2d(radius, shift, ws, basis):
    """Every label of index 1..5 in the box, in key order, with its status
    from the whole-box acceptance oracle."""
    n = 2 * radius + 1
    box = np.indices((n,) * 5).reshape(5, -1).T - radius
    box = box[(box.sum(axis=1) >= 1) & (box.sum(axis=1) <= 5)]
    return [(box, accept_2d_bulk(box, shift, ws, basis))]


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
def test_enumerate_2d_raises_just_outside_a_window_edge(eps, P, basis):
    # the label named is the first singular one of the whole box, for every
    # index
    ws = qp.build_windows(P, 0.5, eps)
    for index in range(1, 6):
        k = CUBE_VERTICES[[0, 1, 6, 16, 26, 31][index]]
        win = ws.slices[index]
        edge = index % len(win.polygon)
        mid = (win.polygon[edge] + win.polygon[(edge + 1) % len(win.polygon)]) / 2
        target = mid + 0.9 * eps * win.normals[edge]
        shift = moved_shift(random_shift(0.5, 11), basis.W[:, :2], k, target)
        box = _box_2d(5, shift, ws, basis)
        _assert_singular(lambda: enumerate_accepted_2d(5, shift, ws), box, k)


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
def test_enumerate_3d_raises_just_outside_a_decagon_edge(eps, Q, basis, monkeypatch):
    tested = _record(monkeypatch, "accept_3d_bulk", helpers)
    for edge in (0, 3, 7):
        k = np.array([1, -1, 2, 0, -2])
        mid = (Q.window.polygon[edge] + Q.window.polygon[(edge + 1) % 10]) / 2
        target = mid + 0.9 * eps * Q.window.normals[edge]
        shift = moved_shift(random_shift(0.3, 5), basis.D, k, target)
        tested.clear()
        _assert_singular(lambda: enumerate_accepted_3d(4, shift, Q, basis, eps),
                         tested, k)


def test_enumerate_2d_raises_at_the_c0_index5_point_window(P, basis):
    # at c = 0 the index-5 window is the single point 0; put the test point
    # of an index-5 label just off it, keeping the other labels generic.
    # Its singular band is the square within eps of 0 in the max norm, so
    # (0.9, 0.9) eps, 1.27 eps from 0, is in it too
    ws = qp.build_windows(P, 0.0)
    generic = qp.GridShift(gamma=basis.D @ np.array([0.31, -0.17]), c=0.0)
    k = np.array([3, -1, 2, 0, 1])
    for target in ([0.6e-9, -0.3e-9], [0.9e-9, 0.9e-9]):
        shift = moved_shift(generic, basis.W[:, :2], k, np.array(target))
        _assert_singular(lambda: enumerate_accepted_2d(4, shift, ws),
                         _box_2d(4, shift, ws, basis), k)


def _stencil_cases():
    """(windows, steps) of both scans: the five slice windows at four c, the
    c = 0 index-5 point window among them, over w2 - w4 and w3 - w4, and
    each decagon over d2 and d3."""
    w = qp.BASIS.W[:, :2]
    d = qp.BASIS.D
    for c in (0.0, 0.5, P_GOLD ** -2, 0.999999):
        ws = qp.build_windows(qp.POLYTOPE, c)
        yield ([ws.slices.get(i, scan2d.POINT_WINDOW) for i in range(1, 6)],
               np.column_stack([w[2] - w[4], w[3] - w[4]]))
    yield [qp.DECAGON.window, qp.DECAGON.inner], d[2:4].T


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
def test_row_stencils_name_every_label_within_reach_of_its_window(eps):
    # rows of seeded t0, rows whose f lies at each corner of each stencil
    # cell, where a cell's candidates are fewest, and rows whose label (0, 0)
    # lies just inside the widened window at each of its corners and edge
    # midpoints: every (u, v) of a bounding box whose test point
    # t0 + u a + v b is within reach of the window is a candidate of its row
    reach = eps + 1e-6
    rng = np.random.default_rng(5)
    g = np.arange(STENCIL_GRID) / STENCIL_GRID
    g = np.concatenate([g, g + (1 - 1e-9) / STENCIL_GRID])
    f = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    f += rng.integers(-9, 9, f.shape)
    for shapes, step in _stencil_cases():
        stencils = RowStencils.of(shapes, step, reach)
        for i, shape in enumerate(shapes):
            corners = np.vstack([shape.polygon, (shape.polygon + np.roll(
                shape.polygon, -1, axis=0)) / 2])
            near = [corners + 0.999 * reach * n for n in shape.normals]
            t0 = np.vstack([rng.uniform(-6, 6, (200, 2)), f @ step.T] + near)
            row, uv = stencils.candidates(stencils.inv @ t0.T, i)
            named = (row.astype(np.int64) << 24) + ((uv[0] + 2048) << 12) + uv[1] + 2048
            # the (u, v) box of the window, for every row
            span = (shape.polygon[:, None] - t0) @ stencils.inv.T
            lo = np.floor(span.min(axis=0)).astype(int) - 2
            size = (np.ceil(span.max(axis=0)).astype(int) + 2 - lo).max(axis=0) + 1
            box = np.indices(size).reshape(2, -1).T
            uv = lo[:, None] + box
            t = (t0[:, None] + uv @ step.T).reshape(-1, 2)
            hit = np.flatnonzero(points_in_convex_polygon(t.T, shape.normals, shape.offsets,
                                                          reach) != 0)
            r, (u, v) = hit // len(box), uv.reshape(-1, 2)[hit].T
            need = (r.astype(np.int64) << 24) + ((u + 2048) << 12) + v + 2048
            # (the rows put just inside the widened window need their (0, 0))
            first = 200 + len(f)
            assert np.isin((np.arange(first, len(t0)) << 24) + (2048 << 12) + 2048, need).all()
            missing = ~np.isin(need, named)
            assert not missing.any(), (i, r[missing][:5], u[missing][:5], v[missing][:5])
            # an s just below an integer has f = 1 in floats: its cell is the last
            edge = stencils.candidates(np.array([[-1e-20, 0.5], [0.5, -1e-20]]), i)
            last = stencils.candidates(np.array([[-1e-9, 0.5], [0.5, -1e-9]]), i)
            assert all(np.array_equal(x, y) for x, y in zip(edge, last))


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
def test_the_tip_scan_tests_every_column_within_reach_of_the_decagon(eps, Q, monkeypatch):
    # every column representative a (a4 = 0) of [-2R, 2R]^4 that meets the
    # box, whose test point is within reach of the decagon, is tested
    R, reach = 5, eps + 1e-6
    shift = random_shift(0.3, 4)
    tested, words = [], locate.words

    def recorded(loc, points, at):
        if loc.probes is lattice3d._TIP_PROBES:
            tested.append(np.array(points).T)
        return words(loc, points, at)

    monkeypatch.setattr(locate, "words", recorded)
    list(scan_tip_columns(R, shift, eps))
    tested = np.concatenate(tested)
    k = np.arange(-2 * R, 2 * R + 1)
    a = np.stack(np.meshgrid(k, k, k, k, indexing="ij"), axis=-1).reshape(-1, 4)
    a = np.column_stack([a, np.zeros(len(a), dtype=int)])
    a = a[np.ptp(a, axis=1) <= 2 * R]
    t = d_test_points(a, shift)
    t = t[points_in_convex_polygon(t.T, Q.window.normals, Q.window.offsets, reach) != 0]
    assert len(t) > 1000
    gap, _ = cKDTree(tested).query(t)
    assert gap.max() < 1e-9


# -- the key stream: enumerator order, merge membership, polygon reduction ----

@pytest.mark.parametrize("c", [0.0, P_GOLD ** -2, 0.5, 0.9])
def test_enumerators_return_strictly_increasing_keys(c, Q, basis, windows_for):
    for R in (2, 5, 9):
        shift = random_shift(c, R)
        labels, _, keys = enumerate_accepted_2d(R, shift, windows_for(c))
        assert np.all(np.diff(keys) > 0)
        assert np.array_equal(keys, label_keys(labels, R))

        labels, _, keys, test_points = enumerate_accepted_3d(R, shift, Q, basis)
        assert np.all(np.diff(keys) > 0)
        assert np.array_equal(keys, label_keys(labels, R))
        assert np.array_equal(test_points, d_test_points(labels, shift))


def test_label_rows_match_a_set_of_the_keys(windows_for):
    unit = np.eye(5, dtype=np.int64)
    left_box = 0
    for c in (0.0, 0.5):
        for R in (3, 6):
            labels, _, keys = enumerate_accepted_2d(R, random_shift(c, 4),
                                                    windows_for(c))
            assert np.any(np.abs(labels).max(axis=1) == R)  # box-edge labels
            members = set(keys.tolist())
            for sign in (1, -1):
                steps = step_rows(labels, keys, R, sign)
                for m in range(5):
                    # -1 where the step leaves the box
                    query = label_keys(labels + sign * unit[m], R)
                    left_box += np.sum(query == -1)
                    member = np.array([q in members for q in query.tolist()])
                    rows = label_rows(keys, query)
                    assert np.array_equal(rows >= 0, member)
                    assert np.array_equal(keys[rows[member]], query[member])
                    assert np.array_equal(steps[:, m] >= 0, member)
    assert left_box > 0
    empty = np.empty(0, dtype=np.int64)
    assert np.all(label_rows(empty, keys) == -1)
    assert label_rows(empty, keys).shape == keys.shape
    assert label_rows(keys, empty).shape == (0,)
    assert label_rows(empty, empty).shape == (0,)


def test_neighbor_counts_needs_labels_in_key_order(windows_for):
    # the oracle's lookups rely on it
    labels, _, keys = enumerate_accepted_2d(6, random_shift(0.5, 4), windows_for(0.5))
    inner = labels[np.abs(labels).max(axis=1) <= 5]
    for bad in (inner[::-1], np.concatenate([inner[:1], inner])):
        with pytest.raises(ValueError, match="distinct and in key order"):
            neighbor_counts(bad, keys, 6)


@pytest.mark.parametrize("R", [1, 80, MAX_KEY_RADIUS])
def test_label_columns_inverts_label_keys(R):
    rng = np.random.default_rng(R)
    corners = R * (2 * CUBE_VERTICES - 1)
    for labels in (rng.integers(-R, R + 1, size=(1000, 5)), corners,
                   np.empty((0, 5), dtype=np.int64)):
        keys = label_keys(labels, R)
        assert np.array_equal(np.column_stack(label_columns(keys, R)), labels)
        assert np.array_equal(label_keys(np.column_stack(label_columns(keys, R)), R),
                              keys)
    keys = np.sort(rng.integers(0, (2 * R + 1) ** 5, size=1000))
    assert np.array_equal(label_keys(np.column_stack(label_columns(keys, R)), R), keys)
    assert all(c.dtype == np.int64 for c in label_columns(keys, R))


@pytest.mark.parametrize("c", [0.2, 0.5])
def test_the_scans_run_past_the_memory_budget_to_max_key_radius(c, basis, windows_for,
                                                               monkeypatch):
    # the scans hold one chunk, so only what holds labels, the 2-d
    # enumerator and the cells, refuses a box by the memory budget
    shift, ws = random_shift(c, 0), windows_for(c)
    with pytest.raises(ConfigError, match="radius 622 is above"):
        enumerate_accepted_2d(622, shift, ws)
    with pytest.raises(ConfigError, match="radius 58 is above"):
        build_cells(58, shift, 1e-9)
    # the first chunks of both scans at a refused radius and at the int64 edge
    # of the keys; at MAX_KEY_RADIUS the first non-empty 2-d chunk is the
    # second, and the first non-empty 3-d chunk the fourth.  The 2-d scan's
    # test points are those it looks up in its direction tables
    looked_up, words = [], locate.words

    def recorded(loc, points, at):
        looked_up.append(points.T.copy())
        return words(loc, points, at)
    monkeypatch.setattr(locate, "words", recorded)
    for R in (622, MAX_KEY_RADIUS):
        drift = 2e-14 * (R + 1)
        n = 0
        for piece in islice(qp.scan2d.scan_2d(R, shift, ws), 4):
            labels = np.column_stack(label_columns(piece.keys, R))
            assert np.all(label_extent(labels) <= R)
            assert np.array_equal(label_keys(labels, R), piece.keys)
            assert np.array_equal(label_extent(labels), piece.extent)
            assert np.all(label_index(labels) == piece.index)
            # each label's multiplied-out test point is within the drift of one
            # the scan looked up
            t = (labels - shift.gamma) @ basis.W[:, :2]
            if len(t):
                assert cKDTree(np.concatenate(looked_up)).query(t, p=np.inf)[0].max() <= drift
            looked_up.clear()
            n += len(labels)
        assert n > 0
    for R in (58, MAX_KEY_RADIUS):
        drift = 2e-14 * (R + 1)
        n = 0
        for points, keys, spread, _ in islice(scan_tip_columns(R, shift), 4):
            # each tip column's first member in the box, whose least
            # component is -R
            labels = np.column_stack(label_columns(keys, R))
            assert np.all(label_extent(labels) <= R)
            assert np.array_equal(label_keys(labels, R), keys)
            assert np.all(labels.min(axis=1) == -R)
            assert np.array_equal(labels.max(axis=1) + R, spread)
            t = (labels - shift.gamma) @ basis.D
            assert np.allclose(points.T, t, rtol=0, atol=drift)
            n += len(labels)
        assert n > 0


def test_the_tiling_vertices_are_refused_above_max_tiling_radius(monkeypatch, windows_for):
    # the guard reads only the radius, so the scan is stubbed, and neither side
    # of the limit allocates even if the guard is wrong
    shift, ws = random_shift(0.5, 0), windows_for(0.5)
    empty = ScanPiece(np.empty(0, np.int8), np.empty(0, np.int64), np.empty(0, np.int64),
                      np.empty(0, np.uint16))
    monkeypatch.setattr(scan2d, "scan_2d", lambda *args: iter([empty]))
    with pytest.raises(ConfigError, match=f"radius {MAX_TILING_RADIUS + 1} is above "
                       f"{MAX_TILING_RADIUS}, .* the 4 GB memory budget"):
        enumerate_accepted_2d(MAX_TILING_RADIUS + 1, shift, ws)
    labels, points, keys = enumerate_accepted_2d(MAX_TILING_RADIUS, shift, ws)
    assert labels.shape == (0, 5) and points.shape == (0, 2) and keys.shape == (0,)


def test_the_cells_are_refused_above_max_cells_radius(monkeypatch):
    # as for the tiling vertices, with the tip columns stubbed as one empty chunk
    shift = random_shift(0.4, 0)
    chunk = (np.empty((2, 0)), np.empty(0, np.int64), np.empty(0, np.int64), 0, 0)
    monkeypatch.setattr(lattice3d, "_complete_columns", lambda *args: iter([chunk]))
    with pytest.raises(ConfigError, match=f"radius {MAX_CELLS_RADIUS + 1} is above "
                       f"{MAX_CELLS_RADIUS}, .* the 4 GB memory budget"):
        build_cells(MAX_CELLS_RADIUS + 1, shift, 1e-9)
    (hull, interior), n_points, n_tips = build_cells(MAX_CELLS_RADIUS, shift, 1e-9)
    assert hull.shape == (0, 22, 5) and interior.shape == (0, 4, 5)
    assert n_points == n_tips == 0


def _edge_distances_at_once(probes, points, at):
    """The kernel's distances summed as it sums them, elementwise, over one
    (E, P, n) array, with no take into a buffer."""
    nx, ny, offsets = probes.edges
    window = probes.window[:, at]
    along = nx[:, window] * points[0] + ny[:, window] * points[1] - offsets[:, window]
    return (along + probes.steps[:, :, at]).max(axis=0)


def test_edge_distances_are_bitwise_equal_across_chunks(Q, P):
    # the 3-d probe sets, of one family, and the 2-d probes, a family per
    # point as the 2-d scan reads them, here around and past 8192 and 16384
    # points, as x and y rows in both memory orders, a first chunk of the
    # points alone and the 2-d points of each family alone: the distances of
    # a point do not depend on the points it is decided with
    rng = np.random.default_rng(5)
    two_d = scan2d.index_probes(qp.build_windows(P, 0.5))
    for n in (1, 8191, 8193, 16385):
        pts = rng.uniform(-2.0, 2.0, size=(n, 2))
        head = n // 3 + 1
        at = rng.integers(0, 5, n)
        for probes, family in [(lattice3d._TIP_PROBES, 0 * at), (lattice3d._ATOM_PROBES, 0 * at),
                               (lattice3d._NEIGHBOR_PROBES, 0 * at), (two_d, at)]:
            want = _edge_distances_at_once(probes, pts.T, family)
            for layout in (pts.T, np.ascontiguousarray(pts.T)):
                assert np.array_equal(geometry.edge_distances(probes, layout, family), want), n
            assert np.array_equal(geometry.edge_distances(probes, pts[:head].T, family[:head]),
                                  want[:, :head])
        for family in range(5):
            mine = at == family
            assert np.array_equal(geometry.edge_distances(two_d, pts[mine].T, at[mine]),
                                  want[:, mine])


def test_label_axis_chains_equal_the_axis_reductions():
    rng = np.random.default_rng(3)
    for shape in ((0, 5), (1, 5), (1000, 5), (4, 7, 5)):
        labels = rng.integers(-3000, 3001, size=shape)
        assert np.array_equal(label_index(labels), labels.sum(axis=-1))
        assert np.array_equal(label_extent(labels), np.abs(labels).max(axis=-1, initial=0))


def test_polygon_reduction_bitwise_equal_on_benchmark_inputs(P, monkeypatch):
    # every point set the kernel sees in `qc freq --c 0.5 --radius 80` and
    # `qc overlap-census --c 0.2 --radius 20` at the benchmark's seed 0: its
    # distances, summed with takes into buffers, equal a reduction over one
    # (E, P, n) array
    seen = []
    kernel = locate.edge_distances

    def recorded(probes, points, at):
        d = kernel(probes, points, at)
        seen.append((probes, points.copy(), np.copy(at), d))
        return d
    monkeypatch.setattr(locate, "edge_distances", recorded)
    shift = normalize_shift(benchmark_gamma(0.5, 0))
    qp.empirical_frequencies(80, shift, qp.build_windows(P, shift.c))
    shift = normalize_shift(benchmark_gamma(0.2, 0))
    overlap_census(20, shift)
    # the 2,581 labels the 2-d scan's direction tables leave unsure; the
    # decagons' tables decide every one of the census's 25,774 tip-scan
    # columns and of its tips' neighbours, so none of them reaches the kernel
    tested = {}
    for probes, points, at, d in seen:
        tested[len(probes.window)] = tested.get(len(probes.window), 0) + points.shape[1]
        assert np.array_equal(d, _edge_distances_at_once(probes, points, at))
    assert tested == {11: 2581}
