import numpy as np
import pytest

import quasiproj as qp
from quasiproj.errors import SingularityError
from quasiproj.pentagrid import (enumerate_intersections, grid_values_2d,
                                 k_vector_2d, k_vector_3d, mesh_locator,
                                 tiling_from_pentagrid)
from quasiproj.window import normalize_shift, random_shift


class _RawShift:
    """Un-normalized grid offsets; the K functions accept any gamma."""

    def __init__(self, gamma):
        self.gamma = np.asarray(gamma, dtype=float)
        self.c = float(self.gamma.sum())


def test_k_vector_2d_examples(basis):
    assert np.array_equal(k_vector_2d([0, 0], _RawShift([0.5] * 5), basis),
                          [1, 1, 1, 1, 1])
    assert np.array_equal(k_vector_2d([0, 0], _RawShift([-0.5] * 5), basis),
                          [0, 0, 0, 0, 0])


def test_k_vector_2d_matches_direct_evaluation(basis):
    shift = normalize_shift([0.1, 0.2, 0.3, 0.25, 0.15])
    r = np.array([10.3, 4.7])
    expect = np.ceil(basis.D @ r + shift.gamma).astype(int)
    assert np.array_equal(k_vector_2d(r, shift, basis), expect)

    rng = np.random.default_rng(0)
    for _ in range(50):
        r = rng.uniform(-20, 20, 2)
        expect = np.ceil(basis.D @ r + shift.gamma).astype(int)
        assert np.array_equal(k_vector_2d(r, shift, basis), expect)


def test_k_vector_3d(basis):
    assert np.array_equal(k_vector_3d([0, 0, 0], _RawShift([0.5] * 5), basis),
                          [1, 1, 1, 1, 1])
    shift = random_shift(0.4, 2)
    # on the z axis every family sees the same planes: K_j = ceil(z + gamma_j)
    for z in (-2.7, 0.4, 3.1):
        expect = np.ceil(z + shift.gamma).astype(int)
        assert np.array_equal(k_vector_3d([0, 0, z], shift, basis), expect)
    rng = np.random.default_rng(1)
    for _ in range(50):
        R = rng.uniform(-10, 10, 3)
        expect = np.ceil(basis.W @ R + shift.gamma).astype(int)
        assert np.array_equal(k_vector_3d(R, shift, basis), expect)


def test_k_vector_singular(basis):
    shift = normalize_shift([0.0] * 5)
    with pytest.raises(SingularityError):
        k_vector_2d([0.0, 0.0], shift, basis)  # all five lines pass through 0


def test_k_vector_piecewise_constant(basis):
    shift = random_shift(0.35, 3)
    rng = np.random.default_rng(4)
    hits = 0
    for _ in range(100):
        r = rng.uniform(-5, 5, 2)
        vals = grid_values_2d(r, shift, basis)[0]
        dist = np.min(np.abs(vals - np.round(vals)))
        if dist < 0.05:
            continue  # too close to a line to probe safely
        k0 = k_vector_2d(r, shift, basis)
        for _ in range(5):
            probe = r + rng.uniform(-1, 1, 2) * dist * 0.5
            assert np.array_equal(k_vector_2d(probe, shift, basis), k0)
        hits += 1
    assert hits > 50


def test_families_always_intersect(basis):
    # no two grid families are parallel
    for s in range(5):
        for t in range(s + 1, 5):
            cross = basis.D[s, 0] * basis.D[t, 1] - basis.D[s, 1] * basis.D[t, 0]
            assert abs(cross) > 0.5


def test_enumerate_intersections_residuals(basis):
    # c = sum(j/10) = 1.0 normalizes to 0 by relabeling family 0
    shift = normalize_shift([j / 10 for j in range(5)])
    assert shift.c == pytest.approx(0.0, abs=1e-12)
    points, families, line_labels = enumerate_intersections((-4, 4, -4, 4), shift, basis)
    assert len(points) > 100
    keys = np.column_stack([families, line_labels])
    assert len(np.unique(keys, axis=0)) == len(keys), "duplicate intersection"
    rows = np.arange(len(points))[:, None]
    residuals = np.abs(grid_values_2d(points, shift, basis)[rows, families] - line_labels)
    assert residuals.max() < 1e-9

    pair01 = np.all(keys == [0, 1, 0, 0], axis=1)
    assert pair01.sum() == 1


def test_intersection_count_scales_quadratically(basis):
    shift = random_shift(0.45, 5)
    counts = []
    for L in (4.0, 8.0, 16.0):
        points, _, _ = enumerate_intersections((-L, L, -L, L), shift, basis)
        counts.append(len(points))
    # density*area + O(L) boundary terms: successive ratios approach 4
    r1 = counts[1] / counts[0]
    r2 = counts[2] / counts[1]
    assert abs(r2 - 4.0) < 0.4
    assert abs(r2 - 4.0) < abs(r1 - 4.0) + 0.2


def test_singular_pentagrid_detected(basis):
    with pytest.raises(SingularityError,
                       match=r"line \(family [2-4], label -?\d+\) passes through the "
                             r"intersection of \(family 0, label -?\d+\) and "
                             r"\(family 1, label -?\d+\) at r=\(-?\d"):
        enumerate_intersections((-2, 2, -2, 2), normalize_shift([0.0] * 5), basis)


#: sign pattern of (d_s, d_t) walking once around an intersection
_PROBE_SIGNS = [(-1, -1), (1, -1), (1, 1), (-1, 1)]


def _assert_corners_are_probed_meshes(box, shift, basis):
    """Check each rhombus corner against k_vector_2d just beside its intersection.

    The probe steps delta = 0.45 min(third-line distance, 1e-4) along
    +-d_s +-d_t, so it lands in one of the four meshes and crosses no third
    line.  Beside a near-singular crossing the probe sits closer than the
    default eps to a crossing line, so the labels are read with a tighter eps.
    Returns each intersection's distance to its nearest third line.
    """
    points, families, _ = enumerate_intersections(box, shift, basis)
    tiling = tiling_from_pentagrid(box, shift, basis)
    assert np.array_equal(tiling.families, families)
    vals = grid_values_2d(points, shift, basis)
    third = np.abs(vals - np.round(vals))
    third[np.arange(len(points))[:, None], families] = np.inf
    third = third.min(axis=1)
    delta = 0.45 * np.minimum(third, 1e-4)
    for i, (r, (s, t)) in enumerate(zip(points, families)):
        probed = [k_vector_2d(r + delta[i] * (a * basis.D[s] + b * basis.D[t]),
                              shift, basis, eps=1e-13)
                  for a, b in _PROBE_SIGNS]
        assert np.array_equal(probed, tiling.labels[tiling.rhombi[i]]), (s, t, r)
    return third


@pytest.mark.parametrize("c,seed", [(0.0, 11), (qp.PHI ** -2, 7), (0.5, 3)])
def test_rhombus_corners_are_the_meshes_beside_each_intersection(basis, c, seed):
    third = _assert_corners_are_probed_meshes((-6, 6, -6, 6), random_shift(c, seed), basis)
    assert len(third) > 1000


def test_tiling_inside_a_third_line_band_of_ten_eps(basis):
    # family 2's line k = 0 passes 5e-9 from the crossing of families 0 and 1
    # at the origin: farther than eps, nearer than 10 eps
    shift = qp.GridShift(gamma=[0, 0, 5e-9, 0.3, 0.45], c=0.75 + 5e-9)
    third = _assert_corners_are_probed_meshes((-4, 4, -4, 4), shift, basis)
    assert np.any((third > qp.DEFAULT_EPS) & (third <= 10 * qp.DEFAULT_EPS))


def test_tiling_from_pentagrid_rhombi(basis):
    shift = random_shift(0.3, 6)
    tiling = tiling_from_pentagrid((-3, 3, -3, 3), shift, basis)
    rng = np.random.default_rng(7)
    for i in rng.choice(len(tiling.rhombi), 40, replace=False):
        labels = tiling.labels[tiling.rhombi[i]]
        verts = tiling.vertices[tiling.rhombi[i]]
        s, t = tiling.families[i]
        # the four mesh labels differ only in coordinates s and t, by one unit
        spread = labels.max(axis=0) - labels.min(axis=0)
        expect = np.zeros(5, dtype=int)
        expect[[s, t]] = 1
        assert np.array_equal(spread, expect)
        # unit rhombus with edges along the two step directions
        edges = np.roll(verts, -1, axis=0) - verts
        for e in edges:
            assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-9)
            along_s = abs(abs(e @ basis.D[s]) - 1) < 1e-9
            along_t = abs(abs(e @ basis.D[t]) - 1) < 1e-9
            assert along_s or along_t
        # thin or fat: the edge directions meet at 72 or 144 degrees
        dot = abs(basis.D[s] @ basis.D[t])
        assert (abs(dot - abs(np.cos(qp.THETA))) < 1e-9
                or abs(dot - abs(np.cos(2 * qp.THETA))) < 1e-9)


def test_tiling_from_pentagrid_indices(basis):
    shift = random_shift(0.5, 7)
    tiling = tiling_from_pentagrid((-6, 6, -6, 6), shift, basis)
    sums = tiling.labels.sum(axis=1)
    assert sums.min() >= 1 and sums.max() <= 5
    assert 5 in set(sums.tolist())
    # vertices are the plane projections of the labels
    assert np.allclose(tiling.vertices, tiling.labels.astype(float) @ basis.D)
    # rhombi reference valid vertex rows
    assert tiling.rhombi.min() >= 0
    assert tiling.rhombi.max() < len(tiling.labels)


def test_tiling_c_zero_has_no_index_5(basis):
    shift = random_shift(0.0, 11)
    tiling = tiling_from_pentagrid((-6, 6, -6, 6), shift, basis)
    sums = tiling.labels.sum(axis=1)
    assert sums.min() >= 1 and sums.max() <= 4


@pytest.mark.parametrize("c,seed", [(0.5, 7), (0.25, 8), (0.0, 9)])
def test_cross_oracle_equivalence_small(P, basis, windows_for, c, seed):
    # pentagrid labels == window-accepted labels after boundary trimming
    shift = random_shift(c, seed)
    ws = windows_for(c)
    R = 6.0
    tiling = tiling_from_pentagrid((-R, R, -R, R), shift, basis)
    box = int(np.ceil(R)) + 9
    wl, _, _ = qp.enumerate_accepted_2d(box, shift, ws, basis)

    trim = R - 3.0
    pk = np.linalg.norm(mesh_locator(tiling.labels, shift, basis), axis=1)
    wk = np.linalg.norm(mesh_locator(wl, shift, basis), axis=1)
    pset = {tuple(r) for r in tiling.labels[pk <= trim]}
    wset = {tuple(r) for r in wl[wk <= trim]}
    assert pset == wset
    assert len(pset) > 50
