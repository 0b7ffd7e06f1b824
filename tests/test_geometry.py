import numpy as np
import pytest

import quasiproj as qp
from quasiproj.errors import PolygonError
from quasiproj import lattice3d, scan2d
from quasiproj.geometry import ConvexWindow, EdgeProbes, edge_distances
from quasiproj.lattice3d import OVERLAP_OFFSETS
from quasiproj.window import CUBE_VERTICES

from helpers import classify, classify_steps, eps_band

EPS = 1e-12


def test_golden_constants():
    p = qp.PHI
    assert p == pytest.approx((np.sqrt(5) + 1) / 2, abs=EPS)
    assert p - 1 == pytest.approx(1 / p, abs=EPS)
    assert p ** 2 == pytest.approx(p + 1, abs=EPS)
    assert p ** -2 == pytest.approx((1 / p) ** 2, abs=EPS)
    assert p ** -4 == pytest.approx((1 / p) ** 4, abs=EPS)
    assert qp.THETA == pytest.approx(2 * np.pi / 5, abs=EPS)


def test_basis_generators(basis):
    j = np.arange(5)
    assert np.allclose(basis.D[:, 0], np.cos(j * qp.THETA), atol=EPS)
    assert np.allclose(basis.D[:, 1], np.sin(j * qp.THETA), atol=EPS)
    # w_j = (d_{2j}, 1)
    for m in range(5):
        assert np.allclose(basis.W[m, :2], basis.D[(2 * m) % 5], atol=EPS)
        assert basis.W[m, 2] == 1.0
    assert np.allclose(np.linalg.norm(basis.D, axis=1), 1.0, atol=EPS)


def test_basis_orthogonality_and_sums(basis):
    assert np.allclose(basis.D.T @ basis.W, 0.0, atol=1e-12)
    assert np.allclose(basis.W.T @ basis.D, 0.0, atol=1e-12)
    assert np.allclose(basis.D.sum(axis=0), [0, 0], atol=1e-12)
    assert np.allclose(basis.W.sum(axis=0), [0, 0, 5], atol=1e-12)
    assert np.allclose(basis.D[0], [1, 0], atol=EPS)
    assert np.allclose(basis.W[0], [1, 0, 1], atol=EPS)


def test_projections(basis):
    # the images the enumerators compute: labels.astype(float) @ D and @ W
    zero, ones, e0 = np.array([[0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [1, 0, 0, 0, 0]])
    assert np.allclose(zero.astype(float) @ basis.D, [0, 0])
    assert np.allclose(ones.astype(float) @ basis.D, [0, 0], atol=1e-12)
    assert np.allclose(e0.astype(float) @ basis.D, [1, 0], atol=1e-12)
    assert np.allclose(zero.astype(float) @ basis.W, [0, 0, 0])
    assert np.allclose(ones.astype(float) @ basis.W, [0, 0, 5], atol=1e-12)
    assert np.allclose(e0.astype(float) @ basis.W, [1, 0, 1], atol=1e-12)


def test_projection_z_is_exact_index(basis):
    # the z component equals the index exactly, because every w_j has third
    # component 1
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = rng.integers(-40, 40, 5)
        assert (k.astype(float) @ basis.W)[2] == float(k.sum())


def _rot(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def test_fivefold_rotational_covariance(basis):
    # the fivefold symmetry permutes lattice slots by 3 (the neighbor-step
    # labeling): slot m takes the old value at m + 3
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = rng.integers(-5, 6, 5)
        kr = k[(np.arange(5) + 3) % 5]
        assert np.allclose(kr.astype(float) @ basis.D,
                           _rot(2 * qp.THETA) @ (k.astype(float) @ basis.D), atol=1e-9)
        p, pr = k.astype(float) @ basis.W, kr.astype(float) @ basis.W
        assert np.allclose(pr[:2], _rot(4 * qp.THETA) @ p[:2], atol=1e-9)
        assert pr[2] == p[2]


def _pentagon(radius=1.0):
    a = 2 * np.pi * np.arange(5) / 5
    return np.column_stack([radius * np.cos(a), radius * np.sin(a)])


INSIDE, OUTSIDE, BOUNDARY = 1, 0, -1


def _status(pts, polygon, eps=qp.DEFAULT_EPS):
    probes = EdgeProbes.of([ConvexWindow.of(polygon)], 0, np.zeros((1, 1, 2)))
    pts = np.atleast_2d(np.asarray(pts, dtype=float)).T
    d = edge_distances(probes, pts, np.zeros(pts.shape[1], dtype=int))[0]
    return eps_band(d, eps).tolist()


def test_point_in_polygon_basic():
    pent = _pentagon()
    assert _status([[0, 0], pent[2], [2, 2]], pent) == [INSIDE, BOUNDARY, OUTSIDE]


def test_point_in_polygon_against_decagon(Q):
    # circumradius of the plane window is p, so 2p is far outside
    pt = np.array([2 * qp.PHI, 0.0])
    assert _status(pt, Q.window.polygon) == [OUTSIDE]
    assert _status([0, 0], Q.window.polygon) == [INSIDE]


def test_point_in_polygon_vertex_list_rotation():
    pent = _pentagon()
    pts = np.random.default_rng(2).uniform(-1.2, 1.2, (25, 2))
    results = {tuple(_status(pts, np.roll(pent, s, axis=0))) for s in range(5)}
    assert len(results) == 1


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
def test_edge_distances_of_steps_equal_classify_of_the_moved_points(eps, Q, P):
    # random points, and points that one step moves f eps off an edge
    # midpoint, on the decagons and the slice windows at three values of c:
    # the eps band of the kernel's distances is the oracle's status of each
    # moved point
    rng = np.random.default_rng(17)
    windows = [Q.window, Q.inner]
    for c in (0.0, 0.5, qp.PHI ** -2):
        windows += qp.build_windows(P, c).slices.values()
    offsets = np.vstack(list(OVERLAP_OFFSETS.values()))
    seen = set()
    for win in windows:
        mids = (win.polygon + np.roll(win.polygon, -1, axis=0)) / 2
        edges = np.arange(len(mids))
        for steps in (Q.projections, offsets @ qp.BASIS.D, rng.uniform(-1, 1, (3, 2))):
            # edge e's midpoint, f eps off it, is where step e + j moves its point
            near = [mids + f * eps * win.normals - steps[(edges + j) % len(steps)]
                    for j, f in enumerate((-2, -0.9, 0.9, 2))]
            points = np.vstack([rng.uniform(-2, 2, (300, 2)), *near])
            want = np.array([classify(win, (points + step).T, eps) for step in steps])
            probes = EdgeProbes.of([win], 0, steps[:, None])
            got = eps_band(edge_distances(probes, points.T, np.zeros(len(points), dtype=int)),
                           eps)
            assert np.array_equal(got, want)
            seen.update(np.unique(want).tolist())
    assert seen == {-1, 0, 1}


def _probe_cases(P, Q):
    """(probes, family, [(window, move)] per probe) of every probe set in
    the package: the 11 probes of each index of the 2-d scan at four values
    of c, the point window of the c = 0 index 5 and of index 0 and 6 among
    them, and the tip scan's, the atoms' and the neighbours'."""
    w = qp.BASIS.W[:, :2]
    for c in (0.0, 0.5, qp.PHI ** -2, 1 - 1e-6):
        ws = qp.build_windows(P, c)
        probes = scan2d.index_probes(ws)
        window = [ws.slices.get(j, scan2d.POINT_WINDOW) for j in range(7)]
        for index in range(1, 6):
            yield probes, index - 1, ([(window[index], 0 * w[0])]
                                      + [(window[index + 1], v) for v in w]
                                      + [(window[index - 1], -v) for v in w])
    yield lattice3d._TIP_PROBES, 0, [(Q.window, np.zeros(2)), (Q.inner, np.zeros(2))]
    yield lattice3d._ATOM_PROBES, 0, [(Q.window, v) for v in CUBE_VERTICES @ qp.BASIS.D]
    offsets = np.vstack([OVERLAP_OFFSETS["K"], OVERLAP_OFFSETS["J"]])
    yield lattice3d._NEIGHBOR_PROBES, 0, [(Q.inner, v) for v in offsets @ qp.BASIS.D]


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
def test_edge_distances_decide_as_the_oracle_beside_every_threshold(eps, P, Q):
    # seeded points, and points that a probe moves 1e-12 inside and outside
    # each threshold, 0 and +-eps, of each edge of its window at the edge's
    # ends and midpoint: strictly inside (d < 0), inside beyond eps
    # (d < -eps) and not beyond eps outside (d <= eps) are the oracle's
    # classify_steps decisions at eps 0 and at eps
    rng = np.random.default_rng(23)
    seen = set()
    for probes, family, tests in _probe_cases(P, Q):
        points = [rng.uniform(-2, 2, (200, 2))]
        for window, v in tests:
            # (the point window's one corner, at each of its four edges)
            start = window.polygon.take(np.arange(len(window.normals)) % len(window.polygon),
                                        axis=0)
            for n, on_edge in zip(window.normals, zip(
                    start, (start + np.roll(start, -1, axis=0)) / 2, np.roll(start, -1, axis=0))):
                for p in on_edge:
                    for d in (0.0, -eps, eps):
                        points += [p + (d + s) * n - v for s in (-1e-12, 1e-12)]
        points = np.vstack(points).T
        d = edge_distances(probes, points, np.full(points.shape[1], family))
        assert d.shape == (len(tests), points.shape[1])
        for row, (window, v) in zip(d, tests):
            strict = classify_steps(window, points, v[None], 0.0)[0]
            band = classify_steps(window, points, v[None], eps)[0]
            assert np.array_equal(row < 0, strict == 1)
            assert np.array_equal(row < -eps, band == 1)
            assert np.array_equal(row <= eps, band != 0)
            seen.update(np.unique(band).tolist())
    assert seen == {-1, 0, 1}


def test_point_in_polygon_malformed():
    with pytest.raises(PolygonError):
        _status([0, 0], np.array([[0.0, 0.0], [1.0, 0.0]]))
