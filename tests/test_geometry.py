import numpy as np
import pytest

import quasiproj as qp
from quasiproj.errors import PolygonError
from quasiproj.geometry import points_in_convex_polygon, polygon_halfplanes

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
    return points_in_convex_polygon(np.atleast_2d(np.asarray(pts, dtype=float)),
                                    *polygon_halfplanes(polygon), eps).tolist()


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


def test_point_in_polygon_malformed():
    with pytest.raises(PolygonError):
        _status([0, 0], np.array([[0.0, 0.0], [1.0, 0.0]]))
