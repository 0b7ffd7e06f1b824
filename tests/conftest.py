import pytest

import quasiproj as qp
from quasiproj.geometry import DEFAULT_EPS


@pytest.fixture(scope="session")
def basis():
    return qp.make_basis()


@pytest.fixture(scope="session")
def P(basis):
    return qp.build_polytope_P(basis)


@pytest.fixture(scope="session")
def Q(basis):
    return qp.build_decagon_Q(basis)


_window_cache = {}


@pytest.fixture(scope="session")
def windows_for(P):
    """Shared slice-window builder, cached per c."""

    def build(c):
        key = round(float(c), 15)
        if key not in _window_cache:
            _window_cache[key] = qp.build_windows(P, float(c))
        return _window_cache[key]

    return build


@pytest.fixture(scope="session")
def lattice_for(Q, basis):
    """Shared oracle lattices, helpers.build_lattice3 cached per (radius,
    shift, eps) and read-only, so that each is built once per session."""
    from helpers import build_lattice3

    cache = {}

    def build(radius, shift, eps=DEFAULT_EPS):
        key = (int(radius), tuple(shift.gamma.tolist()), shift.c, float(eps))
        if key not in cache:
            lat = build_lattice3(radius, shift, Q, basis, eps)
            for arr in (lat.labels, lat.points, lat.keys, lat.test_points):
                arr.setflags(write=False)
            cache[key] = lat
        return cache[key]

    return build
