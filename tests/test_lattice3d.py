import re
import tracemalloc

import numpy as np
import pytest

import quasiproj as qp
from quasiproj.errors import ConfigError, ConsistencyError, SingularityError
from quasiproj.geometry import ConvexWindow, points_in_convex_polygon
from quasiproj.lattice3d import (ANALYTIC_CLASS_FREQUENCIES, OVERLAP_OFFSETS,
                                 OVERLAP_SIGNATURES, TIP_MARGIN, _check_cells,
                                 build_cells, overlap_census, overlap_signatures,
                                 scan_tip_columns)
from quasiproj.scan import (_POINT_DRIFT, _key_weights, label_columns, label_extent,
                            label_keys)
from quasiproj.window import (CUBE_VERTICES, HULL_INDICES, INTERIOR_INDICES,
                              normalize_shift, random_shift)

from helpers import (VOLUME_FLOOR, accept_3d_bulk, benchmark_gamma, build_lattice3,
                     convex_intersection, d_test_points, enumerate_accepted_3d,
                     enumerate_tips, fan_triangles, find_tips, interior_atoms_sweep,
                     label_rows, lattice_cells, moved_shift, overlap_census_lattice,
                     overlap_signature_loop, overlap_signatures_by_keys,
                     overlap_signatures_by_offset, overlap_table, scan_3d,
                     shared_atom_count)

PHI = qp.PHI


@pytest.fixture(scope="module")
def lat_env(Q, lattice_for):
    shift = random_shift(0.5, 11)
    lat = lattice_for(10, shift)
    tips = find_tips(lat, Q)
    return shift, lat, tips


@pytest.fixture(scope="module")
def oracle_table(P, basis):
    return overlap_table(P, basis)


def test_lattice_contains_z_translates(lat_env):
    shift, lat, tips = lat_env
    ones = np.ones(5, dtype=np.int64)
    inner = lat.labels[np.abs(lat.labels).max(axis=1) <= lat.radius - 1]
    rng = np.random.default_rng(0)
    for i in rng.choice(len(inner), 200, replace=False):
        assert lat.rows(inner[i] + ones) >= 0


def test_lattice_contains_origin_for_example_shift(lattice_for):
    shift = normalize_shift([0.13, 0.07, 0.11, 0.05, 0.09])
    lat = lattice_for(2, shift)
    assert lat.rows(np.zeros(5, dtype=np.int64)) >= 0
    i = int(lat.rows(np.zeros(5, dtype=np.int64)))
    assert np.allclose(lat.points[i], [0, 0, 0])


def test_point_density_converges(lattice_for):
    # count lattice points inside growing cubes that the label box fully
    # covers; the density tends to area(Q) / det of the projection map
    shift = random_shift(0.4, 19)
    R = 12
    lat = lattice_for(R, shift)
    area_q = 5.0 * PHI ** 2 * np.sin(np.pi / 5)   # decagon of circumradius p
    expected = area_q / (25 * np.sqrt(5) / 4)     # / |det (D^T; W^T)|
    errors = []
    for L in (4, 7, 10):
        inside = np.all(np.abs(lat.points) <= L + 1e-9, axis=1)
        # z is the integer index, so the cube holds exactly 2L+1 layers
        density = inside.sum() / ((2 * L) ** 2 * (2 * L + 1))
        errors.append(abs(density - expected))
    assert errors[2] < 0.04 * expected
    assert errors[2] <= errors[0] + 0.01


def test_tips_have_ten_neighbors(lat_env):
    shift, lat, tips = lat_env
    inner = tips[np.abs(tips).max(axis=1) <= lat.radius - 2]
    assert len(inner) > 300
    steps = np.vstack([np.eye(5, dtype=np.int64), -np.eye(5, dtype=np.int64)])
    assert np.all(lat.rows(inner[:, None, :] + steps) >= 0)


def test_tip_set_z_periodic(lat_env):
    shift, lat, tips = lat_env
    tipset = {tuple(r) for r in tips}
    ones = np.ones(5, dtype=np.int64)
    inner = tips[np.abs(tips).max(axis=1) <= lat.radius - 1]
    for t in inner[:300]:
        assert tuple(t + ones) in tipset


def test_non_tip_with_missing_neighbor(lat_env, Q):
    # a lattice point missing some neighbor always tests outside the inner
    # decagon (the contrapositive of the tip property)
    shift, lat, tips = lat_env
    tipset = {tuple(r) for r in tips}
    inner = lat.labels[np.abs(lat.labels).max(axis=1) <= lat.radius - 2]
    missing = 0
    for k in inner[:2000]:
        has_all = all(lat.rows(k + s * np.eye(5, dtype=np.int64)[m]) >= 0
                      for m in range(5) for s in (1, -1))
        if not has_all:
            missing += 1
            assert tuple(k) not in tipset
            t = d_test_points(k[None, :], shift)[0]
            assert points_in_convex_polygon(t[:, None], Q.inner.normals,
                                            Q.inner.offsets, 1e-9)[0] != 1
            assert np.linalg.norm(t) > np.cos(np.pi / 10) / PHI - 1e-9  # inradius
    assert missing > 50


def test_cells_26_atoms(lat_env):
    shift, lat, tips = lat_env
    (hull_atoms, interior_atoms), _, _ = build_cells(lat.radius, shift, 1e-9)
    rng = np.random.default_rng(1)
    rows = rng.choice(len(hull_atoms), 150, replace=False)
    for hull, interior in zip(hull_atoms[rows], interior_atoms[rows]):
        assert len(hull) == 22
        assert len(interior) == 4
        # atoms really are lattice points and sit where they should
        assert np.all(lat.rows(hull) >= 0) and np.all(lat.rows(interior) >= 0)
        for a in interior:
            assert lat.rows(a) >= 0


def test_same_triangle_same_interior_offsets(lat_env, Q):
    shift, lat, tips = lat_env
    (hull, interior), _, _ = build_cells(lat.radius, shift, 1e-9)
    by_triangle = {}
    rng = np.random.default_rng(2)
    rows = rng.choice(len(hull), 120, replace=False)
    sample = hull[rows, 0]
    # one pass of all tips against the ten fan triangles (0, v_i, v_{i+1})
    pts = d_test_points(sample, shift)
    status = np.array([ConvexWindow.of(t).classify(pts.T, 1e-9)
                       for t in fan_triangles(Q.inner.polygon)])
    assert np.all((status == 1).sum(axis=0) == 1)  # no tip on a triangle edge
    for row, tip, tri in zip(rows, sample, np.argmax(status == 1, axis=0).tolist()):
        offsets = frozenset(tuple(int(x) for x in (a - tip)) for a in interior[row])
        by_triangle.setdefault(tri, set()).add(offsets)
    assert len(by_triangle) >= 8  # most triangles sampled
    for tri, offset_sets in by_triangle.items():
        assert len(offset_sets) == 1, f"triangle {tri} has varying interiors"
    # different triangles have different interior-point sets
    all_sets = [next(iter(v)) for v in by_triangle.values()]
    assert len(set(all_sets)) == len(all_sets)


def test_z_translated_cells_are_translates(lat_env):
    # the cell of tip k + (1,..,1) is the cell of k shifted by (0,0,5),
    # atom labels included
    shift, lat, tips = lat_env
    ones = np.ones(5, dtype=np.int64)
    (hull, interior), _, _ = build_cells(lat.radius, shift, 1e-9)
    row_of = {tuple(t): i for i, t in enumerate(hull[:, 0].tolist())}
    checked = 0
    for i, t in enumerate(hull[:400, 0]):
        j = row_of.get(tuple((t + ones).tolist()))
        if j is None:
            continue
        a, b = lat.points[lat.rows(hull[[i, j], 0])]
        assert np.allclose(b - a, [0, 0, 5], atol=1e-9)
        assert np.array_equal(interior[j], interior[i] + ones)
        assert np.array_equal(hull[j], hull[i] + ones)
        checked += 1
        if checked >= 40:
            break
    assert checked >= 10


def test_label_keys_follow_label_order(lat_env):
    shift, lat, tips = lat_env
    assert np.all(np.diff(lat.keys) > 0)
    assert np.array_equal(lat.rows(lat.labels), np.arange(len(lat.labels)))
    # absent labels and labels outside the box both look up as -1
    outside = lat.labels[:3].copy()
    outside[:, 0] = lat.radius + 1
    assert np.all(lat.rows(outside) == -1)
    assert lat.rows(lat.labels[0]) >= 0 and lat.rows(outside[0]) < 0
    with pytest.raises(ValueError, match="too large"):
        label_keys(np.zeros(5, dtype=np.int64), 3200)


def test_interior_offsets_are_the_interior_cube_vertices(P, basis):
    # m can carry an interior atom only if m.W lies strictly inside the
    # polytope and m.D is shorter than the radii p + 1/p of the decagon and
    # the inner decagon; over {-3..3}^5 that leaves the ten interior cube
    # vertices, each clear of both bounds by far more than eps
    r = np.arange(-3, 4, dtype=np.int64)
    grid = np.stack(np.meshgrid(*([r] * 5), indexing="ij"), axis=-1).reshape(-1, 5)
    depth = np.max((grid @ basis.W) @ P.face_normals.T - P.face_offsets, axis=1)
    reach = np.linalg.norm(grid @ basis.D, axis=1) - (PHI + 1 / PHI)
    found = (depth < 0) & (reach < 0)
    assert sorted(map(tuple, grid[found].tolist())) == \
        sorted(map(tuple, CUBE_VERTICES[list(INTERIOR_INDICES)].tolist()))
    assert np.min(-np.maximum(depth[found], reach[found])) > 0.5


@pytest.mark.parametrize("c,seed", [(0.5, 11), (0.2, 3)])
def test_vectorized_cells_and_classes_match_oracle(c, seed, P, Q, oracle_table,
                                                  lattice_for):
    shift = random_shift(c, seed)
    lat = lattice_for(10, shift)
    tips = find_tips(lat, Q)
    inner = tips[np.abs(tips).max(axis=1) <= lat.radius - 3]
    assert len(inner) > 1000
    (hull, interior), _, _ = build_cells(lat.radius, shift, 1e-9)
    assert np.array_equal(hull[:, 0], inner)
    for atoms, expected in zip(interior, interior_atoms_sweep(inner, lat, P)):
        assert np.array_equal(atoms, expected)
    tip_set = {tuple(r) for r in tips.tolist()}
    sigs = overlap_signatures(d_test_points(inner, shift).T).tolist()
    assert sigs == [list(overlap_signature_loop(t, tip_set, oracle_table))
                    for t in inner.tolist()]
    assert sigs == overlap_signatures_by_keys(inner, tips, lat.radius).tolist()


def _non_tips(lat, Q):
    """The lattice points whose test point is outside the inner decagon."""
    return lat.labels[Q.inner.classify(lat.test_points.T, 1e-9) == 0]


def test_build_cells_rejects_a_lattice_point_that_is_not_a_tip(lat_env, Q):
    # every hull atom of a tip is a lattice point, and some hull atom of
    # every other lattice point is not; the atoms of these lie in the box
    shift, lat, tips = lat_env
    non_tips = _non_tips(lat, Q)
    assert len(non_tips) > len(tips)
    non_tips = non_tips[label_extent(non_tips) <= lat.radius - 1]
    for k in non_tips[:: len(non_tips) // 40]:
        label = re.escape(str(tuple(k.tolist())))
        with pytest.raises(ConsistencyError,
                           match=rf"cell at {label}: \d+ hull atoms are not lattice "
                                 rf"points, so {label} is not a tip"):
            _check_cells(k[None], lat.rows(k + CUBE_VERTICES)[None] >= 0)


def test_build_cells_names_the_singular_atom(Q, basis, monkeypatch):
    # put the origin's test point where its atom at the decagon vertex m.D
    # lands just outside decagon edge 0, within eps, and the origin is still
    # a tip.  The same step moves the atom at the opposite vertex along the
    # parallel edge 5, so two atoms are singular; m comes first in the cell
    eps = 1e-9
    poly, normals = Q.window.polygon, Q.window.normals
    interior = CUBE_VERTICES[list(INTERIOR_INDICES)]
    m = interior[np.argmin(np.linalg.norm(interior @ basis.D - poly[0], axis=1))]
    target = 0.3 * (poly[1] - poly[0]) + 0.5 * eps * normals[0]
    base = random_shift(0.4, 2)
    gamma = base.gamma + basis.D @ (-base.gamma @ basis.D - target) / 2.5
    shift = qp.GridShift(gamma=gamma, c=base.c)
    tip = np.zeros(5, dtype=np.int64)
    assert np.allclose(d_test_points(tip[None], shift), target, atol=1e-12)
    assert Q.inner.classify(d_test_points(tip[None], shift).T, eps)[0] == 1
    singular = CUBE_VERTICES[accept_3d_bulk(tip + CUBE_VERTICES, shift, eps) == -1]
    assert len(singular) == 2 and np.array_equal(singular[0], m)
    # the atoms are labels of the box too, so at this shift the scan raises,
    # naming the label the per-label scan names
    with pytest.raises(SingularityError) as expected:
        enumerate_accepted_3d(4, shift, Q, basis, eps)
    with pytest.raises(SingularityError) as got:
        build_cells(4, shift, eps)
    assert _named_label(got.value) == _named_label(expected.value)

    # at a regular shift, move the test point of one column that holds a
    # boundary-complete tip f eps across edge 0: the cells read each atom by
    # sign, so atom m of that column's least-key tip is present exactly when
    # it lies inside (f < 0), and the opposite atom, which the same step
    # moves f eps into the decagon across edge 5, exactly when f > 0
    original, opposite = qp.lattice3d._complete_columns, singular[1]
    for f in (-0.5, 0.5):
        doctored = []

        def columns(*args):
            for points, first, *counts in original(*args):
                if not doctored and len(first):
                    i = len(first) // 2
                    points = points.copy()
                    points[:, i] = 0.3 * (poly[1] - poly[0]) + f * eps * normals[0]
                    doctored.append(first[i])
                yield points, first, *counts

        monkeypatch.setattr(qp.lattice3d, "_complete_columns", columns)
        (hull, interior), *_ = build_cells(6, base, eps)
        k = np.array(label_columns(doctored[0], 6))
        cell = interior[np.all(hull[:, 0] == k, axis=1)][0]
        assert np.all(cell == k + m, axis=1).any() == (f < 0)
        assert np.all(cell == k + opposite, axis=1).any() == (f > 0)


@pytest.mark.parametrize("c, radius, eps", [
    *(pytest.param(c, radius, 1e-9, id=f"{c}-{radius}")
      for radius in (8, 12) for c in (0.05, 0.2, PHI ** -2, 0.5, 0.9)),
    # the ends of eps: a wide band, and one just above check_eps' floor
    *(pytest.param(c, 8, eps, id=f"{c}-8-{name}") for c in (0.2, PHI ** -2, 0.9)
      for name, eps in (("tol1e-3", 1e-3), ("floor", 1.05 * _POINT_DRIFT * 9)))])
def test_build_cells_matches_the_lattice_lookup(c, radius, eps, Q, lattice_for):
    # atom for atom: the hull in P.vertices order, the interior in label order;
    # reading the atoms by sign gives the per-label decisions at every eps
    shift = random_shift(c, 5)
    lat = lattice_for(radius, shift, eps)
    tips = find_tips(lat, Q, eps)
    inner = tips[np.abs(tips).max(axis=1) <= radius - 3]
    assert len(inner) > 0
    (hull, interior), n_points, n_tips = build_cells(radius, shift, eps)
    assert (n_points, n_tips) == (len(lat.labels), len(tips))
    tip_rows, hull_rows, interior_rows = lattice_cells(inner, lat)
    assert np.array_equal(hull[:, 0], lat.labels[tip_rows])
    assert np.array_equal(hull, lat.labels[hull_rows])
    assert np.array_equal(interior, lat.labels[interior_rows])


@pytest.mark.parametrize("c", [0.05, PHI ** -2, 0.9])
def test_build_cells_are_the_complete_tips_of_the_all_tips_oracle(c, monkeypatch):
    # one cell per tip of the oracle at least TIP_MARGIN label steps inside
    # the box, in key order, with the oracle's point and tip counts; and the
    # chunks of the scan change neither the arrays nor the counts
    radius = 12
    shift = random_shift(c, 5)
    tips, _, n_points = enumerate_tips(radius, shift)
    inner = tips[label_extent(tips) <= radius - TIP_MARGIN]
    (hull, interior), *counts = build_cells(radius, shift, 1e-9)
    assert counts == [n_points, len(tips)]
    assert len(inner) > 0
    assert np.array_equal(hull, inner[:, None] + CUBE_VERTICES[list(HULL_INDICES)])
    monkeypatch.setattr(qp.scan, "SCAN_ROWS", 37)
    (hull37, interior37), *counts37 = build_cells(radius, shift, 1e-9)
    assert counts37 == counts
    assert np.array_equal(hull37, hull) and np.array_equal(interior37, interior)


def test_convex_intersection_identity(P):
    from scipy.spatial import ConvexHull
    volume, faces = convex_intersection([0.0, 0.0, 0.0], P)
    assert faces == 20
    assert volume == pytest.approx(ConvexHull(P.vertices).volume, abs=1e-9)


def test_convex_intersection_tip_touch(P):
    volume, faces = convex_intersection([0.0, 0.0, 5.0], P)
    assert not volume > VOLUME_FLOOR
    assert volume < 1e-9


def test_convex_intersection_disjoint(P):
    volume, faces = convex_intersection([10.0, 0.0, 0.0], P)
    assert not volume > VOLUME_FLOOR


def test_overlap_table_faces(oracle_table):
    # the overlapping offsets of the numerical table are OVERLAP_OFFSETS,
    # with faces 12 for K and 6 for J
    realized = {m: faces for m, (volume, faces) in oracle_table.items()
                if volume > VOLUME_FLOOR}
    assert len(oracle_table) == 100
    assert set(realized.values()) == {6, 12}
    for shape, faces in (("K", 12), ("J", 6)):
        offsets = [tuple(m) for m in OVERLAP_OFFSETS[shape].tolist()]
        assert len(set(offsets)) == len(offsets)
        assert {m for m, f in realized.items() if f == faces} == set(offsets)


def test_overlap_volume_symmetry(oracle_table):
    offsets = list(oracle_table)
    for m in offsets[:60]:
        neg = tuple(-x for x in m)
        if neg in oracle_table:
            (va, fa), (vb, fb) = oracle_table[m], oracle_table[neg]
            assert va == pytest.approx(vb, abs=1e-8)
            assert fa == fb


def test_classify_overlap_signatures(lat_env):
    shift, lat, tips = lat_env
    inner = tips[np.abs(tips).max(axis=1) <= lat.radius - 3]
    seen = set()
    for sig in overlap_signatures(d_test_points(inner, shift).T).tolist():
        assert tuple(sig) in OVERLAP_SIGNATURES
        seen.add(OVERLAP_SIGNATURES[tuple(sig)])
    assert seen == {"A1", "A23", "A46", "A57", "A8"}


def test_overlap_census_matches_analytic():
    shift = random_shift(0.3, 29)
    census = overlap_census(12, shift)
    assert census.n_tips > 1000
    assert sum(census.counts.values()) == census.n_tips
    assert sum(census.frequencies.values()) == pytest.approx(1.0, abs=1e-12)
    for lab, freq in census.frequencies.items():
        assert freq == pytest.approx(ANALYTIC_CLASS_FREQUENCIES[lab], abs=0.02)
    # overlapping cells really do share atoms (reported, not asserted
    # against published values; none exist)
    for lab, mean_shared in census.shared_atoms.items():
        assert mean_shared >= 1.0, lab


def test_shared_atom_count_symmetric(lat_env, oracle_table):
    shift, lat, tips = lat_env
    tipset = {tuple(r) for r in tips}
    inner = tips[np.abs(tips).max(axis=1) <= lat.radius - 5]
    pairs = 0
    for t in inner:
        for m, (volume, faces) in oracle_table.items():
            other = tuple(int(a + b) for a, b in zip(t, m))
            if other in tipset and volume > VOLUME_FLOOR \
                    and max(abs(x) for x in other) <= lat.radius - 3:
                n_ab = shared_atom_count(t, np.array(other), lat)
                n_ba = shared_atom_count(np.array(other), t, lat)
                assert n_ab == n_ba
                assert n_ab >= 1
                pairs += 1
                break
        if pairs >= 12:
            break
    assert pairs >= 12


def test_z_periodicity_of_accepted_points(basis, lattice_for):
    shift = random_shift(0.7, 31)
    lat = lattice_for(6, shift)
    ones = np.ones(5, dtype=np.int64)
    inner = lat.labels[np.abs(lat.labels).max(axis=1) <= 5]
    up = inner + ones
    for k, i, status in zip(up, lat.rows(inner), accept_3d_bulk(up, shift)):
        assert status == 1
        assert np.allclose(k.astype(float) @ basis.W, lat.points[i] + [0, 0, 5], atol=1e-9)


def test_analytic_class_frequencies_normalized():
    assert sum(ANALYTIC_CLASS_FREQUENCIES.values()) == pytest.approx(1.0, abs=1e-12)
    # the published ratio 1 : p^-3 : p^-2 : p^-3 : (p^-2 + p^-4)/2
    r = ANALYTIC_CLASS_FREQUENCIES
    assert r["A23"] / r["A1"] == pytest.approx(PHI ** -3, abs=1e-12)
    assert r["A46"] / r["A1"] == pytest.approx(PHI ** -2, abs=1e-12)
    assert r["A57"] / r["A1"] == pytest.approx(PHI ** -3, abs=1e-12)
    assert r["A8"] / r["A1"] == pytest.approx((PHI ** -2 + PHI ** -4) / 2, abs=1e-12)


def test_find_tips_reads_the_acceptance_test_points(Q, lattice_for):
    for c, seed in ((0.0, 1), (0.2, 3), (0.7, 5)):
        shift = random_shift(c, seed)
        lat = lattice_for(8, shift)
        recomputed = d_test_points(lat.labels, shift)
        assert np.array_equal(lat.test_points, recomputed)
        status = points_in_convex_polygon(recomputed.T, Q.inner.normals,
                                          Q.inner.offsets, 1e-9)
        assert np.array_equal(find_tips(lat, Q), lat.labels[status == 1])


def _doctor_signatures(monkeypatch, shift, doctored):
    """Give the tip column of each (tip, signature) of `doctored` that
    signature, wherever the census classifies it; returns, per tip, how
    often its column was classified."""
    original = qp.lattice3d.overlap_signatures
    seen = [0] * len(doctored)

    def signatures(points, *args):
        # the census classifies tip columns, chunk by chunk, by the test
        # point their tips share
        sigs = original(points, *args)
        for n, (tip, sig) in enumerate(doctored):
            at = d_test_points(tip[None], shift)
            row = np.all(np.abs(points - at.T) < 1e-12, axis=0)
            assert row.sum() <= 1
            seen[n] += int(row.sum())
            sigs[row] = sig
        return sigs

    monkeypatch.setattr(qp.lattice3d, "overlap_signatures", signatures)
    return seen


def _violation_tips(Q, lattice_for):
    """The boundary-complete tips of the violation tests' box, in key order:
    the first k0 layer of them, so no other tip of their columns comes
    before them in key order."""
    shift = random_shift(0.3, 4)
    tips = find_tips(lattice_for(10, shift), Q)
    inner = tips[np.abs(tips).max(axis=1) <= 7]
    assert np.all(inner[:6, 0] == -7)
    return shift, inner


def _named_tip(tip):
    return rf"tip {re.escape(str(tuple(tip.tolist())))} has overlap signature"


def test_overlap_violation_names_the_first_offending_tip(Q, monkeypatch, lattice_for):
    shift, inner = _violation_tips(Q, lattice_for)
    seen = _doctor_signatures(monkeypatch, shift, [(inner[2], (3, 0, 3)),
                                                   (inner[5], (7, 3, 4))])
    with pytest.raises(qp.errors.CensusViolationError,
                       match=_named_tip(inner[2]) + r" \(3, 0, 3\)"):
        overlap_census(10, shift)
    assert seen == [1, 1]


def test_census_violation_names_the_least_key_tip_across_chunks(Q, monkeypatch,
                                                                lattice_for):
    # at 37 rows per chunk the doctored columns come in different chunks,
    # and the least-key tip is named whichever of them comes first
    shift, inner = _violation_tips(Q, lattice_for)
    monkeypatch.setattr(qp.scan, "SCAN_ROWS", 37)
    rep = inner - inner[:, 4:]
    chunk = ((rep[:, 0] + 20) * 41 + rep[:, 1] + 20) // 37
    assert chunk[2] < chunk[5] and chunk[2] < chunk[0]
    for first, later in ((2, 5), (0, 2)):
        seen = _doctor_signatures(monkeypatch, shift, [(inner[first], (3, 0, 3)),
                                                       (inner[later], (7, 3, 4))])
        with pytest.raises(qp.errors.CensusViolationError,
                           match=_named_tip(inner[first]) + r" \(3, 0, 3\)"):
            overlap_census(10, shift)
        assert seen == [1, 1]


#: the orbit of e0 - e4 among the K offsets: |m.D| is the inner decagon's
#: width along m.D, so no two tips differ by one of them
_EDGE_ORBIT = OVERLAP_OFFSETS["K"][np.abs(OVERLAP_OFFSETS["K"]).sum(axis=1) == 2]


def test_the_edge_orbit_spans_the_inner_decagon(Q, basis):
    assert len(_EDGE_ORBIT) == 10
    for shape, offsets in OVERLAP_OFFSETS.items():
        for m in offsets:
            step = m @ basis.D
            along = Q.inner.polygon @ (step / np.linalg.norm(step))
            width = along.max() - along.min()
            if any(np.array_equal(m, e) for e in _EDGE_ORBIT):
                assert abs(np.linalg.norm(step) - width) < 1e-12, m
            else:
                assert np.linalg.norm(step) < width - 0.2, (shape, m)


@pytest.mark.parametrize("radius", [8, 12])
@pytest.mark.parametrize("c", [0.05, 0.2, PHI ** -2, 0.5, 0.9])
def test_overlap_census_matches_the_lattice_route(c, radius, Q, lattice_for):
    # the tips the scan keeps are the lattice's tips, and the census over
    # them is the lattice-route census, shared atoms included
    shift = random_shift(c, 5)
    lat = lattice_for(radius, shift)
    tips, keys, n_points = enumerate_tips(radius, shift)
    assert np.array_equal(tips, find_tips(lat, Q))
    assert n_points == len(lat.labels)
    assert np.array_equal(keys, label_keys(tips, radius))
    census = overlap_census(radius, shift)
    oracle = overlap_census_lattice(lat, shift, Q, shared_atom_sample=20)
    assert census.n_tips == oracle.n_tips
    assert census.counts == oracle.counts
    assert list(census.shared_atoms) == list(oracle.shared_atoms)
    assert np.array_equal(list(census.shared_atoms.values()),
                          list(oracle.shared_atoms.values()), equal_nan=True)

    # every (inner tip, neighbor tip) pair: a K pair's cells share 15 atoms,
    # a J pair's 8, and no tip sits at an offset of the edge orbit
    inner = tips[label_extent(tips) <= radius - 3]

    def pairs(offsets):
        others = inner[:, None] + offsets
        row, col = np.nonzero(label_rows(keys, label_keys(others, radius)) >= 0)
        return inner[row], others[row, col]

    assert len(pairs(_EDGE_ORBIT)[0]) == 0
    for column, (shape, shared) in enumerate((("K", 15), ("J", 8)), start=1):
        tip, other = pairs(OVERLAP_OFFSETS[shape])
        assert len(tip) == sum(census.counts[lab] * sig[column]
                               for sig, lab in OVERLAP_SIGNATURES.items())
        _, hull, interior = lattice_cells(np.concatenate([tip, other]), lat)
        a, b = np.split(np.concatenate([hull, interior], axis=1), 2)
        assert np.all((a[:, :, None] == b[:, None, :]).sum(axis=(1, 2)) == shared), shape


def _named_label(exc) -> str:
    return re.search(r"label (\([-\d, ]+\))", str(exc))[1]


def test_tip_scan_is_singular_where_the_lattice_is(Q, basis):
    # at a coarse eps many draws put some label of the box within eps of the
    # decagon boundary; the tip scan must raise for exactly those draws and
    # name the same label, and agree on the tips of the rest
    singular = 0
    for seed in range(12):
        shift = random_shift(0.5, seed)
        try:
            lat = build_lattice3(6, shift, Q, basis, 1e-3)
            expected = find_tips(lat, Q, 1e-3)
        except SingularityError as exc:
            expected = exc
        try:
            got = enumerate_tips(6, shift, 1e-3)[0]
        except SingularityError as exc:
            got = exc
        if isinstance(expected, SingularityError):
            assert isinstance(got, SingularityError), seed
            assert _named_label(got) == _named_label(expected)
            singular += 1
        else:
            assert np.array_equal(got, expected), seed
    assert 0 < singular < 12


def test_tip_scan_raises_on_the_inner_decagon_boundary_alone(Q, basis):
    # at this draw no label of the box is within eps of the decagon, but
    # (-1, -1, 1, -1, 1) is within eps of the inner decagon; its neighbours
    # that would lie on the decagon boundary are outside the box
    shift, eps = random_shift(0.5, 30), 0.01
    enumerate_accepted_3d(1, shift, Q, basis, eps)
    for run in (lambda: find_tips(build_lattice3(1, shift, Q, basis, eps), Q, eps),
                lambda: enumerate_tips(1, shift, eps),
                lambda: overlap_census(1, shift, eps)):
        with pytest.raises(SingularityError,
                           match=r"label \(-1, -1, 1, -1, 1\) \w+ within eps of the "
                                 r"inner decagon boundary"):
            run()


# ---------------------------------------------------------------------------
# the column scan against the per-label scan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("radius", [1, 2, 3, 8, 12])
@pytest.mark.parametrize("c", [0.0, 0.05, 0.2, PHI ** -2, 0.5, 0.9])
def test_tips_by_column_are_the_tips_of_the_per_label_scan(c, radius, Q, lattice_for):
    for seed in (5, 6):
        shift = random_shift(c, seed)
        lat = lattice_for(radius, shift)
        tips, keys, n_points = enumerate_tips(radius, shift)
        assert np.array_equal(tips, find_tips(lat, Q)), seed
        assert np.array_equal(keys, label_keys(tips, radius)), seed
        assert n_points == len(lat.labels), seed


def test_tips_by_column_at_the_benchmark_box(Q, lattice_for):
    shift = normalize_shift(benchmark_gamma(0.2, 0))
    lat = lattice_for(20, shift)
    tips, keys, n_points = enumerate_tips(20, shift)
    assert np.array_equal(tips, find_tips(lat, Q))
    assert np.array_equal(keys, label_keys(tips, 20))
    assert n_points == len(lat.labels) == 351437


@pytest.mark.parametrize("shift,radius", [
    (random_shift(0.2, 5), 8),
    (random_shift(0.9, 6), 12),
    (normalize_shift(benchmark_gamma(0.2, 0)), 20),
])
def test_the_members_of_a_column_share_one_decision(shift, radius, Q, basis):
    # k and k + n (1,1,1,1,1) have one test point, since sum_j d_j = 0: every
    # label the per-label scan tests agrees with its column's representative
    # k - k4 (1,1,1,1,1) to 1e-12, in its decagon and inner-decagon status,
    # and the scan tests every member in the box of each column it meets
    # (the labels it does not test are outside the decagon by more than eps)
    blocks = list(scan_3d(radius, shift, Q, basis, 1e-9))
    labels = np.vstack([b[0] for b in blocks])
    status = np.concatenate([b[1] for b in blocks])
    pts = np.vstack([b[2] for b in blocks])
    reps = labels - labels[:, 4:]
    at_rep = d_test_points(reps, shift)
    assert np.max(np.abs(pts - at_rep)) < 1e-12
    assert np.array_equal(status, Q.window.classify(at_rep.T, 1e-9))
    assert np.array_equal(Q.inner.classify(pts.T, 1e-9), Q.inner.classify(at_rep.T, 1e-9))
    assert np.count_nonzero(status == 1) > 1000
    _, column, members = np.unique(label_keys(reps, 2 * radius), return_inverse=True,
                                   return_counts=True)
    spread = reps.max(axis=1) - reps.min(axis=1)
    assert np.array_equal(members[column], 2 * radius + 1 - spread)


def _tip_scan(radius, shift, eps=1e-9):
    """scan_tip_columns's chunks joined: (points (2, n), keys, spread, n_points)."""
    points, keys, spread, counts = zip(*scan_tip_columns(radius, shift, eps))
    return (np.concatenate(points, axis=1), np.concatenate(keys),
            np.concatenate(spread), sum(counts))


@pytest.mark.parametrize("shift", [normalize_shift(benchmark_gamma(0.2, 0)),
                                   random_shift(0.9, 6)])
def test_tip_scan_yields_each_columns_test_point_first_member_and_spread(shift):
    # the keys decode to each tip column's least member in the box: one
    # more step down its column, k - (1,1,1,1,1), leaves the box
    radius = 20
    points, keys, spread, n_points = _tip_scan(radius, shift)
    first = np.column_stack(label_columns(keys, radius))
    assert len(first) > 1000 and n_points > len(first)
    assert np.array_equal(label_keys(first, radius), keys)
    assert np.all(first.min(axis=1) == -radius)
    assert np.max(np.abs(points.T - d_test_points(first, shift))) < 1e-12
    # the spread is that of the representative a = k - k4 (1,1,1,1,1), 0 included
    rep = first - first[:, 4:]
    assert np.array_equal(spread, np.maximum(rep.max(axis=1), 0) - np.minimum(rep.min(axis=1), 0))


def test_tip_scan_chunks_leave_every_result_unchanged(Q, basis, monkeypatch):
    shift = normalize_shift(benchmark_gamma(0.2, 0))
    columns = _tip_scan(20, shift)
    tips = enumerate_tips(20, shift)
    census = overlap_census(20, shift)
    # at tol 1e-3 this draw has a label within eps of the inner decagon in
    # an earlier chunk of 37 rows than the first within eps of the decagon,
    # which is still the one named
    singular_shift = random_shift(0.2, 7)
    with pytest.raises(SingularityError, match="the decagon boundary") as singular:
        overlap_census(10, singular_shift, 1e-3)
    with pytest.raises(SingularityError) as expected:
        enumerate_accepted_3d(10, singular_shift, Q, basis, 1e-3)
    assert _named_label(singular.value) == _named_label(expected.value)
    for rows in (37, 400):
        monkeypatch.setattr(qp.scan, "SCAN_ROWS", rows)
        got = _tip_scan(20, shift)
        assert all(np.array_equal(a, b) for a, b in zip(got, columns))
        assert all(np.array_equal(a, b) for a, b in zip(enumerate_tips(20, shift), tips))
        assert overlap_census(20, shift) == census
        for run in (lambda: enumerate_tips(10, singular_shift, 1e-3),
                    lambda: overlap_census(10, singular_shift, 1e-3)):
            with pytest.raises(SingularityError) as got_error:
                run()
            assert str(got_error.value) == str(singular.value)


def test_the_tip_scan_stops_once_no_later_chunk_can_name_a_lower_label(monkeypatch):
    # a column's first member has k0 + R >= max(a0, 0), so once a label on
    # the decagon boundary is found, the scan stops at the first chunk whose
    # rows all have a0 > k0 + R: at tol 1e-2, radius 10 and 37 rows per chunk,
    # after 24 of 46 chunks, with the message of the scan in one chunk
    shift, radius, eps = random_shift(0.5, 4), 10, 1e-2
    monkeypatch.setattr(qp.scan, "SCAN_ROWS", 10 ** 6)
    with pytest.raises(SingularityError, match="of the decagon boundary") as whole:
        overlap_census(radius, shift, eps)
    monkeypatch.setattr(qp.scan, "SCAN_ROWS", 37)
    calls = []
    scan_chunks = qp.lattice3d._scan_chunks
    monkeypatch.setattr(qp.lattice3d, "_scan_chunks",
                        lambda n_rows, scan_rows, *args: scan_chunks(
                            n_rows, lambda rows: calls.append(rows[-1]) or scan_rows(rows),
                            *args))
    with pytest.raises(SingularityError) as chunked:
        overlap_census(radius, shift, eps)
    assert str(chunked.value) == str(whole.value)
    k = np.array(eval(_named_label(whole.value)))
    side, key = 4 * radius + 1, label_keys(k, radius)
    # the chunk of its column, then the first chunk past which a0 > k0 + R
    a = k - k[4]
    column = (a[0] + 2 * radius) * side + a[1] + 2 * radius
    stop = next(c for c in range(column // 37, side ** 2 // 37 + 1)
                if max((c + 1) * 37 // side - 2 * radius, 0) * _key_weights(radius)[0] > key)
    assert len(calls) == stop + 1 == 24 < -(-side ** 2 // 37)
    # while only the inner decagon has a singular label it runs to the last
    # chunk, 9 of 3 rows at radius 1, since one on the decagon found later
    # would be named first
    monkeypatch.setattr(qp.scan, "SCAN_ROWS", 3)
    calls.clear()
    with pytest.raises(SingularityError, match="inner decagon"):
        overlap_census(1, random_shift(0.5, 30), 0.01)
    assert len(calls) == 9


def test_a_singular_label_in_a_later_chunk_comes_before_any_census_result(
        Q, basis, monkeypatch):
    # at tol 1e-3 and 37 rows per chunk, this draw's singular columns are all
    # in the 44th of 46 chunks.  The chunks before it are classified, with
    # signatures outside the five classes, and still the census raises the
    # scan's SingularityError, with the label the per-label scan names
    shift, eps = random_shift(0.5, 26), 1e-3
    with pytest.raises(SingularityError) as expected:
        enumerate_accepted_3d(10, shift, Q, basis, eps)
    classified = []

    def outside(points):
        classified.append(points.shape[1])
        return np.zeros((points.shape[1], 3), dtype=np.int64)

    monkeypatch.setattr(qp.scan, "SCAN_ROWS", 37)
    monkeypatch.setattr(qp.lattice3d, "overlap_signatures", outside)
    with pytest.raises(SingularityError) as got:
        overlap_census(10, shift, eps)
    assert _named_label(got.value) == _named_label(expected.value)
    assert sum(classified) > 0


def test_census_peak_does_not_grow_with_the_radius():
    # each chunk of the tip scan is classified as it comes and only the
    # class tallies are kept, so the traced peak is one chunk's working set
    shift = normalize_shift(benchmark_gamma(0.2, 0))
    peaks = {}
    for radius in (20, 57):
        tracemalloc.start()
        try:
            overlap_census(radius, shift)
            peaks[radius] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[57] <= 2e6
    assert peaks[57] <= peaks[20] + 0.5e6


def test_tip_scan_refuses_an_eps_within_the_float_error_of_the_points():
    # the bound grows with the radius: eps 2e-13 is above it at radius 5
    # and below it at radius 20
    shift = random_shift(0.5, 0)
    assert overlap_census(5, shift, 2e-13).n_tips > 0
    for run in (lambda: enumerate_tips(20, shift, 2e-13),
                lambda: build_cells(20, shift, 2e-13),
                lambda: overlap_census(20, shift, 2e-13)):
        with pytest.raises(ConfigError, match="float error of the test points at radius 20"):
            run()


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
def test_tip_scan_names_a_label_just_outside_a_decagon_edge(eps, Q, basis):
    # the whole column of k is singular; the first label of the first
    # singular column is the first singular label of the per-label scan
    for edge in (0, 3, 7):
        k = np.array([1, -1, 2, 0, -2])
        mid = (Q.window.polygon[edge] + Q.window.polygon[(edge + 1) % 10]) / 2
        target = mid + 0.9 * eps * Q.window.normals[edge]
        shift = moved_shift(random_shift(0.3, 5), basis.D, k, target)
        with pytest.raises(SingularityError) as expected:
            enumerate_accepted_3d(4, shift, Q, basis, eps)
        with pytest.raises(SingularityError, match="the decagon boundary") as got:
            enumerate_tips(4, shift, eps)
        assert _named_label(got.value) == _named_label(expected.value)


# ---------------------------------------------------------------------------
# overlap classes by point location
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [1e-9, 1e-3, 1.05 * _POINT_DRIFT * 21],
                         ids=["1e-09", "tol1e-3", "floor"])
@pytest.mark.parametrize("shift, n_columns", [
    pytest.param(normalize_shift(benchmark_gamma(0.2, 0)), 2673, id="benchmark"),
    pytest.param(random_shift(0.2, 5), 2665, id="0.2-5"),
    pytest.param(random_shift(0.9, 6), 2684, id="0.9-6")])
def test_overlap_signatures_match_the_key_oracle_at_the_benchmark_box(shift, n_columns, eps):
    # every boundary-complete tip column of the census's box (spread at most
    # 2 (R - margin), R - margin = 17), classified by its test point and by
    # merging the key of its first boundary-complete tip with the keys of
    # every tip of the box; read by sign, the signatures are the per-label
    # decisions at either end of eps, and so are the columns
    points, keys, spread, _ = _tip_scan(20, shift, eps)
    tips, _, _ = enumerate_tips(20, shift, eps)
    inner = spread <= 2 * 17
    assert np.count_nonzero(inner) == n_columns
    # three steps along the column from its first member in the box
    first = np.column_stack(label_columns(keys[inner] + 3 * _key_weights(20).sum(), 20))
    assert label_extent(first).max() == 17
    assert np.array_equal(overlap_signatures(points[:, inner]),
                          overlap_signatures_by_keys(first, tips, 20))


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
def test_overlap_signatures_match_one_classify_per_offset(eps, Q, basis):
    # the tip columns' test points at several shifts, and random points
    # around the inner decagon: read by sign, the signatures are those of
    # one classify per offset at eps 0, and at eps too for every point that
    # no offset moves within eps of the inner decagon boundary; at eps 1e-3
    # some points are moved that close
    rng = np.random.default_rng(5)
    batches = [_tip_scan(8, shift)[0]
               for shift in (random_shift(0.2, 0), random_shift(0.5, 3),
                             random_shift(0.9, 7))]
    batches += [rng.uniform(-0.7, 0.7, (n, 2)).T for n in (1, 2, 50, 400, 3000)]
    steps = np.vstack(list(OVERLAP_OFFSETS.values())) @ basis.D
    n_near = 0
    for points in batches:
        got = overlap_signatures(points)
        assert np.array_equal(got, overlap_signatures_by_offset(points, 0.0))
        clear = np.ones(points.shape[1], dtype=bool)
        for step in steps:
            clear &= Q.inner.classify(points + step[:, None], eps) != -1
        assert np.array_equal(got[clear],
                              overlap_signatures_by_offset(points[:, clear], eps))
        n_near += np.count_nonzero(~clear)
    assert (n_near > 0) == (eps == 1e-3)


@pytest.mark.parametrize("f", [-0.9, -0.3, 0.4, 0.9])
def test_overlap_signatures_name_the_first_singular_offset(f, Q, basis):
    # two points put f eps from an inner-decagon edge by a J and a K offset:
    # read by sign, each of those neighbours is a tip exactly when f < 0,
    # and the signatures are those of one classify per offset at eps 0
    eps = 1e-9
    offsets = np.vstack([OVERLAP_OFFSETS["K"], OVERLAP_OFFSETS["J"]])
    rng = np.random.default_rng(11)
    points = rng.uniform(-0.3, 0.3, (40, 2))
    for at, i in ((3, 25), (30, 10)):
        step = offsets[i] @ basis.D
        edge = int(np.argmax(Q.inner.normals @ step))
        mid = (Q.inner.polygon[edge] + Q.inner.polygon[(edge + 1) % 10]) / 2
        points[at] = mid + f * eps * Q.inner.normals[edge] - step
        assert (Q.inner.classify((points[at] + step)[:, None], 0.0)[0] == 1) == (f < 0)
    assert np.array_equal(overlap_signatures(points.T),
                          overlap_signatures_by_offset(points.T, 0.0))


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
@pytest.mark.parametrize("shape", ["K", "J"])
def test_overlap_signatures_at_the_inner_decagon_boundary(shape, eps, Q, basis,
                                                         lattice_for):
    # put the test point of k + m at the midpoint of the inner-decagon edge
    # whose normal is most aligned with m.D, moved f eps along that normal:
    # within eps the tip scan raises, and outside it k + m is a tip exactly
    # when f < 0 and the census is the lattice route's
    k = np.array([1, 0, -1, 0, 0])
    m = OVERLAP_OFFSETS[shape][0]
    step = m @ basis.D
    edge = int(np.argmax(Q.inner.normals @ step))
    mid = (Q.inner.polygon[edge] + Q.inner.polygon[(edge + 1) % 10]) / 2
    for f in (-2, -0.9, 0.9, 2):
        target = mid + f * eps * Q.inner.normals[edge] - step
        shift = moved_shift(random_shift(0.3, 5), basis.D, k, target)
        at_k = d_test_points(k[None], shift).T
        assert Q.inner.classify(at_k, eps)[0] == 1
        if abs(f) < 1:
            # the census raises the tip scan's error, for the label the
            # per-label scan names
            with pytest.raises(SingularityError) as expected:
                find_tips(build_lattice3(8, shift, Q, basis, eps), Q, eps)
            with pytest.raises(SingularityError) as got:
                overlap_census(8, shift, eps)
            assert _named_label(got.value) == _named_label(expected.value)
            continue
        lat = lattice_for(8, shift, eps)
        tips = find_tips(lat, Q, eps)
        assert np.all(tips == k + m, axis=1).any() == (f < 0)
        census = overlap_census(8, shift, eps)
        oracle = overlap_census_lattice(lat, shift, Q, eps)
        assert census.n_tips == oracle.n_tips
        assert census.counts == oracle.counts
        if shape == "K":
            expected_sig = [6, 2, 4] if f < 0 else [5, 1, 4]
            assert overlap_signatures(at_k).tolist() == [expected_sig]
