import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import quasiproj as qp
from quasiproj import lattice3d, locate
from quasiproj.cli import run
from quasiproj.errors import CensusViolationError, ConfigError, SingularityError
from quasiproj.io import build_tiling_document
from quasiproj.tiling2d import (CENSUS, VertexType, analytic_A, analytic_probability,
                                census_support, empirical_frequencies)
from quasiproj.lattice3d import OVERLAP_OFFSETS, build_cells, overlap_census
from quasiproj.scan import _SCAN_SLACK, SCAN_ROWS, RowStencils
from quasiproj.scan2d import (INSIDE, MASK_SURE, NOT_OUTSIDE, POINT_WINDOW,
                              enumerate_accepted_2d, scan_2d)
from quasiproj.window import normalize_shift, random_shift

from helpers import (accept_2d_bulk, classify, classify_steps, d_test_points,
                     lambda_box_candidates_2d, locator_2d, neighbor_masks, step_rows)
from helpers import neighbor_counts as whole_box_neighbor_counts

P = qp.PHI
PINV2 = P ** -2


# -- analytic frequency functions ---------------------------------------------

def test_analytic_examples():
    # I=1 at c=0: the (1-c)^2 factor is 1
    assert analytic_A(1, 3, 0, 0.0) == pytest.approx(2.5 * P ** -3, abs=1e-12)
    # top-index types vanish as c -> 0
    assert analytic_A(5, 0, 5, 0.0) == 0.0
    # census outsiders are zero, not errors
    assert analytic_A(3, 1, 1, 0.37) == 0.0
    assert analytic_A(1, 2, 0, 0.5) == 0.0


def test_analytic_domain_errors():
    with pytest.raises(ValueError):
        analytic_A(0, 3, 0, 0.5)
    with pytest.raises(ValueError):
        analytic_A(6, 3, 0, 0.5)
    with pytest.raises(ValueError):
        analytic_A(1, 3, 0, 1.0)
    with pytest.raises(ValueError):
        analytic_A(1, 3, 0, -0.1)
    with pytest.raises(ValueError):
        analytic_A(1, 6, 0, 0.5)


def test_normalization_spot_values():
    for c in (0.25, 0.5, 0.75):
        total = sum(analytic_probability(vt.index, vt.n_pos, vt.n_neg, c)
                    for vt in census_support(c, tol=-1.0))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_normalization_dense_grid():
    for c in np.linspace(0.01, 0.99, 99):
        total = 0.0
        for index in range(1, 6):
            for (n, nn) in CENSUS[index]:
                total += analytic_probability(index, n, nn, float(c))
        assert abs(total - 1.0) < 1e-9, c


def test_interval_structure_index2():
    # the I=2 census changes exactly at c = p^-2
    below = {t for t in CENSUS[2] if analytic_A(2, *t, 0.2) > 1e-12}
    assert len(below) == 8 and (4, 0) not in below
    assert analytic_A(2, 4, 0, 0.2) == 0.0

    above = {t for t in CENSUS[2] if analytic_A(2, *t, 0.6) > 1e-12}
    assert len(above) == 6
    for t in ((5, 1), (5, 2), (3, 2)):
        assert t not in above
    assert (3, 1) in above  # positive throughout (p^-2, 1)

    at = {t for t in CENSUS[2] if analytic_A(2, *t, PINV2) > 1e-12}
    assert len(at) == 5
    assert at == {(5, 0), (4, 1), (3, 1), (3, 0), (2, 1)}


def test_interval_structure_index4():
    # mirror structure, switching at c = p^-1
    below = {t for t in CENSUS[4] if analytic_A(4, *t, 0.3) > 1e-12}
    above = {t for t in CENSUS[4] if analytic_A(4, *t, 0.8) > 1e-12}
    assert len(below) == 6 and len(above) == 8
    assert analytic_A(4, 0, 4, 0.8) == 0.0


def test_mirror_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(200):
        c = float(rng.uniform(0.01, 0.99))
        for index in range(1, 6):
            for (n, nn) in CENSUS[index]:
                a = analytic_A(index, n, nn, c)
                b = analytic_A(6 - index, nn, n, 1.0 - c)
                assert a == pytest.approx(b, abs=1e-12)


def test_index3_continuity():
    # the twenty I=3 frequency functions are continuous in c
    grid = np.linspace(1e-6, 1 - 1e-6, 20001)
    for (n, nn) in sorted(CENSUS[3]):
        vals = np.array([analytic_A(3, n, nn, float(c)) for c in grid])
        assert np.max(np.abs(np.diff(vals))) < 2e-3, (n, nn)


def test_boundary_values_are_continuous_limits():
    # at the breakpoint the two-branch formulas take the common limit,
    # not the doubled theta(0)=1 sum
    h = 1e-8
    for (n, nn) in ((5, 0), (4, 1)):
        lo = analytic_A(2, n, nn, PINV2 - h)
        at = analytic_A(2, n, nn, PINV2)
        hi = analytic_A(2, n, nn, PINV2 + h)
        assert at == pytest.approx(lo, abs=1e-6)
        assert at == pytest.approx(hi, abs=1e-6)


# -- edges and classification -------------------------------------------------

def classified(radius, shift, ws, basis, edge):
    """The vertices within `edge` of the box centre, in key order, with the
    (n_pos, n_neg) the whole-box oracle looks up for them."""
    labels, _, keys = enumerate_accepted_2d(radius, shift, ws)
    inner = labels[np.abs(labels).max(axis=1) <= edge]
    return (inner,) + whole_box_neighbor_counts(inner, keys, radius)


@pytest.fixture(scope="module")
def patch(basis, windows_for):
    shift = random_shift(0.5, 7)
    ws = windows_for(0.5)
    return (shift, ws) + classified(12, shift, ws, basis, 10)


def test_neighbor_counts_basic(patch, basis):
    shift, ws, inner, n_pos, n_neg = patch

    # spot check the vectorized counts against scalar probes of the ten
    # unit neighbors
    rng = np.random.default_rng(5)
    for i in rng.choice(len(inner), 30, replace=False):
        here = inner[i]
        assert accept_2d_bulk(here, shift, ws, basis)[0] == 1
        found = {1: 0, -1: 0}
        for m in range(5):
            for sign in (1, -1):
                nb = here.copy()
                nb[m] += sign
                if accept_2d_bulk(nb, shift, ws, basis)[0] != 1:
                    continue
                found[sign] += 1
                assert nb.sum() - here.sum() == sign
                # step +-e_m moves the plane image by +-d_m
                assert np.allclose(nb.astype(float) @ basis.D - here.astype(float) @ basis.D,
                                   sign * basis.D[m], atol=1e-12)
        assert found[1] == n_pos[i]
        assert found[-1] == n_neg[i]


def test_star_vertex_has_five_positive_edges(patch):
    shift, ws, inner, n_pos, n_neg = patch
    index = inner.sum(axis=1)
    stars = np.flatnonzero((index == 1) & (n_pos == 5) & (n_neg == 0))
    assert len(stars) > 0
    s = stars[0]
    vt = VertexType(int(index[s]), int(n_pos[s]), int(n_neg[s]))
    assert (vt.n_pos, vt.n_neg) in CENSUS[vt.index]
    assert vt == VertexType(1, 5, 0)


def test_observed_types_within_census(patch):
    shift, ws, inner, n_pos, n_neg = patch
    index = inner.sum(axis=1)
    for i in range(len(inner)):
        assert (int(n_pos[i]), int(n_neg[i])) in CENSUS[int(index[i])]
    # extreme indices allow only the three known types
    for i in np.flatnonzero(index == 1):
        assert (n_pos[i], n_neg[i]) in {(5, 0), (4, 0), (3, 0)}
    for i in np.flatnonzero(index == 5):
        assert (n_pos[i], n_neg[i]) in {(0, 5), (0, 4), (0, 3)}


def test_type_4_0_absent_below_breakpoint(basis, windows_for):
    shift = random_shift(0.2, 13)
    inner, n_pos, n_neg = classified(12, shift, windows_for(0.2), basis, 10)
    index = inner.sum(axis=1)
    mask = (index == 2) & (n_pos == 4) & (n_neg == 0)
    assert not mask.any()


# -- empirical frequencies ----------------------------------------------------

def test_empirical_report_structure(windows_for):
    shift = random_shift(0.5, 7)
    rep = empirical_frequencies(14, shift, windows_for(0.5))
    assert rep.n_vertices == sum(r.count for r in rep.rows)
    assert rep.analytic_total == pytest.approx(1.0, abs=1e-9)
    # rows sorted and unique
    keys = [(r.index, r.n_pos, r.n_neg) for r in rep.rows]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_empirical_symmetric_at_half(windows_for):
    # at the fixed point c = 1/2 the construction is symmetric under
    # (I, n, n') -> (6-I, n', n)
    shift = random_shift(0.5, 21)
    rep = empirical_frequencies(22, shift, windows_for(0.5))
    emp = {(r.index, r.n_pos, r.n_neg): r.empirical for r in rep.rows}
    for (i, n, nn), v in emp.items():
        assert emp.get((6 - i, nn, n), 0.0) == pytest.approx(v, abs=0.02)


def test_empirical_five_types_at_breakpoint(windows_for):
    shift = random_shift(PINV2, 17)
    rep = empirical_frequencies(18, shift, windows_for(PINV2))
    observed2 = {(r.n_pos, r.n_neg) for r in rep.rows if r.index == 2 and r.count}
    assert observed2 <= {(5, 0), (4, 1), (3, 1), (3, 0), (2, 1)}
    assert len(observed2) == 5


def test_census_closure_statistical(windows_for):
    # every type with positive analytic frequency shows up in a patch large
    # enough that its expected count is comfortably above zero (radius 22,
    # about 2.4e4 boundary-complete vertices; rarest expected count ~ freq*N)
    for c, seed in ((0.5, 7), (0.15, 7)):
        shift = random_shift(c, seed)
        rep = empirical_frequencies(22, shift, windows_for(c))
        counts = {(r.index, r.n_pos, r.n_neg): r.count for r in rep.rows}
        for vt in census_support(c):
            expected = analytic_probability(*vt, c) * rep.n_vertices
            if expected >= 25:
                assert counts.get(tuple(vt), 0) > 0, (c, vt, expected)


def test_index_population_shifts_with_c(windows_for):
    # the window V_1 is the slice at height 1 - c, which shrinks toward the
    # bottom tip as c grows, while V_5 (height 5 - c) grows away from the top
    # tip: index-1 vertices thin out and index-5 vertices appear.  (Consistent
    # with index 5 being absent at c = 0 and with the c -> 1 - c mirror.)
    lo = empirical_frequencies(16, random_shift(0.2, 23), windows_for(0.2))
    hi = empirical_frequencies(16, random_shift(0.8, 23), windows_for(0.8))

    def index_share(rep, index):
        return sum(r.empirical for r in rep.rows if r.index == index)

    assert index_share(hi, 1) < index_share(lo, 1)
    assert index_share(hi, 5) > index_share(lo, 5)
    # analytic counterpart of the same statement
    a1 = sum(analytic_A(1, n, nn, 0.8) for (n, nn) in CENSUS[1])
    b1 = sum(analytic_A(1, n, nn, 0.2) for (n, nn) in CENSUS[1])
    assert a1 < b1


@pytest.mark.parametrize("c, seed, radius, emptied", [
    (0.0, 1, 14, set()),          # V_5 is the point window: no index-5 vertex
    (P ** -3, 2, 14, set()),
    (PINV2, 3, 14, set()),
    (0.5, 4, 14, set()),
    (0.9, 5, 14, set()),
    (0.5, 1, 3, {1, 4, 5}),       # the margin leaves these blocks no vertex
])
def test_empirical_frequencies_match_the_whole_box_oracle(c, seed, radius, emptied,
                                                          windows_for):
    # the per-block tally against neighbour counts looked up in the key
    # array of the whole box
    shift = random_shift(c, seed)
    labels, _, keys = enumerate_accepted_2d(radius, shift, windows_for(c))
    inner = labels[np.abs(labels).max(axis=1) <= radius - 2]
    assert set(labels.sum(axis=1).tolist()) - set(inner.sum(axis=1).tolist()) == emptied
    n_pos, n_neg = whole_box_neighbor_counts(inner, keys, radius)
    expected = Counter(zip(inner.sum(axis=1).tolist(), n_pos.tolist(), n_neg.tolist()))
    rep = empirical_frequencies(radius, shift, windows_for(c))
    assert rep.n_vertices == len(inner)
    assert {(r.index, r.n_pos, r.n_neg): r.count for r in rep.rows if r.count} == expected


def doctor_masks(monkeypatch, labels, types):
    """Make the scan give each of these vertices the neighbour mask of its
    (n, n'), finding it by key in whichever chunk of the scan holds it."""
    forged = [(1 << n) - 1 | ((1 << nn) - 1) << 5 for n, nn in types]

    def doctored(radius, *args):
        keys = qp.label_keys(labels, radius)
        for piece in scan_2d(radius, *args):
            masks = piece.masks.copy()
            for key, mask in zip(keys, forged):
                masks[piece.keys == key] = mask
            yield piece._replace(masks=masks)
    monkeypatch.setattr(qp.tiling2d, "scan_2d", doctored)


def test_census_violation_names_the_first_offending_type(windows_for, monkeypatch):
    # at c = 0.2 the type [4,0]_2 is in the census but has zero frequency
    shift = random_shift(0.2, 13)
    labels, _, _ = enumerate_accepted_2d(8, shift, windows_for(0.2))
    inner = labels[np.abs(labels).max(axis=1) <= 6]
    first2 = int(np.argmax(inner.sum(axis=1) == 2))

    def doctored(vertices, types):
        doctor_masks(monkeypatch, inner[vertices], types)

    index = inner.sum(axis=1)
    doctored([first2 + 3, first2], [(1, 1), (4, 0)])
    with pytest.raises(CensusViolationError,
                       match=r"type \[4,0\]_2 has zero analytic frequency at c=0.2"):
        empirical_frequencies(8, shift, windows_for(0.2))
    doctored([first2 + 3, first2], [(4, 0), (1, 1)])
    with pytest.raises(CensusViolationError,
                       match=rf"type \[1,1\]_{index[first2]} is outside the census"):
        empirical_frequencies(8, shift, windows_for(0.2))
    # label order across the index blocks: an index-1 vertex after first2
    later1 = first2 + int(np.argmax(index[first2:] == 1))
    doctored([later1, first2], [(1, 1), (4, 0)])
    with pytest.raises(CensusViolationError,
                       match=r"type \[4,0\]_2 has zero analytic frequency at c=0.2"):
        empirical_frequencies(8, shift, windows_for(0.2))


def test_census_violation_order_spans_the_scan_chunks(windows_for, monkeypatch):
    # an index-2 vertex of the first chunk and an index-1 vertex of a later
    # one: whichever comes first in label order is named
    shift = random_shift(0.2, 13)
    radius = 24
    labels, _, _ = enumerate_accepted_2d(radius, shift, windows_for(0.2))
    inner = labels[np.abs(labels).max(axis=1) <= radius - 2]
    chunk = ((inner[:, 0] + radius) * (2 * radius + 1) + inner[:, 1] + radius) // SCAN_ROWS
    index = inner.sum(axis=1)
    early2 = int(np.argmax((index == 2) & (chunk == 0)))
    late1 = int(np.argmax((index == 1) & (chunk == chunk.max())))
    early1 = int(np.argmax((index == 1) & (chunk == 0)))
    late2 = int(np.argmax((index == 2) & (chunk == chunk.max())))
    assert chunk.max() > 0 and chunk[late1] > 0 and chunk[late2] > 0
    assert chunk[early2] == 0 and chunk[early1] == 0
    doctor_masks(monkeypatch, inner[[late1, early2]], [(1, 1), (4, 0)])
    with pytest.raises(CensusViolationError,
                       match=r"type \[4,0\]_2 has zero analytic frequency at c=0.2"):
        empirical_frequencies(radius, shift, windows_for(0.2))
    doctor_masks(monkeypatch, inner[[late2, early1]], [(4, 0), (1, 1)])
    with pytest.raises(CensusViolationError, match=r"type \[1,1\]_1 is outside the census"):
        empirical_frequencies(radius, shift, windows_for(0.2))


def test_freq_working_set_per_accepted_label(windows_for):
    # the tally, scan included, peaks within 64 B per accepted label
    shift = random_shift(0.5, 0)
    ws = windows_for(0.5)
    tracemalloc.start()
    try:
        n = len(enumerate_accepted_2d(60, shift, ws)[2])
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        empirical_frequencies(60, shift, ws)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert n > 90000
    assert peak <= 64 * n


def test_freq_peak_does_not_grow_with_the_radius(windows_for):
    # the scan's chunks are classified as they come and nothing is kept per
    # vertex, so the traced peak is one chunk's working set at any radius
    shift = random_shift(0.5, 0)
    ws = windows_for(0.5)
    peaks = {}
    for radius in (40, 100):
        tracemalloc.start()
        try:
            empirical_frequencies(radius, shift, ws)
            peaks[radius] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[100] <= 2e6
    assert peaks[100] <= peaks[40] + 0.5e6


# -- neighbour masks ------------------------------------------------------------

BREAKPOINTS = (P ** -3, PINV2, 2 * P ** -3, PINV2 + P ** -4, 1 / P)


def test_scan_chunks_leave_every_result_unchanged(basis, windows_for, monkeypatch):
    shift = random_shift(0.5, 7)
    ws = windows_for(0.5)
    keys = enumerate_accepted_2d(20, shift, ws)[2]
    report = empirical_frequencies(20, shift, ws)
    doc = build_tiling_document(20, shift, ws)
    # the REDRAW_ARGS draw, whose labels within eps of a window are many
    singular_shift = random_shift(0.5, 8)
    singular_ws = qp.build_windows(qp.build_polytope_P(basis), 0.5, 1e-4)
    with pytest.raises(SingularityError) as singular:
        empirical_frequencies(10, singular_shift, singular_ws)
    for rows in (37, 400):
        monkeypatch.setattr(qp.scan, "SCAN_ROWS", rows)
        assert np.array_equal(enumerate_accepted_2d(20, shift, ws)[2], keys)
        assert empirical_frequencies(20, shift, ws) == report
        got = build_tiling_document(20, shift, ws)
        assert all(np.array_equal(a, b) for a, b in zip(got, doc))
        with pytest.raises(SingularityError) as got:
            empirical_frequencies(10, singular_shift, singular_ws)
        assert str(got.value) == str(singular.value)


def test_a_singular_label_in_a_later_chunk_comes_before_any_result(P, monkeypatch):
    # at tol 1e-3 and 37 rows per chunk, this draw has its first singular
    # label in the eleventh of twelve chunks.  Masks of type [0,0], outside
    # every census, are tallied in the ten before it, and still the tally
    # raises the scan's SingularityError, with the label the whole-box scan names
    shift = random_shift(0.5, 22)
    ws = qp.build_windows(P, 0.5, 1e-3)
    with pytest.raises(SingularityError) as expected:
        enumerate_accepted_2d(10, shift, ws)
    classified = []

    def zero_masks(*args):
        for piece in scan_2d(*args):
            classified.append(len(piece.keys))
            yield piece._replace(masks=np.zeros_like(piece.masks))

    monkeypatch.setattr(qp.scan, "SCAN_ROWS", 37)
    monkeypatch.setattr(qp.tiling2d, "scan_2d", zero_masks)
    with pytest.raises(SingularityError) as got:
        empirical_frequencies(10, shift, ws)
    assert str(got.value) == str(expected.value)
    assert sum(classified) > 0


@pytest.mark.parametrize("c, eps", [(0.0, 1e-9), (0.5, 1e-9)]
                         + [(b + s, 1e-9) for b in BREAKPOINTS
                            for s in (-1e-6, 1e-6, -1e-8, 1e-8)]
                         + [(0.5, 1e-12), (PINV2 + 1e-8, 1e-12)])
def test_neighbor_masks_match_the_key_lookups(c, eps, P, basis):
    # at every boundary-complete vertex, the bits are the steps k +- e_m that
    # the whole box's keys hold, and the popcounts the oracle's counts: near
    # a breakpoint, where a slice has a short edge, and at an eps of 1e-12
    radius = 20
    ws = qp.build_windows(P, c, eps)
    for seed in range(3):
        shift = random_shift(c, seed)
        labels, _, keys = enumerate_accepted_2d(radius, shift, ws)
        inner = labels[np.abs(labels).max(axis=1) <= radius - 2]
        steps = np.hstack([step_rows(inner, keys, radius, sign) >= 0 for sign in (1, -1)])
        expected = steps @ (1 << np.arange(10))
        n_pos, n_neg = whole_box_neighbor_counts(inner, keys, radius)
        index = inner.sum(axis=1)
        points = (inner - shift.gamma) @ basis.W[:, :2]
        masks = np.zeros(len(inner), dtype=np.int64)
        for i in range(1, 6):
            at = index == i
            masks[at] = neighbor_masks(points[at].T, i, ws)
        assert np.array_equal(masks, expected)
        assert np.array_equal([bin(m & 31).count("1") for m in masks], n_pos)
        assert np.array_equal([bin(m >> 5).count("1") for m in masks], n_neg)


def test_freq_refuses_an_eps_within_the_float_error_of_the_points(P):
    # the error bound grows with the radius: eps 1e-13 is above it at
    # radius 3 and below it at radius 20
    shift = random_shift(0.5, 0)
    ws = qp.build_windows(P, 0.5, 1e-13)
    assert empirical_frequencies(3, shift, ws).n_vertices > 0
    with pytest.raises(ConfigError, match="float error of the test points at radius 20"):
        empirical_frequencies(20, shift, ws)


def test_tiling_refuses_an_eps_within_the_float_error_of_the_points(P, caplog):
    # the tiling's vertices come from the same scan, which refuses the eps,
    # with the same message as qc freq's
    shift = random_shift(0.5, 0)
    ws = qp.build_windows(P, 0.5, 1e-13)
    assert len(build_tiling_document(3, shift, ws).edges) > 0
    with pytest.raises(ConfigError, match="float error of the test points at radius 20"):
        build_tiling_document(20, shift, ws)
    message = ("configuration error: eps 1e-13 is not above 4.2e-13, the float error of "
               "the test points at radius 20, so vertex types cannot be read off them; "
               "use a larger tolerance")
    for mode in ("freq", "tiling2d"):
        caplog.clear()
        assert run([mode, "--radius", "20", "--tol", "1e-13"]) == 2
        assert [r.getMessage() for r in caplog.records] == [message]


def test_neighbor_masks_refuse_a_bad_index_or_shape(windows_for):
    ws = windows_for(0.5)
    for index in (0, 6):
        with pytest.raises(ValueError, match="index must be in"):
            neighbor_masks(np.zeros((2, 1)), index, ws)
    with pytest.raises(ValueError, match=r"shape \(2, n\)"):
        neighbor_masks(np.zeros((1, 2)), 3, ws)


def test_the_scan_refuses_windows_built_for_another_c(windows_for):
    # windows for c = 0.5 would otherwise accept a wrong set of vertices for
    # a c = 0.2 shift, and the tally would blame the census
    shift = random_shift(0.2, 3)
    for run in (lambda: enumerate_accepted_2d(10, shift, windows_for(0.5)),
                lambda: empirical_frequencies(30, shift, windows_for(0.5))):
        with pytest.raises(ValueError, match=r"built for c = 0\.5, .* c = 0\.2"):
            run()


def test_the_scan_refuses_an_eps_within_the_float_error_of_the_points(P, caplog):
    # the 2-d scan applies the floor itself, as the tip scan does, so every
    # reader of it refuses the eps with the text qc freq gives
    shift = random_shift(0.5, 0)
    ws = qp.build_windows(P, 0.5, 1e-20)
    assert run(["freq", "--radius", "8", "--tol", "1e-20"]) == 2
    message = ("configuration error: eps 1e-20 is not above 1.8e-13, the float error of "
               "the test points at radius 8, so vertex types cannot be read off them; "
               "use a larger tolerance")
    assert [r.getMessage() for r in caplog.records] == [message]
    for scan in (lambda: enumerate_accepted_2d(8, shift, ws),
                 lambda: next(scan_2d(8, shift, ws))):
        with pytest.raises(ConfigError) as err:
            scan()
        assert f"configuration error: {err.value}" == message
    caplog.clear()
    assert run(["tiling2d", "--radius", "8", "--tol", "1e-20"]) == 2
    assert [r.getMessage() for r in caplog.records] == [message]


def direct_masks(points, index, ws, basis):
    """Neighbour masks by testing each t +- w_m against every edge of
    V_{I+1} and V_{I-1} in turn."""
    w = basis.W[:, :2]
    out = np.zeros(points.shape[1], dtype=np.int64)
    for first, other, side in ((0, index + 1, 1.0), (5, index - 1, -1.0)):
        window = ws.slices.get(other)
        if window is None:
            continue
        for m in range(5):
            p = points + side * w[m][:, None]
            inside = np.ones(points.shape[1], dtype=bool)
            for n, o in zip(window.normals, window.offsets):
                inside &= n[0] * p[0] + n[1] * p[1] < o
            out[inside] |= 1 << (first + m)
    return out


@pytest.mark.parametrize("c", [0.0, 0.5, PINV2, PINV2 + 1e-8])
def test_neighbor_masks_beside_and_beyond_every_edge(c, basis, windows_for):
    # each step t +- w_m that reaches V_{I+-1} at a point 1e-12 inside or
    # outside one of its edges, at either end of the edge or its middle, or
    # 5 beyond it on either side
    ws = windows_for(c)
    w = basis.W[:, :2]
    for index in range(1, 6):
        points = []
        for other, side in ((index + 1, 1.0), (index - 1, -1.0)):
            window = ws.slices.get(other)
            if window is None:
                continue
            start = window.polygon
            stop = np.roll(start, -1, axis=0)
            for n, on_edge in zip(window.normals, zip(start, (start + stop) / 2, stop)):
                for p in on_edge:
                    for d in (-1e-12, 1e-12, -5.0, 5.0):
                        points.extend(p + d * n - side * w)
        points = np.array(points).T
        assert np.array_equal(neighbor_masks(points, index, ws),
                              direct_masks(points, index, ws, basis))


# -- the scan's direction tables ------------------------------------------------

def recorded_words(monkeypatch):
    """Record the locator, test points, family and table word of every
    point looked up in direction tables: index - 1 for the 2-d scan."""
    seen = []
    words = locate.words

    def recorded(loc, points, at):
        word = words(loc, points, at)
        seen.append((loc, points.copy(), np.copy(at), word.copy()))
        return word
    monkeypatch.setattr(locate, "words", recorded)
    return seen


def assert_words_are_the_edge_tests(seen, ws):
    """The exact word of every point holds classify's status and the mask of
    neighbor_masks; a status the table words call sure is classify's, and a
    sure mask neighbor_masks'."""
    status_bits = INSIDE | NOT_OUTSIDE
    for loc, points, at, word in seen:
        exact = locate.exact(loc, points, at)
        assert exact.dtype == np.uint16 and (exact & MASK_SURE).all()
        for index in range(1, 6):
            mine = at == index - 1
            t, w, e = points[:, mine], word[mine], exact[mine]
            inside = w & INSIDE != 0
            outside = w & NOT_OUTSIDE == 0
            if index in ws.slices:
                status = classify(ws.slices[index], t, ws.eps)
            else:
                # the point window 0, a square of zero size: the tables decide
                # nothing by it, and the edge tests accept nothing there; a
                # point within eps of 0 in the max norm is singular
                assert not inside.any() and not outside.any()
                status = np.where(np.abs(t).max(axis=0) <= ws.eps, -1, 0)
            assert np.all(status[inside] == 1) and np.all(status[outside] == 0)
            assert np.array_equal(e & status_bits, np.choose(status + 1, [
                NOT_OUTSIDE, 0, status_bits]))
            masks = neighbor_masks(t, index, ws)
            assert np.array_equal(e & 1023, masks)
            sure = w & MASK_SURE != 0
            assert np.array_equal(w[sure] & 1023, masks[sure])


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
@pytest.mark.parametrize("c", [0.0, 2e-9, 0.5] + [b + s for b in BREAKPOINTS
                                                  for s in (-1e-9, 0.0, 1e-9)])
def test_scan_tables_decide_as_the_edge_tests(c, eps, P, basis, monkeypatch):
    # for every candidate of the scan, its exact word and a status its
    # tables call sure are the status classify gives, and its exact mask and
    # a sure one the mask of neighbor_masks, bit for bit; and the scan
    # accepts the oracle's labels, or names a singular label below every
    # singular label of the oracle's.  (At
    # c = 1e-9 V_2 has 8 vertices within CONSTRUCTION_TOL, so no window set
    # is built there; 2e-9 stands in for it.)
    radius = 10
    shift, ws = random_shift(c, 3), qp.build_windows(P, c, eps)
    cand = lambda_box_candidates_2d(radius, shift)
    status = accept_2d_bulk(cand, shift, ws, basis)
    seen = recorded_words(monkeypatch)
    if (status == -1).any():
        with pytest.raises(SingularityError) as err:
            enumerate_accepted_2d(radius, shift, ws)
        named = np.array([int(k) for k in str(err.value)[7:].split(")")[0].split(", ")])
        assert accept_2d_bulk(named, shift, ws, basis)[0] == -1
        keys = qp.label_keys(cand[status == -1], radius)
        assert qp.label_keys(named, radius) <= keys.min()
    else:
        keys = enumerate_accepted_2d(radius, shift, ws)[2]
        assert np.array_equal(keys, np.sort(qp.label_keys(cand[status == 1], radius)))
    assert seen
    assert_words_are_the_edge_tests(seen, ws)


@pytest.mark.parametrize("c", [1e-6, 1 - 1e-6, 1 - 1e-7])
def test_the_tables_build_quietly_beside_a_tip(c, P, basis, monkeypatch):
    # a window beside a tip has edges ~1e-6 long, whose normals are off the
    # five directions by ~1e-6, so some are nearly parallel to b and bound a
    # stencil row far outside its extent: the stencils clip those bounds
    # (their int32 cast warned), and the tables stay exact
    radius = 12
    shift, ws = random_shift(c, 0), qp.build_windows(P, c)
    seen = recorded_words(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keys = enumerate_accepted_2d(radius, shift, ws)[2]
    cand = lambda_box_candidates_2d(radius, shift)
    accepted = cand[accept_2d_bulk(cand, shift, ws, basis) == 1]
    assert np.array_equal(keys, np.sort(qp.label_keys(accepted, radius)))
    assert_words_are_the_edge_tests(seen, ws)


def _beside_every_edge(window, moves, eps):
    """Points that each move puts 1e-12 inside and outside each edge of
    window and of its eps band, at the edge's ends and midpoint (the point
    window's one corner, at each of its four edges)."""
    start = window.polygon.take(np.arange(len(window.normals)) % len(window.polygon), axis=0)
    stop = np.roll(start, -1, axis=0)
    points = []
    for n, on_edge in zip(window.normals, zip(start, (start + stop) / 2, stop)):
        for p in on_edge:
            for d in (-1e-12, 1e-12, -eps - 1e-12, eps + 1e-12):
                points.extend(p + d * n - moves)
    return points


def test_scan_tables_decide_beside_every_threshold(P, Q, basis):
    # test points 1e-12 inside and outside each edge of V_I and of its eps
    # band, and each point t with t +- w_m that near an edge of V_{I+-1},
    # wherever a stencil reaches, beside a tip too, and beside the point
    # window's edges, V_5 at c = 0 and V_1 at 1 - 1e-10: the exact word is
    # the edge tests there, and so are the sure table words
    w = basis.W[:, :2]
    for c in (0.0, 0.5, PINV2, PINV2 + 1e-9, 1e-6, 1 - 1e-6, 1 - 1e-10):
        ws = qp.build_windows(P, c)
        loc = locator_2d(ws)
        for index in range(1, 6):
            points = []
            for other, steps in ((index, [0 * w[0]]), (index + 1, w), (index - 1, -w)):
                window = ws.slices.get(other, POINT_WINDOW if 1 <= other <= 5 else None)
                if window is not None:
                    points += _beside_every_edge(window, steps, ws.eps)
            points = np.array(points).T
            points = points[:, np.hypot(*points) < 1.7]
            at = np.full(points.shape[1], index - 1)
            word = locate.words(loc, points, at)
            assert_words_are_the_edge_tests([(loc, points, at, word)], ws)
    # and the decagons' probe sets, as the tip scan (at eps 1e-9 and 1e-3),
    # the cells and the overlap classes build them, at such points and at
    # seeded ones: the word is the one packed from the kernel's distances,
    # and every bit the tables are sure of is the BLAS oracle's
    rng = np.random.default_rng(29)
    neighbours = np.vstack([OVERLAP_OFFSETS["K"], OVERLAP_OFFSETS["J"]]) @ basis.D
    for eps in (1e-9, 1e-3):
        reach = RowStencils.of([Q.window], basis.D[2:4].T, eps + _SCAN_SLACK).radius
        for probes, status, radius, tests in (
                (lattice3d._TIP_PROBES, 2, reach, [(Q.window, 0 * w[0]), (Q.inner, 0 * w[0])]),
                (lattice3d._ATOM_PROBES, 0, 1 / qp.PHI, [(Q.window, v) for v in Q.projections]),
                (lattice3d._NEIGHBOR_PROBES, 0, 1 / qp.PHI, [(Q.inner, v) for v in neighbours])):
            loc = locate.build(probes, radius, status, eps)
            points = [rng.uniform(-radius, radius, (400, 2))]
            for window, v in tests:
                points += _beside_every_edge(window, [v], eps)
            points = np.vstack(points).T
            points = points[:, np.hypot(*points) < radius]
            word = locate.words(loc, points, 0)
            exact = locate.locate(loc, points)
            assert np.array_equal(exact, locate.exact(loc, points, np.zeros(len(word), int)))
            M = len(tests) - status
            for s, (window, v) in enumerate(tests[:status]):
                inside, band = locate.status_bits(M, s)
                oracle = classify_steps(window, points, v[None], eps)[0]
                assert np.all(oracle[word & inside != 0] == 1)
                assert np.all(oracle[word & band == 0] == 0)
                assert {-1, 0, 1} <= set(oracle.tolist())
                assert (word & inside).any() and not (word & band).all()
            sure = word & 1 << M != 0
            assert sure.any()
            for m, (window, v) in enumerate(tests[status:]):
                oracle = classify_steps(window, points, v[None], 0.0)[0] == 1
                assert np.array_equal(word[sure] >> m & 1 == 1, oracle[sure])


def test_scan_tables_leave_few_labels_to_the_edge_tests(P, monkeypatch):
    # the tables are exact when they decide nothing, only slow: at radius 40
    # and c = 0.5 they decide the status of all but 0.5% of the candidates and
    # the mask of all but 5% of the accepted labels (this draw leaves 58 and
    # 257 of 42,902 to the edge tests)
    shift, ws = random_shift(0.5, 1), qp.build_windows(P, 0.5)
    seen = recorded_words(monkeypatch)
    enumerate_accepted_2d(40, shift, ws)
    word = np.concatenate([w for *_, w in seen])
    state = word & (INSIDE | NOT_OUTSIDE)
    accepted = state == INSIDE | NOT_OUTSIDE
    assert len(word) > 40000
    assert np.mean(state == NOT_OUTSIDE) < 0.005
    assert np.mean(word[accepted] & MASK_SURE == 0) < 0.05


def _forged(monkeypatch, n_probes, test_points, word_of):
    """Give the exact word of each (test point, family f) of test_points, of
    the locators of n_probes probes, the word word_of(word, f) makes of it."""
    exact = locate.exact

    def forged(loc, points, at):
        word = exact(loc, points, at)
        if len(loc.probes.window) == n_probes:
            for p, f in test_points:
                hit = (at == f) & (np.abs(points.T - p).max(axis=1) < 1e-9)
                word[hit] = word_of(word[hit], f)
        return word
    monkeypatch.setattr(locate, "exact", forged)


def test_the_edge_tests_alone_give_every_result(P, basis, monkeypatch):
    # with a table margin wider than the windows, no bucket is sure: every
    # point takes the exact word, and the keys, the tallies, the census, the
    # cells, the singular labels and the census violations named are those
    # the tables give
    shift, ws = random_shift(0.5, 7), qp.build_windows(P, 0.5)
    singular_shift, singular_ws = random_shift(0.5, 8), qp.build_windows(P, 0.5, 1e-4)
    shift3, singular3 = random_shift(0.2, 0), normalize_shift([1, -1, 0, 0, 0])
    keys = enumerate_accepted_2d(20, shift, ws)[2]
    report = empirical_frequencies(20, shift, ws)
    census = overlap_census(20, shift3)
    (hull, interior), *counts = build_cells(10, shift3, 1e-9)
    with pytest.raises(SingularityError) as singular:
        empirical_frequencies(10, singular_shift, singular_ws)
    with pytest.raises(SingularityError) as singular_3d:
        overlap_census(8, singular3)
    seen = recorded_words(monkeypatch)
    monkeypatch.setattr(locate, "TABLE_MARGIN", 8.0)
    assert np.array_equal(enumerate_accepted_2d(20, shift, ws)[2], keys)
    assert empirical_frequencies(20, shift, ws) == report
    assert overlap_census(20, shift3) == census
    (got_hull, got_interior), *got_counts = build_cells(10, shift3, 1e-9)
    assert np.array_equal(got_hull, hull) and np.array_equal(got_interior, interior)
    assert got_counts == counts
    with pytest.raises(SingularityError) as got:
        empirical_frequencies(10, singular_shift, singular_ws)
    assert str(got.value) == str(singular.value)
    with pytest.raises(SingularityError) as got:
        overlap_census(8, singular3)
    assert str(got.value) == str(singular_3d.value)
    # the 2-d, tip, atom and neighbour tables, none sure of a word
    assert {len(loc.probes.window) for loc, *_ in seen} == {11, 2, 32, 30}
    for loc, _, _, word in seen:
        M = len(loc.probes.window) - loc.status
        assert M == 0 or not (word & 1 << M).any()
        for s in range(loc.status):
            inside, band = locate.status_bits(M, s)
            assert np.all(word & (inside | band) == band)
    # a violation among the exact words: the first in label order is named
    shift, ws = random_shift(0.2, 13), qp.build_windows(P, 0.2)
    labels = enumerate_accepted_2d(20, shift, ws)[0]
    inner = labels[np.abs(labels).max(axis=1) <= 18]
    index = inner.sum(axis=1)
    late1 = len(index) - 1 - int(np.argmax(index[::-1] == 1))
    early2 = int(np.argmax(index == 2))
    test_points = (inner[[late1, early2]] - shift.gamma) @ basis.W[:, :2]
    masks = {0: 0b100001, 1: 0b1111}
    _forged(monkeypatch, 11, list(zip(test_points, (0, 1))),
            lambda word, f: word >> 10 << 10 | masks[f])
    assert early2 < late1
    with pytest.raises(CensusViolationError,
                       match=r"type \[4,0\]_2 has zero analytic frequency at c=0.2"):
        empirical_frequencies(20, shift, ws)
    # and among the neighbours' exact words, a tip with no neighbour: the
    # least-key tip of the box, and a later one
    tips = hull[:, 0][[0, len(hull) // 2]]
    _forged(monkeypatch, 30, [(t, 0) for t in d_test_points(tips, shift3)],
            lambda word, f: 1 << 30)
    with pytest.raises(CensusViolationError) as got:
        overlap_census(10, shift3)
    assert str(got.value) == (f"tip {tuple(tips[0].tolist())} has overlap signature "
                              "(0, 0, 0), outside the five known classes")
