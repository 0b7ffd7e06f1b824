import tracemalloc
from collections import Counter

import numpy as np
import pytest

import quasiproj as qp
from quasiproj.errors import CensusViolationError
from quasiproj.tiling2d import (CENSUS, VertexType, analytic_A,
                                analytic_probability, census_support,
                                empirical_frequencies, neighbor_counts)
from quasiproj.window import (accepted_2d_blocks, enumerate_accepted_2d, label_columns,
                              label_keys, label_rows, random_shift)

from helpers import accept_2d_bulk
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
    (n_pos, n_neg) neighbor_counts gives them one index block at a time."""
    none = np.empty(0, dtype=np.int64)
    keys = [none] + accepted_2d_blocks(radius, shift, ws, basis) + [none]
    parts = []
    for index in range(1, 6):
        labels = np.column_stack(label_columns(keys[index], radius))
        inside = np.abs(labels).max(axis=1) <= edge
        n_pos, n_neg = neighbor_counts(keys[index][inside], keys[index + 1],
                                       keys[index - 1], radius)
        parts.append((keys[index][inside], labels[inside], n_pos, n_neg))
    keys, labels, n_pos, n_neg = (np.concatenate(p) for p in zip(*parts))
    order = np.argsort(keys)
    return labels[order], n_pos[order], n_neg[order]


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


def test_star_vertex_has_five_positive_edges(patch, basis):
    shift, ws, inner, n_pos, n_neg = patch
    index = inner.sum(axis=1)
    stars = np.flatnonzero((index == 1) & (n_pos == 5) & (n_neg == 0))
    assert len(stars) > 0
    s = stars[0]
    vt = VertexType(int(index[s]), int(n_pos[s]), int(n_neg[s]))
    assert (vt.n_pos, vt.n_neg) in CENSUS[vt.index]
    assert vt == VertexType(1, 5, 0)


def test_observed_types_within_census(patch, basis):
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

def test_empirical_report_structure(basis, windows_for):
    shift = random_shift(0.5, 7)
    rep = empirical_frequencies(14, shift, windows_for(0.5), basis)
    assert rep.n_vertices == sum(r.count for r in rep.rows)
    assert rep.analytic_total == pytest.approx(1.0, abs=1e-9)
    # rows sorted and unique
    keys = [(r.index, r.n_pos, r.n_neg) for r in rep.rows]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_empirical_symmetric_at_half(basis, windows_for):
    # at the fixed point c = 1/2 the construction is symmetric under
    # (I, n, n') -> (6-I, n', n)
    shift = random_shift(0.5, 21)
    rep = empirical_frequencies(22, shift, windows_for(0.5), basis)
    emp = {(r.index, r.n_pos, r.n_neg): r.empirical for r in rep.rows}
    for (i, n, nn), v in emp.items():
        assert emp.get((6 - i, nn, n), 0.0) == pytest.approx(v, abs=0.02)


def test_empirical_five_types_at_breakpoint(basis, windows_for):
    shift = random_shift(PINV2, 17)
    rep = empirical_frequencies(18, shift, windows_for(PINV2), basis)
    observed2 = {(r.n_pos, r.n_neg) for r in rep.rows if r.index == 2 and r.count}
    assert observed2 <= {(5, 0), (4, 1), (3, 1), (3, 0), (2, 1)}
    assert len(observed2) == 5


def test_census_closure_statistical(basis, windows_for):
    # every type with positive analytic frequency shows up in a patch large
    # enough that its expected count is comfortably above zero (radius 22,
    # about 2.4e4 boundary-complete vertices; rarest expected count ~ freq*N)
    for c, seed in ((0.5, 7), (0.15, 7)):
        shift = random_shift(c, seed)
        rep = empirical_frequencies(22, shift, windows_for(c), basis)
        counts = {(r.index, r.n_pos, r.n_neg): r.count for r in rep.rows}
        for vt in census_support(c):
            expected = analytic_probability(*vt, c) * rep.n_vertices
            if expected >= 25:
                assert counts.get(tuple(vt), 0) > 0, (c, vt, expected)


def test_index_population_shifts_with_c(basis, windows_for):
    # the window V_1 is the slice at height 1 - c, which shrinks toward the
    # bottom tip as c grows, while V_5 (height 5 - c) grows away from the top
    # tip: index-1 vertices thin out and index-5 vertices appear.  (Consistent
    # with index 5 being absent at c = 0 and with the c -> 1 - c mirror.)
    lo = empirical_frequencies(16, random_shift(0.2, 23), windows_for(0.2), basis)
    hi = empirical_frequencies(16, random_shift(0.8, 23), windows_for(0.8), basis)

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
                                                          basis, windows_for):
    # the per-block tally against neighbour counts looked up in the key
    # array of the whole box
    shift = random_shift(c, seed)
    labels, _, keys = enumerate_accepted_2d(radius, shift, windows_for(c), basis)
    inner = labels[np.abs(labels).max(axis=1) <= radius - 2]
    assert set(labels.sum(axis=1).tolist()) - set(inner.sum(axis=1).tolist()) == emptied
    n_pos, n_neg = whole_box_neighbor_counts(inner, keys, radius)
    expected = Counter(zip(inner.sum(axis=1).tolist(), n_pos.tolist(), n_neg.tolist()))
    rep = empirical_frequencies(radius, shift, windows_for(c), basis)
    assert rep.n_vertices == len(inner)
    assert {(r.index, r.n_pos, r.n_neg): r.count for r in rep.rows if r.count} == expected


def test_census_violation_names_the_first_offending_type(basis, windows_for,
                                                         monkeypatch):
    # at c = 0.2 the type [4,0]_2 is in the census but has zero frequency
    shift = random_shift(0.2, 13)
    labels, _, _ = enumerate_accepted_2d(8, shift, windows_for(0.2), basis)
    inner = labels[np.abs(labels).max(axis=1) <= 6]
    first2 = int(np.argmax(inner.sum(axis=1) == 2))
    original = qp.tiling2d.neighbor_counts

    def doctored(vertices, types):
        # the counts of these vertices, in whichever index block holds them
        doctor = dict(zip(label_keys(inner[vertices], 8).tolist(), types))

        def counts(keys, *args):
            n_pos, n_neg = original(keys, *args)
            for key, (n, nn) in doctor.items():
                row = label_rows(keys, key)
                if row >= 0:
                    n_pos[row], n_neg[row] = n, nn
            return n_pos, n_neg
        monkeypatch.setattr(qp.tiling2d, "neighbor_counts", counts)

    index = inner.sum(axis=1)
    doctored([first2 + 3, first2], [(1, 1), (4, 0)])
    with pytest.raises(CensusViolationError,
                       match=r"type \[4,0\]_2 has zero analytic frequency at c=0.2"):
        empirical_frequencies(8, shift, windows_for(0.2), basis)
    doctored([first2 + 3, first2], [(4, 0), (1, 1)])
    with pytest.raises(CensusViolationError,
                       match=rf"type \[1,1\]_{index[first2]} is outside the census"):
        empirical_frequencies(8, shift, windows_for(0.2), basis)
    # label order across the index blocks: an index-1 vertex after first2
    later1 = first2 + int(np.argmax(index[first2:] == 1))
    doctored([later1, first2], [(1, 1), (4, 0)])
    with pytest.raises(CensusViolationError,
                       match=r"type \[4,0\]_2 has zero analytic frequency at c=0.2"):
        empirical_frequencies(8, shift, windows_for(0.2), basis)


def test_freq_working_set_per_accepted_label(basis, windows_for):
    # the scan keeps 8 B, one int64 key, per accepted label, and the tally,
    # scan included, peaks within 64 B per label
    shift = random_shift(0.5, 0)
    ws = windows_for(0.5)
    tracemalloc.start()
    try:
        blocks = accepted_2d_blocks(60, shift, ws, basis)
        n = sum(len(keys) for keys in blocks)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        empirical_frequencies(60, shift, ws, basis)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert n > 90000
    assert sum(keys.nbytes for keys in blocks) == 8 * n
    assert all(keys.base is None and keys.dtype == np.int64 for keys in blocks)
    assert peak <= 64 * n
