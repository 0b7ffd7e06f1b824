import json

import numpy as np
import pytest

import quasiproj as qp
from quasiproj.errors import ConfigError
from quasiproj.io import (SVG_STYLES, TilingDocument, build_tiling_document, cells_obj,
                          frequency_csv, overlap_csv, render_svg, window_document,
                          write_json, write_text)
from quasiproj.lattice3d import OverlapCensus, build_cells
from quasiproj.tiling2d import FrequencyReport, FrequencyRow
from quasiproj.window import random_shift

from helpers import cells_obj_reference, find_tips, neighbor_masks, tiling_svg_reference


def test_empty_document_svg():
    doc = TilingDocument(labels=np.empty((0, 5), dtype=np.int64),
                         points=np.empty((0, 2)),
                         edges=np.empty((0, 2), dtype=np.int64))
    svg = render_svg(doc)
    assert svg.startswith("<?xml")
    assert "<svg" in svg and "</svg>" in svg
    assert "<path" not in svg


def test_single_edge_svg():
    doc = TilingDocument(labels=np.array([(0, 0, 0, 1, 0), (1, 0, 0, 1, 0)]),
                         points=np.array([(0.0, 0.5), (1.0, 0.5)]),
                         edges=np.array([(0, 1)]))
    svg = render_svg(doc)
    assert svg.count("<path") == 1
    assert 'stroke-dasharray="0.12 0.08"' in svg
    assert 'stroke-width="0.03"' in svg
    # y axis flipped
    assert "M 0 -0.5 L 1 -0.5" in svg


def test_svg_deterministic(windows_for):
    shift = random_shift(0.5, 7)
    ws = windows_for(0.5)
    doc1 = build_tiling_document(6, shift, ws)
    doc2 = build_tiling_document(6, shift, ws)
    assert render_svg(doc1) == render_svg(doc2)
    # all four stroke classes appear in a decent patch
    svg = render_svg(doc1)
    for cls in ("0.12 0.08", 'stroke-width="0.08"', 'stroke-width="0.03"'):
        assert cls in svg


def test_document_edges_consistent(windows_for):
    shift = random_shift(0.5, 7)
    doc = build_tiling_document(6, shift, windows_for(0.5))
    labels = {tuple(lab) for lab in doc.labels.tolist()}
    assert len(labels) == len(doc.labels) == len(doc.points)
    index = doc.labels.sum(axis=1)
    paths = [line for line in render_svg(doc).splitlines() if line.startswith("<path")]
    assert len(paths) == len(doc.edges)
    pos_ends = 0
    neg_ends = 0
    for (i, j), path in zip(doc.edges.tolist(), paths):
        assert index[j] == index[i] + 1  # stored in the positive direction
        # the stroke class is the one of the lower end's index
        assert path.startswith(f'<path {SVG_STYLES[index[i]]} d=')
        # unit step in exactly one lattice coordinate
        diff = doc.labels[j] - doc.labels[i]
        assert np.abs(diff).sum() == 1
        pos_ends += 1
        neg_ends += 1
    # handshake: every edge has one positive and one negative endpoint
    assert pos_ends == neg_ends == len(doc.edges)


@pytest.mark.parametrize("c", [0.0, qp.PHI ** -2, 0.5, 0.9])
def test_document_edges_are_the_neighbour_mask_steps(c, basis, windows_for):
    # the edges k -> k + e_m are bits 0-4 of the neighbour masks at the
    # re-projected test points (k - gamma) . W, less the steps out of the
    # box's top face (k_m = R); R = 20 spans two chunks of SCAN_ROWS
    shift, ws = random_shift(c, 1), windows_for(c)
    for radius in (8, 20):
        doc = build_tiling_document(radius, shift, ws)
        index = doc.labels.sum(axis=1)
        points = ((doc.labels - shift.gamma) @ basis.W[:, :2]).T
        masks = np.zeros(len(doc.labels), dtype=np.int64)
        for i in range(1, 6):
            at = index == i
            masks[at] = neighbor_masks(points[:, at], i, ws)
        steps = (masks[:, None] >> np.arange(5)) & 1 == 1
        steps &= doc.labels < radius
        row = {label: n for n, label in enumerate(map(tuple, doc.labels.tolist()))}
        unit = np.eye(5, dtype=np.int64)
        expected = [[i, row[tuple((doc.labels[i] + unit[m]).tolist())]]
                    for i, m in zip(*map(np.ndarray.tolist, np.nonzero(steps)))]
        assert len(expected) > 0
        assert doc.edges.tolist() == sorted(expected)


@pytest.mark.parametrize("c", [0.0, qp.PHI ** -2, 0.5])
def test_svg_matches_reference_writer(c, basis, windows_for):
    # c = 0 has the degenerate top window
    for seed in (1, 2):
        shift = random_shift(c, seed)
        for radius in (6, 7, 8):
            doc = build_tiling_document(radius, shift, windows_for(c))
            assert render_svg(doc) == tiling_svg_reference(radius, shift,
                                                           windows_for(c), basis)


@pytest.mark.parametrize("c,seed", [(0.4, 3), (0.7, 5)])
def test_cells_obj_matches_reference_writer(c, seed, P, Q, lattice_for):
    shift = random_shift(c, seed)
    for radius in (8, 10):
        lat = lattice_for(radius, shift)
        tips = find_tips(lat, Q)
        inner = tips[np.abs(tips).max(axis=1) <= radius - 3]
        assert len(inner) > 0
        (hull, interior), _, _ = build_cells(radius, shift, 1e-9)
        assert np.array_equal(hull[:, 0], inner)
        for n in (len(inner), 0):
            assert (cells_obj((hull[:n], interior[:n]))
                    == cells_obj_reference(inner[:n], lat, P))


def test_frequency_csv_format():
    rep = FrequencyReport(c=0.5, rows=(FrequencyRow(1, 5, 0, 1.0, 0.975, 39),),
                          n_vertices=40)
    text = frequency_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "I,n_pos,n_neg,analytic,empirical,count,abs_err"
    assert lines[1] == "1,5,0,1,0.975,39,0.025"
    assert lines[-1] == "# sum_analytic = 1"
    assert lines[-2] == "# n_vertices = 40"


def test_overlap_csv_format():
    census = OverlapCensus(
        c=0.2, n_tips=10,
        counts={"A1": 5, "A23": 1, "A46": 2, "A57": 1, "A8": 1},
        frequencies={"A1": 0.5, "A23": 0.1, "A46": 0.2, "A57": 0.1, "A8": 0.1},
        analytic=dict(qp.ANALYTIC_CLASS_FREQUENCIES),
        shared_atoms={"A1": 8.0, "A23": 9.4, "A46": 9.75, "A57": 10.8, "A8": 31 / 3})
    text = overlap_csv(census)
    lines = text.strip().split("\n")
    assert lines[0] == "class,neighbors,K,J,count,frequency,analytic_ratio"
    assert lines[1].startswith("A1,4,0,4,5,0.5,")
    assert lines[3].startswith("A46,4,1,3,2,0.2,")


def test_window_document_structure(windows_for):
    doc = window_document(windows_for(0.5))
    assert len(doc["polytope"]["vertices"]) == 22
    assert len(doc["polytope"]["edges"]) == 40
    assert len(doc["polytope"]["faces"]) == 20
    assert len(doc["decagon"]["vertices"]) == 10
    assert sorted(doc["slices"]) == ["1", "2", "3", "4", "5"]
    # polygons are CCW (positive shoelace)
    from helpers import polygon_area
    for s in doc["slices"].values():
        assert polygon_area(np.array(s["polygon"])) > 0
    # JSON-able and deterministic
    assert write_json(doc) == write_json(json.loads(write_json(doc)))


def test_cells_obj_dedupes_shared_vertices():
    shift = random_shift(0.5, 11)
    (hull, interior), _, _ = build_cells(8, shift, 1e-9)
    # find two tips one z-period apart: their cells share the touching tip
    row_of = {tuple(t): i for i, t in enumerate(hull[:, 0].tolist())}
    pair = None
    for i, t in enumerate(hull[:, 0].tolist()):
        other = row_of.get(tuple(x + 1 for x in t))
        if other is not None:
            pair = [i, other]
            break
    assert pair is not None
    text = cells_obj((hull[pair], interior[pair]))
    n_v = text.count("\nv ")
    n_f = text.count("\nf ")
    assert n_f == 40  # 20 faces per cell
    assert n_v == 43  # 2 * 22 minus the shared touching vertex
    assert text.count("\no ") == 2


def test_write_text_error_names_path(tmp_path):
    bad = tmp_path / "no_such_dir" / "out.csv"
    with pytest.raises(ConfigError, match="no_such_dir"):
        write_text(str(bad), "hello")
    good = tmp_path / "out.csv"
    write_text(str(good), "hello")
    assert good.read_text() == "hello"
