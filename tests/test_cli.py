import hashlib
import importlib
import json
import logging
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import quasiproj as qp
from quasiproj.cli import MAX_SHIFT_DRAWS, _config_from_args, _parser, run, shift_draws
from quasiproj.errors import CensusViolationError, QcError, SingularityError
from quasiproj.tiling2d import empirical_frequencies
from quasiproj.scan2d import build_windows, enumerate_accepted_2d
from quasiproj.window import normalize_shift, random_shift


def test_freq_end_to_end(tmp_path):
    out = tmp_path / "freq.csv"
    code = run(["freq", "--c", "0.5", "--gamma", "auto", "--seed", "7",
                "--radius", "10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "I,n_pos,n_neg,analytic,empirical,count,abs_err"
    assert any(line.startswith("# sum_analytic") for line in lines)


def test_windows_degenerate_exit_code(tmp_path):
    code = run(["windows", "--c", "0", "--index", "5",
                "--out", str(tmp_path / "w.json")])
    assert code == 3


@pytest.mark.parametrize("c", ["1e-10", "8e-10", "0.99999999895", "0.9999999999"])
def test_a_c_beside_a_tip_exits_without_a_traceback(c, tmp_path):
    # within about CONSTRUCTION_TOL of a tip or of a vertex layer, the slice
    # windows are built, or the degenerate slice is named (exit 3); nothing
    # escapes run() as a traceback.  c and its mirror 1 - c both run, with
    # the slice at the tip the point 0: V_5 at 1e-10, V_1 at 1 - 1e-10
    out = str(tmp_path / "out")
    codes = [run(["freq", "--c", c, "--radius", "12", "--out", out]),
             run(["tiling2d", "--c", c, "--radius", "4", "--out", out]),
             run(["windows", "--c", c, "--out", out])]
    assert set(codes) <= {0, 2, 3}
    if c in ("1e-10", "0.9999999999"):
        assert codes == [0, 0, 0]


def test_windows_full_document(tmp_path):
    out = tmp_path / "w.json"
    assert run(["windows", "--c", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["degenerate_top"] is True
    assert sorted(doc["slices"]) == ["1", "2", "3", "4"]
    assert run(["windows", "--c", "0.5", "--index", "3",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["polygon"]) == 10


def test_windows_index_reads_the_window_set_it_checked(tmp_path):
    # below --tol, c leaves V_5 the point 0 in the full document, and an
    # index reads the same window set: 5 is degenerate, 3 is its slice "3"
    out = tmp_path / "w.json"
    assert run(["windows", "--c", "1e-6", "--tol", "1e-5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["degenerate_top"] is True and "5" not in doc["slices"]
    assert run(["windows", "--c", "1e-6", "--tol", "1e-5", "--index", "5",
                "--out", str(tmp_path / "5.json")]) == 3
    assert not (tmp_path / "5.json").exists()
    assert run(["windows", "--c", "1e-6", "--tol", "1e-5", "--index", "3",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["polygon"] == doc["slices"]["3"]["polygon"]


@pytest.mark.parametrize("args, digest", [
    (["--c", "0"], "28f859a65625b6870a75e6250f93d4934d99aa3220454f717c8fa2aab0174ff9"),
    (["--c", "0.3819660112501051"],
     "99fc8f64304b11788e574f0e2900aa92469192810f402c3b64092b613c591934"),
    (["--c", "0.5"], "1969f3a56b0bedeb3ad1d1ccc8dda6ca22f258ef00e4a32b5ba8521ab34d4dfc"),
    (["--c", "0.3", "--index", "3"],
     "7dd4738b114fe817cd3ea2787a79792e799fd705ec79c0a82adc94320866e122"),
])
def test_windows_stdout_is_pinned(args, digest, capsys):
    # the acceptance geometry as written at c = 0, p^-2 and 0.5, and one slice
    assert run(["windows", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args", [["overlap-census", "--radius", "8"], ["windows"]])
def test_a_negative_zero_c_runs_as_c_zero(args, caplog, capsys):
    # --c -0.0 passes the [0, 1) check; it was echoed as "c": -0.0, and the
    # census ended with "# c = -0" and the windows document held "c": -0.0
    outputs = []
    for c in ("-0.0", "0"):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="qc"):
            assert run([args[0], "--c", c, *args[1:]]) == 0
        outputs.append(capsys.readouterr().out)
        echo = [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("resolved config: ")]
        assert len(echo) == 1 and echo[0].startswith('resolved config: {"c": 0.0, ')
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("args, digest", [
    (["--radius", "12"], "5c052d21cdc3bf3cfc9e9fcce64fbaf25238556fb6cc68a807eceb667510258b"),
    (["--c", "0", "--radius", "10"],
     "b6770f8ea081b965afba670819da42f3264bd607a5bb0413b99d6ee096f8a118"),
    (["--c", "0.2360679775", "--radius", "10"],
     "96ed83f7d75a749f6762ef783805cf3bcd6e29fed0c31b7b0c4f3afedfcafe32"),
    # beside the tips, where about 1% of the masks take the exact word
    (["--c", "0.999999", "--radius", "40"],
     "ca18dbd45753bdd89cab2785b33710783af34f8fde36757d1ba4a313349e2a2d"),
    (["--c", "0.000001", "--radius", "40"],
     "5a12bc00585c4cf8d62f07d4721d0424cfcb3c280dca6e9c94e1df5deb2fe9bf"),
])
def test_freq_stdout_is_pinned(args, digest, capsys):
    # the frequency table as written when the vertices were classified
    # against the whole box's key array, at c = 0.5, at c = 0 and at p^-3,
    # and as the per-index edge tests wrote it beside the tips
    assert run(["freq", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    (["--radius", "8"], "2775440c0da878d940a3ec5c37e0b6bb117039a1066aa4de06f47dd074903f81"),
    (["--c", "0", "--radius", "8"],
     "3d81c6663bc11e3d360d5a2f01bedc828ba8456d32dc663479c5fc45c6c8d3e6"),
    (["--c", "0.3819660113", "--seed", "3", "--radius", "8"],
     "074e2313bb45043311c677e57c1ff7be37096138af6815b83fd3461d528f223c"),
    (["--radius", "20"], "5467c380b1c36709ee807ca4e5c9f7870c08bc04e9f22650c92058a2ee3cc26a"),
])
def test_tiling2d_stdout_is_pinned(args, digest, capsys):
    # the tiling document as written when the labels were stacked from
    # per-index component columns, not decoded from their keys, and its
    # edges found by key lookup; radius 20 spans two chunks of SCAN_ROWS
    assert run(["tiling2d", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    (["--c", "0.05", "--radius", "8"],
     "0b8a273390eef0837789cf9af142dbdf28f4bda0c13dad579c7775e1a50faf69"),
    (["--c", "0.4", "--radius", "10"],
     "257f1c5e3d5c52fd21e770cfd254f3ddbb6522ad860d123479cfd0fe394aaa45"),
    (["--c", "0.9", "--seed", "3", "--radius", "8"],
     "c50f6155b8c1f4ba6b4d00216e08f529ab9799bbf3c355a936be712ec12d9a1d"),
])
def test_lattice3d_stdout_is_pinned(args, digest, capsys):
    # the unit cells as written when they were looked up in the whole lattice
    assert run(["lattice3d", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    (["--radius", "8"], "262bd7a9d65da4f742c7c14dc52b660d3a9f3e3aaba2b51b75ea10a4eaea8965"),
    (["--c", "0.2", "--radius", "5"],
     "782514d25270b9752d18b980dd7e77414163c6bf9f2d203ec5f81141f95bdcc3"),
])
def test_overlap_census_stdout_is_pinned(args, digest, capsys):
    # the census table at c = 0.5 and at c = 0.2, the digests the CI run pins
    assert run(["overlap-census", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_tiling_svg(tmp_path):
    out = tmp_path / "tiling.svg"
    code = run(["tiling2d", "--c", "0.3819660113", "--seed", "3",
                "--radius", "8", "--out", str(out)])
    assert code == 0
    svg = out.read_text()
    assert svg.count("<path") > 100
    # the four render classes of the edge styles
    assert 'stroke-width="0.03" stroke-dasharray' in svg
    assert 'stroke-width="0.08" stroke-dasharray' in svg


def test_lattice_obj_and_census(tmp_path):
    out = tmp_path / "cells.obj"
    assert run(["lattice3d", "--c", "0.4", "--radius", "6",
                "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("\no ") > 3
    assert "\nv " in text and "\nf " in text

    census = tmp_path / "census.csv"
    assert run(["overlap-census", "--c", "0.4", "--radius", "8",
                "--out", str(census)]) == 0
    lines = census.read_text().strip().split("\n")
    assert lines[0] == "class,neighbors,K,J,count,frequency,analytic_ratio"
    assert len(lines) >= 6


_CLOSED_FORM = ("mean shared atoms with overlapping neighbors: "
                "{'A1': 8.0, 'A23': 9.4, 'A46': 9.75, 'A57': 10.8, 'A8': 10.33}")


@pytest.mark.parametrize("args,line", [
    # the line a sampled mean gave at this radius
    (["--c", "0.4", "--radius", "8"], _CLOSED_FORM),
    # every class has tips, though too few label rings for a sample
    (["--c", "0.2", "--radius", "5"], _CLOSED_FORM),
    # no tip of this box is in A23
    (["--radius", "5"], _CLOSED_FORM.replace("9.4", "nan")),
], ids=["radius-8", "radius-5-every-class", "radius-5-no-A23"])
def test_census_logs_the_shared_atoms_of_each_class(args, line, caplog, capsys):
    with caplog.at_level(logging.INFO, logger="qc"):
        assert run(["overlap-census", *args]) == 0
    shared = [r.getMessage() for r in caplog.records if "shared atoms" in r.getMessage()]
    assert shared == [line]
    assert ("A23,5,1,4,0," in capsys.readouterr().out) == ("nan" in line)


def test_config_errors():
    assert run(["freq", "--c", "1.5"]) == 2
    assert run(["freq", "--gamma", "1,2,3"]) == 2
    assert run(["freq", "--gamma", "a,b,c,d,e"]) == 2
    assert run(["freq", "--radius", "0"]) == 2
    assert run(["freq", "--seed=-1"]) == 2  # numpy's generator would raise ValueError
    # c = sum(gamma) mod 1 is lost: the sum overflows, or gamma_4's float
    # spacing, 16, swamps the other components
    assert run(["tiling2d", "--gamma=1e308,1e308,0,0,0", "--radius", "4"]) == 2
    assert run(["tiling2d", "--gamma=0.1,0.1,0.1,0.1,1e17", "--radius", "4"]) == 2
    # the windows depend on the shift only through --c, so windows refuses
    # a gamma, a seed and a radius, which it would ignore
    assert run(["windows", "--gamma=0.1,0.2,0.05,0.1,0.1"]) == 2
    assert run(["windows", "--seed", "3"]) == 2
    assert run(["windows", "--radius", "5"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["freq", "--format", "csv"]) == 2  # no such flag


@pytest.mark.parametrize("mode", ["tiling2d", "freq", "lattice3d", "overlap-census"])
def test_only_the_windows_mode_takes_an_index(mode, caplog):
    # an --index the mode would ignore is refused, not echoed back
    with caplog.at_level(logging.INFO, logger="qc"):
        assert run([mode, "--radius", "5", "--index", "2"]) == 2
    assert "resolved config" not in caplog.text
    with caplog.at_level(logging.INFO, logger="qc"):
        assert run([mode, "--radius", "5"]) == 0
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("resolved config: ")]
    assert json.loads(lines[0].partition(": ")[2])["index"] is None


_AUTO_GAMMA = ("[-0.4642495605500484, 0.6369616873214543, 0.2697867137638703, "
               "0.04097352393619469, 0.016527635528529094]")


@pytest.mark.parametrize("args, line", [
    (["freq", "--gamma=0.1,0.1,0.1,0.1,0.1", "--radius", "4"],
     '{"c": 0.5, "gamma": [0.1, 0.1, 0.1, 0.1, 0.1], "index": null, "mode": "freq", '
     '"out": null, "radius": 4, "seed": 0, "tol": 1e-09}'),
    (["windows", "--c", "0.3", "--index", "3"],
     '{"c": 0.3, "index": 3, "mode": "windows", "out": null, "tol": 1e-09}'),
    (["lattice3d", "--radius", "5"],
     f'{{"c": 0.5, "gamma": {_AUTO_GAMMA}, "index": null, "mode": "lattice3d", '
     '"out": null, "radius": 5, "seed": 0, "tol": 1e-09}'),
    (["overlap-census", "--radius", "6"],
     f'{{"c": 0.5, "gamma": {_AUTO_GAMMA}, "index": null, "mode": "overlap-census", '
     '"out": null, "radius": 6, "seed": 0, "tol": 1e-09}'),
], ids=["freq-explicit-gamma", "windows-index", "lattice3d-auto", "overlap-census-auto"])
def test_resolved_config_line_is_pinned(args, line, caplog, capsys):
    # the whole echo, its keys sorted: a run is repeated from it, and
    # perfbench reads the gamma a run used off it.  The lattice modes echo
    # eight keys, windows only the five options it reads
    with caplog.at_level(logging.INFO, logger="qc"):
        assert run(args) == 0
    assert [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("resolved config: ")] == [f"resolved config: {line}"]


def _checked(*argv):
    """The configuration of `qc freq *argv`, parsed and checked as run() does."""
    config = _parser().parse_args(["freq", *argv])
    _config_from_args(config)
    return config


def test_shift_draws_explicit_vs_auto():
    explicit = next(shift_draws(_checked("--gamma=0.1,0.1,0.1,0.1,0.1")))
    assert explicit.c == pytest.approx(0.5, abs=1e-12)
    auto1 = next(shift_draws(_checked("--c", "0.3", "--seed", "5")))
    auto2 = next(shift_draws(_checked("--c", "0.3", "--seed", "5")))
    assert auto1.gamma.tolist() == auto2.gamma.tolist()
    # an explicit shift is tried once, and auto draws MAX_SHIFT_DRAWS at most
    assert len(list(shift_draws(_checked("--gamma=0.1,0.1,0.1,0.1,0.1")))) == 1
    draws = list(shift_draws(_checked("--c", "0.3", "--seed", "5")))
    assert len(draws) == MAX_SHIFT_DRAWS
    assert all(d.c == 0.3 for d in draws)
    assert len({tuple(d.gamma.tolist()) for d in draws}) == MAX_SHIFT_DRAWS


def test_explicit_gamma_passthrough(tmp_path):
    out = tmp_path / "freq.csv"
    code = run(["freq", "--gamma", "0.1,0.1,0.1,0.1,0.1", "--radius", "8",
                "--out", str(out)])
    assert code == 0


def _reorderings(gamma):
    """gamma under the 10 elements of the dihedral group on its five slots,
    slot j taking component (s j + r) mod 5, each as a --gamma option."""
    return ["--gamma=" + ",".join(repr(float(gamma[(s * j + r) % 5])) for j in range(5))
            for s in (1, -1) for r in range(5)]


def _resolved(caplog):
    """The configuration echoed by the last run logged in caplog."""
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("resolved config: ")]
    return json.loads(lines[-1].partition(": ")[2])


def test_a_shift_summing_to_zero_runs_at_c_zero_in_any_order(caplog, capsys):
    # c is the fsum of gamma, so it does not depend on the order of the
    # components.  With the float sum, the orders that put -0.4 first ran at
    # c = 0.9999999999999999 and exited 3 (the index-1 slice is a tip there),
    # and -0.4 in slot 1 had gamma_0 moved to 0.10000000000000009
    outputs = set()
    for option in _reorderings([-0.4, 0.1, 0.1, 0.1, 0.1]):
        with caplog.at_level(logging.INFO, logger="qc"):
            assert run(["freq", option, "--radius", "20"]) == 0
        config = _resolved(caplog)
        assert config["c"] == 0.0
        assert config["gamma"] == [float(x) for x in option.partition("=")[2].split(",")]
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


_SEEDED_C = float(np.random.default_rng(31).uniform())


@pytest.mark.parametrize("gamma", [
    [-0.3, 0.05, 0.1, 0.2, -0.05],  # exact sum 2**-55 < tol: the c = 0 windows
    random_shift(0.5, 3).gamma,
    random_shift(qp.PHI ** -2, 3).gamma,
    random_shift(_SEEDED_C, 3).gamma,
], ids=["c-0", "c-0.5", "c-p^-2", "c-seeded"])
def test_permuting_gamma_leaves_every_count_unchanged(gamma, capsys):
    # the label box, its margin, the index and c are invariant under permuting
    # the slots of gamma, and a cyclic shift or a reversal only rotates or
    # reflects the projections, so the census tables are byte-identical.  The
    # permuted runs meet the labels in other chunks, scan lines and key order.
    # Precondition: normalize_shift leaves gamma as it is; a gamma_0 it moves
    # would translate the box along a different axis in each order.
    assert 0 <= sum(map(Fraction, gamma)) < 1
    assert normalize_shift(gamma).gamma.tolist() == list(gamma)
    for mode, radius in [("freq", "20"), ("overlap-census", "8")]:
        outputs = set()
        for option in _reorderings(gamma):
            assert run([mode, option, "--radius", radius]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1, mode


def test_a_singular_shift_is_singular_in_any_order():
    # only the exit code: which label is named first depends on the key order
    for mode, radius in [("freq", "20"), ("overlap-census", "8")]:
        for option in _reorderings([1, -1, 0, 0, 0]):
            assert run([mode, option, "--radius", radius]) == 3, (mode, option)


def test_deterministic_outputs(tmp_path):
    args = ["tiling2d", "--c", "0.5", "--seed", "1", "--radius", "6"]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_singular_census_names_a_label_off_the_tips(caplog):
    # the label lies on the decagon boundary and is not a tip; the census
    # keeps only the tips but still raises for it
    with caplog.at_level(logging.ERROR, logger="qc"):
        assert run(["overlap-census", "--gamma=1,-1,0,0,0", "--radius", "8"]) == 3
    assert ("label (-8, -8, -8, -7, -8) lands within eps of the decagon boundary"
            in caplog.text)


def test_census_redraw_echoes_the_second_draw(caplog):
    # the seed-1 draw at tol 1e-3 is singular; the next draw, seed 1 + 1009, is not
    with caplog.at_level(logging.INFO, logger="qc"):
        assert run(["overlap-census", "--c", "0.3", "--seed", "1", "--radius", "10",
                    "--tol", "1e-3"]) == 0
    assert caplog.text.count("redrawing") == 1
    echoed = json.loads(caplog.text.split("resolved config: ")[1].splitlines()[0])
    assert echoed["gamma"] == random_shift(0.3, 1 + 1009).gamma.tolist()


def test_singular_gamma_message_prints_plain_numbers(caplog):
    with caplog.at_level(logging.ERROR, logger="qc"):
        assert run(["lattice3d", "--gamma=1,-1,0,0,0", "--radius", "3"]) == 3
    assert "(1.0, -1.0, 0.0, 0.0, 0.0)" in caplog.text
    assert "np.float64" not in caplog.text


def test_zero_cells_warns(tmp_path, caplog):
    out = tmp_path / "cells.obj"
    with caplog.at_level(logging.INFO, logger="qc"):
        assert run(["lattice3d", "--radius", "2", "--out", str(out)]) == 0
    assert "580 points, 90 tips, 0 complete cells" in caplog.text
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "no complete cells" in warnings[0].getMessage()
    assert out.read_text() == "# quasiperiodic unit cells (one object per cell)\n"


# seed 8 at c = 0.5, radius 10, tol 1e-4: the first draw puts a label of the
# box within tol of a window boundary, the second draw is regular
REDRAW_ARGS = ["freq", "--c", "0.5", "--seed", "8", "--radius", "10", "--tol", "1e-4"]


def _echoed_gamma(caplog):
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("resolved config: ")]
    assert len(lines) == 1
    return json.loads(lines[0].partition(": ")[2])["gamma"]


def test_auto_gamma_redraws_a_singular_draw(tmp_path, caplog):
    out = tmp_path / "freq.csv"
    with caplog.at_level(logging.INFO, logger="qc"):
        assert run(REDRAW_ARGS + ["--out", str(out)]) == 0
    assert caplog.text.count("redrawing") == 1
    assert _echoed_gamma(caplog) == random_shift(0.5, 8 + 1009).gamma.tolist()
    assert out.read_text().startswith("I,n_pos,n_neg")


def test_explicit_singular_gamma_exits_3(caplog):
    gamma = ",".join(map(repr, random_shift(0.5, 8).gamma.tolist()))
    with caplog.at_level(logging.INFO, logger="qc"):
        assert run(["freq", "--radius", "10", "--tol", "1e-4", f"--gamma={gamma}"]) == 3
    assert "redrawing" not in caplog.text
    assert "lands within eps of a window boundary" in caplog.text


def test_freq_names_the_enumerators_singular_label_before_classifying(P, monkeypatch):
    # the REDRAW_ARGS draw: the first singular label is found across all
    # five index blocks before any vertex is classified
    shift = random_shift(0.5, 8)
    ws = build_windows(P, shift.c, 1e-4)
    with pytest.raises(SingularityError) as expected:
        enumerate_accepted_2d(10, shift, ws)

    classified = []

    def pieces(*args):
        for piece in qp.scan2d.scan_2d(*args):
            classified.append(len(piece.keys))
            yield piece

    monkeypatch.setattr(qp.tiling2d, "scan_2d", pieces)
    with pytest.raises(SingularityError) as got:
        empirical_frequencies(10, shift, ws)
    assert str(got.value) == str(expected.value)
    # the scan types the vertices of each chunk it yields, so none is
    assert classified == []


def test_user_errors_exit_2_before_running(caplog):
    with caplog.at_level(logging.ERROR, logger="qc"):
        assert run(["freq", "--radius", "2"]) == 2          # no complete vertex
        assert run(["overlap-census", "--radius", "2"]) == 2  # no complete tip
        assert run(["freq", "--radius", "3104"]) == 2       # int64 label keys
        assert run(["windows", "--index", "7"]) == 2
        assert run(["freq", "--gamma", "nan,0,0,0,0"]) == 2
    assert caplog.text.count("configuration error") == 5
    assert "label box too small" in caplog.text
    assert "no boundary-complete tips" in caplog.text


def test_internal_value_error_is_not_a_configuration_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr("quasiproj.tiling2d.empirical_frequencies", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run(["freq", "--radius", "4"])


_ZERO_SIGNATURES = """
import sys
import numpy as np
import quasiproj.lattice3d
from quasiproj.cli import main, run

def zero_signatures(points, *args):
    return np.zeros((points.shape[1], 3), dtype=np.int64)

quasiproj.lattice3d.overlap_signatures = zero_signatures
args = ["overlap-census", "--radius", "8"]
if sys.argv[1:] == ["main"]:
    sys.argv = ["qc", *args]
    main()
else:
    run(args)
"""


def test_a_census_violation_is_a_fault_with_a_traceback(monkeypatch):
    # a signature outside the five classes is a fault in the program, not a
    # configuration error, so it is raised, and a qc process ends with a
    # traceback and exit code 1
    monkeypatch.setattr("quasiproj.lattice3d.overlap_signatures",
                        lambda points, *args: np.zeros((points.shape[1], 3), dtype=np.int64))
    with pytest.raises(CensusViolationError) as err:
        run(["overlap-census", "--radius", "8"])
    assert str(err.value) == ("tip (-5, -5, -4, -5, -5) has overlap signature (0, 0, 0), "
                              "outside the five known classes")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    # through run() and through main(), the entry point of qc, which freezes
    # the import heap first
    for entry in ([], ["main"]):
        proc = subprocess.run([sys.executable, "-c", _ZERO_SIGNATURES, *entry], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr
        assert proc.stderr.rstrip().endswith("CensusViolationError: " + str(err.value))


def test_tolerance_validation(caplog, capsys):
    with caplog.at_level(logging.INFO, logger="qc"):
        assert run(["windows"]) == 0
    assert '"tol": 1e-09' in caplog.text
    for tol in ("0", "-1e-9", "nan"):
        assert run(["freq", "--tol", tol]) == 2


def test_auto_gamma_gives_up_naming_the_tolerance(caplog):
    # at tol 1e-2 every draw puts some label of the radius-30 box within tol
    # of a window boundary
    with caplog.at_level(logging.INFO, logger="qc"):
        assert run(["freq", "--radius", "30", "--tol", "1e-2"]) == 3
    assert caplog.text.count("redrawing") == 20
    assert "no regular shift found after 20 draws" in caplog.text
    assert "every draw was singular at tol=0.01" in caplog.text


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from quasiproj.cli import run
from quasiproj.errors import QcError
out = sys.argv[1]
codes = [run([*args, "--c", "0.4", "--out", f"{out}/{args[0]}"])
         for args in [["windows"], ["tiling2d", "--radius", "4"], ["freq", "--radius", "4"],
                      ["lattice3d", "--radius", "5"], ["overlap-census", "--radius", "6"]]]
sys.exit(max(codes))
"""


def test_every_mode_runs_without_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.iterdir())) == 5


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_RUN_AND_REPORT = """
import json, os, sys
from quasiproj.cli import run
from quasiproj.errors import QcError
code = run(["freq", "--radius", "12", "--out", sys.argv[1]])
print(json.dumps({"code": code, "threads": len(os.listdir("/proc/self/task")),
                  "env": {v: os.environ.get(v) for v in sys.argv[2:]},
                  "pentagrid": "quasiproj.pentagrid" in sys.modules}))
"""


def _fresh_python(code, *args, **env_vars):
    """JSON printed by `code` in a new interpreter with no BLAS thread variables but env_vars."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env.update(env_vars, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_qc_runs_on_one_blas_thread(tmp_path):
    # numpy's OpenBLAS would otherwise start a second thread that spins
    report = _fresh_python(_RUN_AND_REPORT, tmp_path / "f.csv", *_BLAS_THREAD_VARS)
    assert report == {"code": 0, "threads": 1, "pentagrid": False,
                      "env": dict.fromkeys(_BLAS_THREAD_VARS, "1")}


def test_a_preset_blas_thread_count_is_kept(tmp_path):
    report = _fresh_python(_RUN_AND_REPORT, tmp_path / "f.csv", *_BLAS_THREAD_VARS,
                           OPENBLAS_NUM_THREADS="2")
    assert report["code"] == 0
    assert report["env"] == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None,
                             "MKL_NUM_THREADS": None}


_ENTRY_AND_REPORT = """
import gc, json, sys
from quasiproj.cli import main, run
entry, out = sys.argv[1:]
args = ["freq", "--radius", "4", "--out", out]
if entry == "main":
    sys.argv = ["qc", *args]
    try:
        main()
    except SystemExit as exc:
        code = exc.code
else:
    code = run(args)
print(json.dumps({"code": code, "frozen": gc.get_freeze_count() > 0}))
"""


def test_the_entry_point_freezes_the_import_heap_and_the_library_call_does_not(tmp_path):
    # main(), the entry point of qc and of python -m quasiproj.cli, moves the
    # import heap out of the collector's reach, so the interpreter's final
    # collections skip it; run() leaves an in-process caller's heap as it was
    reports = {entry: _fresh_python(_ENTRY_AND_REPORT, entry, tmp_path / entry)
               for entry in ("main", "run")}
    assert reports == {"main": {"code": 0, "frozen": True},
                       "run": {"code": 0, "frozen": False}}
    assert (tmp_path / "main").read_bytes() == (tmp_path / "run").read_bytes()


_RUN_AND_LIST_MODULES = """
import json, sys
from quasiproj.cli import run
codes = [run([mode, "--radius", "8", "--out", f"{sys.argv[1]}/{mode}"])
         for mode in ("freq", "overlap-census")]
print(json.dumps({"codes": codes, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_qc_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma on its first call, which is about half the
    # time of a small run
    report = _fresh_python(_RUN_AND_LIST_MODULES, tmp_path)
    assert report == {"codes": [0, 0], "numpy.ma": False}


_RUN_AND_LIST_LOADED = """
import json, sys
import numpy.linalg

def lapack(*args, **kwargs):
    raise AssertionError("a LAPACK routine was called")

for name in ("inv", "solve", "det", "lstsq", "eig", "svd"):
    setattr(numpy.linalg, name, lapack)
from quasiproj.cli import run
out, modes = sys.argv[1], json.loads(sys.argv[2])
codes = [run([*args, "--c", "0.4", "--out", f"{out}/{args[0]}"]) for args in modes]
print(json.dumps({"codes": codes, "loaded": sorted(
    name for name in ("dataclasses", "numpy.random", "quasiproj.lattice3d",
                      "quasiproj.locate", "quasiproj.pentagrid", "quasiproj.scan2d",
                      "quasiproj.tiling2d")
    if name in sys.modules)}))
"""


@pytest.mark.parametrize("modes, loaded", [
    ([["windows"], ["tiling2d", "--radius", "4"], ["freq", "--radius", "4"]],
     ["quasiproj.locate", "quasiproj.scan2d", "quasiproj.tiling2d"]),
    ([["lattice3d", "--radius", "5"], ["overlap-census", "--radius", "6"]],
     ["quasiproj.lattice3d", "quasiproj.locate"]),
    ([["tiling2d", "--radius", "4"]], ["quasiproj.locate", "quasiproj.scan2d"]),
], ids=["2-d", "3-d", "tiling"])
def test_each_mode_loads_only_what_it_runs(modes, loaded, tmp_path):
    # the 2-d modes never load lattice3d or the tip scan, the 3-d modes never
    # load tiling2d or the 2-d scan, both load the locator that makes every
    # window decision of both scans, the tiling finds its edges among its
    # vertices' keys and does not load tiling2d either, no mode loads
    # pentagrid, dataclasses or numpy.random (auto gamma is drawn in pure
    # Python), and none calls into LAPACK
    report = _fresh_python(_RUN_AND_LIST_LOADED, tmp_path, json.dumps(modes),
                           OPENBLAS_NUM_THREADS="1")
    assert report == {"codes": [0] * len(modes), "loaded": loaded}


def test_importing_the_package_loads_no_numpy():
    report = _fresh_python(
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        "import quasiproj\n"
        "print(json.dumps(['numpy' in sys.modules, dict(os.environ) == before]))")
    assert report == [False, True]


_OLD_EXPORTS = {
    "geometry": ["DEFAULT_EPS", "PHI", "THETA", "ConvexWindow", "ProjectionBasis",
                 "make_basis"],
    "window": ["CUBE_VERTICES", "DecagonQ", "GridShift", "PolytopeP",
               "build_decagon_Q", "build_polytope_P", "build_windows",
               "enumerate_accepted_2d", "normalize_shift", "random_shift"],
    # the old exports that window no longer forwards, at their homes
    "scan": ["label_keys"],
    "scan2d": ["WindowSet", "slice_window"],
    "pentagrid": ["PentagridTiling", "enumerate_intersections",
                  "k_vector_2d", "tiling_from_pentagrid"],
    "tiling2d": ["CENSUS", "FrequencyReport", "VertexType", "analytic_A",
                 "analytic_probability", "census_support", "empirical_frequencies"],
    "lattice3d": ["ANALYTIC_CLASS_FREQUENCIES", "OVERLAP_OFFSETS", "OverlapCensus",
                  "build_cells", "overlap_census", "overlap_signatures"],
}


def test_lazy_namespace_keeps_every_export():
    import quasiproj as qp
    listed = dir(qp)
    for module_name, names in _OLD_EXPORTS.items():
        module = getattr(qp, module_name)
        assert module is importlib.import_module(f"quasiproj.{module_name}")
        for name in names:
            assert getattr(qp, name) is getattr(module, name)
            assert name in listed and name in qp.__all__
    assert qp.errors.QcError is QcError
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        qp.missing


def test_the_readme_library_example_runs():
    # the first python block under "## Library", so the documented calls
    # cannot drift from the signatures
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].n_vertices > 0 and namespace["census"].n_tips > 0


@pytest.mark.parametrize("tol", ["0.3", "0.45", "0.6"])
def test_coarse_tolerance_is_a_configuration_error(tol, tmp_path, caplog):
    # the windows do not depend on --tol; a --tol that reaches the centre of
    # one (V_1 and V_5 at c = 0.5 are 0.4045 wide) is refused by name
    out = tmp_path / "w.json"
    with caplog.at_level(logging.ERROR, logger="qc"):
        code = run(["windows", "--tol", tol, "--out", str(out)])
    if tol == "0.3":
        assert code == 0
        reference = tmp_path / "default.json"
        assert run(["windows", "--out", str(reference)]) == 0
        doc, default = json.loads(out.read_text()), json.loads(reference.read_text())
        assert doc.pop("eps") == 0.3 and default.pop("eps") == 1e-9
        assert doc == default
    else:
        assert code == 2
        assert f"configuration error: --tol {tol} is not below 0.404508" in caplog.text
    assert "radius-1/p" not in caplog.text and "strictly inside" not in caplog.text


def test_coarse_tolerance_for_the_lattice_names_the_inner_decagon(caplog):
    with caplog.at_level(logging.ERROR, logger="qc"):
        assert run(["overlap-census", "--radius", "6", "--tol", "0.6"]) == 2
    assert "--tol 0.6 is not below 0.587785" in caplog.text
    assert "the inner decagon" in caplog.text
    assert "redrawing" not in caplog.text


@pytest.mark.parametrize("mode", ["overlap-census", "lattice3d"])
def test_3d_modes_refuse_a_tol_within_the_float_error_of_the_points(mode, caplog):
    # cells and overlap classes are read off the tip scan's test points, as
    # vertex types are off the 2-d scan's, so the same bound holds, with a
    # message of the same form
    with caplog.at_level(logging.ERROR, logger="qc"):
        assert run([mode, "--radius", "8", "--tol", "1e-20"]) == 2
    assert [r.getMessage() for r in caplog.records] == [
        "configuration error: eps 1e-20 is not above 1.8e-13, the float error of the "
        "test points at radius 8, so cells and overlap classes cannot be read off "
        "them; use a larger tolerance"]


@pytest.mark.parametrize("mode", ["lattice3d", "tiling2d"])
def test_infeasible_radius_is_refused_before_allocating(mode, caplog):
    # only the modes that hold labels refuse a radius by the memory budget;
    # the streaming modes hold one scan chunk and run to MAX_KEY_RADIUS
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with caplog.at_level(logging.ERROR, logger="qc"):
            code = run([mode, "--radius", "3000"])
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert elapsed < 1.0
    assert peak < 16 * 2 ** 20
    assert "radius 3000 is above" in caplog.text
    assert "the 4 GB memory budget" in caplog.text
