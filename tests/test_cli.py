import hashlib
import importlib
import json
import logging
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import quasiproj as qp
from quasiproj import cli
from quasiproj.cli import run
from quasiproj.errors import QcError, SingularityError
from quasiproj.io import RunConfig
from quasiproj.tiling2d import empirical_frequencies
from quasiproj.window import build_windows, enumerate_accepted_2d, random_shift


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


@pytest.mark.parametrize("args, digest", [
    (["--radius", "12"], "5c052d21cdc3bf3cfc9e9fcce64fbaf25238556fb6cc68a807eceb667510258b"),
    (["--c", "0", "--radius", "10"],
     "b6770f8ea081b965afba670819da42f3264bd607a5bb0413b99d6ee096f8a118"),
    (["--c", "0.2360679775", "--radius", "10"],
     "96ed83f7d75a749f6762ef783805cf3bcd6e29fed0c31b7b0c4f3afedfcafe32"),
])
def test_freq_stdout_is_pinned(args, digest, capsys):
    # the frequency table as written when the vertices were classified
    # against the whole box's key array, at c = 0.5, at c = 0 and at p^-3
    assert run(["freq", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    (["--radius", "8"], "2775440c0da878d940a3ec5c37e0b6bb117039a1066aa4de06f47dd074903f81"),
    (["--c", "0", "--radius", "8"],
     "3d81c6663bc11e3d360d5a2f01bedc828ba8456d32dc663479c5fc45c6c8d3e6"),
    (["--c", "0.3819660113", "--seed", "3", "--radius", "8"],
     "074e2313bb45043311c677e57c1ff7be37096138af6815b83fd3461d528f223c"),
])
def test_tiling2d_stdout_is_pinned(args, digest, capsys):
    # the tiling document as written when the labels were stacked from
    # per-index component columns, not decoded from their keys
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
    assert run(["nonsense"]) == 2
    assert run(["freq", "--format", "csv"]) == 2  # no such flag


def test_explicit_gamma_passthrough(tmp_path):
    out = tmp_path / "freq.csv"
    code = run(["freq", "--gamma", "0.1,0.1,0.1,0.1,0.1", "--radius", "8",
                "--out", str(out)])
    assert code == 0


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


def test_freq_names_the_enumerators_singular_label_before_classifying(P, basis,
                                                                     monkeypatch):
    # the REDRAW_ARGS draw: the first singular label is found across all
    # five index blocks before any vertex is classified
    shift = random_shift(0.5, 8)
    ws = build_windows(P, shift.c, 1e-4)
    with pytest.raises(SingularityError) as expected:
        enumerate_accepted_2d(10, shift, ws, basis)

    def unreachable(*args):
        raise AssertionError("a vertex was classified before the singular label raised")

    monkeypatch.setattr(qp.tiling2d, "neighbor_masks", unreachable)
    with pytest.raises(SingularityError) as got:
        empirical_frequencies(10, shift, ws, basis)
    assert str(got.value) == str(expected.value)


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

    monkeypatch.setattr(cli, "empirical_frequencies", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run(["freq", "--radius", "4"])


def test_tolerance_validation():
    assert RunConfig().tol == 1e-9
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
codes = [run([mode, "--c", "0.4", "--radius", radius, "--out", f"{out}/{mode}"])
         for mode, radius in [("windows", "1"), ("tiling2d", "4"), ("freq", "4"),
                              ("lattice3d", "5"), ("overlap-census", "6")]]
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
    "window": ["CUBE_VERTICES", "DecagonQ", "GridShift", "PolytopeP", "WindowSet",
               "build_decagon_Q", "build_polytope_P", "build_windows",
               "enumerate_accepted_2d", "enumerate_tips", "label_keys", "label_rows",
               "normalize_shift", "random_shift", "slice_window"],
    "pentagrid": ["PentagridTiling", "enumerate_intersections",
                  "k_vector_2d", "k_vector_3d", "tiling_from_pentagrid"],
    "tiling2d": ["CENSUS", "FrequencyReport", "VertexType", "analytic_A",
                 "analytic_probability", "census_support", "empirical_frequencies",
                 "neighbor_masks"],
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


@pytest.mark.parametrize("mode", ["overlap-census", "freq"])
def test_infeasible_radius_is_refused_before_allocating(mode, caplog):
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
    assert "radius 3000 would accept about" in caplog.text
    assert "above the 4 GB budget" in caplog.text
