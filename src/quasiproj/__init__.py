"""Generalized Penrose tilings and 3-d quasiperiodic lattices from the 5-d lattice.

Two independent constructions of the same objects: the de Bruijn pentagrid
(grids and their dual meshes) and the cut-and-project window of acceptance
(the projected 5-cube).  The package builds both, cross-checks them, and
validates analytic vertex-type and cell-overlap frequencies against counts.

The names below load their submodule on first use (PEP 562), so importing
the package loads no numpy and leaves the caller's thread settings alone.
`quasiproj.cli` is not among them: importing it pins BLAS to one thread.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "geometry": ("DEFAULT_EPS", "PHI", "THETA", "ConvexWindow", "ProjectionBasis",
                 "make_basis"),
    "window": ("CUBE_VERTICES", "DecagonQ", "GridShift", "PolytopeP", "WindowSet",
               "build_decagon_Q", "build_polytope_P", "build_windows",
               "enumerate_accepted_2d", "enumerate_tips", "label_keys",
               "label_rows", "normalize_shift", "random_shift", "slice_window"),
    "pentagrid": ("PentagridTiling", "enumerate_intersections",
                  "k_vector_2d", "k_vector_3d", "tiling_from_pentagrid"),
    "tiling2d": ("CENSUS", "FrequencyReport", "VertexType", "analytic_A",
                 "analytic_probability", "census_support", "empirical_frequencies",
                 "neighbor_masks"),
    "lattice3d": ("ANALYTIC_CLASS_FREQUENCIES", "OVERLAP_OFFSETS", "OverlapCensus",
                  "build_cells", "overlap_census", "overlap_signatures"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "errors", "io"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
