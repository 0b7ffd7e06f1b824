"""Generalized Penrose tilings and 3-d quasiperiodic lattices from the 5-d lattice.

Two independent constructions of the same objects: the de Bruijn pentagrid
(grids and their dual meshes) and the cut-and-project window of acceptance
(the projected 5-cube).  The package builds both, cross-checks them, and
validates analytic vertex-type and cell-overlap frequencies against counts.
"""

from .geometry import (DEFAULT_EPS, PHI, THETA, ConvexWindow, ProjectionBasis,
                       make_basis)
from .window import (CUBE_VERTICES, DecagonQ, GridShift, PolytopeP, WindowSet,
                     build_decagon_Q, build_polytope_P, build_windows,
                     enumerate_accepted_2d, enumerate_tips, label_keys,
                     label_rows, normalize_shift, random_shift, slice_window)
from .pentagrid import (Intersection, PentagridTiling, enumerate_intersections,
                        k_vector_2d, k_vector_3d, tiling_from_pentagrid)
from .tiling2d import (CENSUS, FrequencyReport, VertexType, analytic_A,
                       analytic_probability, census_support, empirical_frequencies,
                       neighbor_counts)
from .lattice3d import (ANALYTIC_CLASS_FREQUENCIES, OVERLAP_OFFSETS, OverlapCensus,
                        build_cells, overlap_census, overlap_signatures)

__version__ = "0.1.0"
