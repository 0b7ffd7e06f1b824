"""Spans around the public functions of each quasiproj module.

`traced()` replaces each listed function, wherever a quasiproj module
holds a reference to it, by a wrapper that records a span (name, parent,
start, end) and counts taken from its arguments and result.  Nothing in
the package is edited; the originals come back when the block ends.  A
function that no longer exists is reported as absent, and its work then
falls into the self time of the nearest span that still exists.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


#: (module, function, span, counts(args, result) or None).  A span of None
#: makes a counter hook: its counts land on the caller's span, so one
#: kernel is charged to enumeration or to neighbour probes by its parent.
LAYERS = [
    ("window", "build_polytope_P", "window.geometry", None),
    ("window", "build_decagon_Q", "window.geometry", None),
    ("window", "build_windows", "window.geometry", None),
    ("window", "enumerate_accepted_2d", "window.enumerate_2d",
     lambda a, r: {"rows": len(r[0])}),
    ("window", "enumerate_accepted_3d", "window.enumerate_3d",
     lambda a, r: {"rows": len(r[0])}),
    ("window", "accept_2d_bulk", None, lambda a, r: {"tested": len(r)}),
    ("window", "accept_3d_bulk", None, lambda a, r: {"tested": len(r)}),
    ("geometry", "points_in_convex_polygon", "geometry.predicate",
     lambda a, r: {"points": len(r)}),
    ("io", "resolve_shift", "io.resolve_shift", None),
    ("tiling2d", "neighbor_counts", "tiling2d.neighbor_counts",
     lambda a, r: {"vertices": len(a[0])}),
    ("tiling2d", "empirical_frequencies", "tiling2d.tally", None),
    ("lattice3d", "build_lattice3", "lattice3d.index", None),
    ("lattice3d", "find_tips", "lattice3d.find_tips", lambda a, r: {"tips": len(r)}),
    ("lattice3d", "cell_instance", "lattice3d.cell_instance", None),
    ("lattice3d", "interior_atoms", "lattice3d.interior_atoms", None),
    ("lattice3d", "build_overlap_table", "lattice3d.overlap_table", None),
    ("lattice3d", "classify_overlap", "lattice3d.classify_overlap",
     lambda a, r: {"offsets": len(a[2].offsets), "neighbors": r.neighbors}),
    ("lattice3d", "shared_atom_count", "lattice3d.shared_atoms", None),
    ("lattice3d", "overlap_census", "lattice3d.census", None),
    ("io", "build_tiling_document", "io.tiling_document",
     lambda a, r: {"edges": len(r.edges)}),
    ("io", "render_svg", "io.render_svg", None),
    ("io", "cells_obj", "io.cells_obj", None),
    ("io", "frequency_csv", "io.csv", None),
    ("io", "overlap_csv", "io.csv", None),
    ("io", "write_text", "io.emit", lambda a, r: {"bytes": len(a[1].encode())}),
]


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float
    child_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))


@dataclass
class Totals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))


class Tracer:
    """Open spans on a stack; closed ones summed per (span, parent span)."""

    def __init__(self):
        self.thread = threading.get_ident()
        self.stack: list[Span] = []
        self.totals: dict[tuple[str, str], Totals] = defaultdict(Totals)
        self.absent: set[str] = set()  # "module.function" no longer defined
        self.broken: set[str] = set()  # ... whose counts are not all seen

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        s = Span(name, parent, time.perf_counter())
        self.stack.append(s)
        try:
            yield s
        finally:
            self.stack.pop()
            dt = time.perf_counter() - s.start
            if parent is not None:
                parent.child_s += dt
            t = self.totals[(name, parent.name if parent else "")]
            t.calls += 1
            t.total_s += dt
            t.self_s += dt - s.child_s
            for k, v in s.counts.items():
                t.counts[k] += v

    def count(self, target: Span, fn_id: str, counter, args, result) -> None:
        try:
            found = counter(args, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.broken.add(fn_id)
            return
        for k, v in found.items():
            target.counts[k] += v

    def wrap(self, fn, fn_id: str, name: str | None, counter):
        # Calls from worker threads are not traced: their time stays in the
        # caller's span, and the metrics that need their counts read absent.
        if name is None:
            @functools.wraps(fn)
            def hook(*args, **kwargs):
                result = fn(*args, **kwargs)
                if threading.get_ident() != self.thread:
                    self.broken.add(fn_id)
                elif self.stack:
                    self.count(self.stack[-1], fn_id, counter, args, result)
                return result
            return hook

        @functools.wraps(fn)
        def traced_fn(*args, **kwargs):
            if threading.get_ident() != self.thread:
                self.broken.add(fn_id)
                return fn(*args, **kwargs)
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if counter is not None:
                    self.count(s, fn_id, counter, args, result)
                return result
        return traced_fn

    # -- aggregates -------------------------------------------------------

    def select(self, name: str, parent_not: str | None = None) -> list[Totals]:
        return [t for (n, p), t in self.totals.items()
                if n == name and (parent_not is None or p != parent_not)]

    def self_s(self, name: str) -> float:
        return sum(t.self_s for t in self.select(name))

    def total_s(self, name: str, parent_not: str | None = None) -> float:
        return sum(t.total_s for t in self.select(name, parent_not))

    def calls(self, name: str, parent_not: str | None = None) -> int:
        return sum(t.calls for t in self.select(name, parent_not))

    def counted(self, name: str, key: str) -> int:
        return sum(t.counts.get(key, 0) for t in self.select(name))


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the LAYERS wrappers in every loaded quasiproj module."""
    homes = {}
    for module_name, *_ in LAYERS:
        try:
            homes[module_name] = importlib.import_module(f"quasiproj.{module_name}")
        except ModuleNotFoundError:
            homes[module_name] = None
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "quasiproj" or n.startswith("quasiproj."))]
    patched = []
    try:
        for module_name, fn_name, span, counter in LAYERS:
            fn_id = f"{module_name}.{fn_name}"
            original = getattr(homes[module_name], fn_name, None)
            if original is None:
                tracer.absent.add(fn_id)
                continue
            wrapper = tracer.wrap(original, fn_id, span, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        patched.append((m, attr, original))
        yield tracer
    finally:
        for m, attr, original in reversed(patched):
            setattr(m, attr, original)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


E2, E3 = "window.enumerate_accepted_2d", "window.enumerate_accepted_3d"
A2, A3 = "window.accept_2d_bulk", "window.accept_3d_bulk"
CELL, SHARED = "lattice3d.cell_instance", "lattice3d.shared_atoms"
CLASSIFY = "lattice3d.classify_overlap"

#: (metric, unit, functions it needs, value).  `_s` is self time: the span
#: minus its traced children, so the self times of one run add up to
#: cli.run_s.  Cells built inside shared_atom_count are not output cells.
LAYER_METRICS = [
    ("cli.run_s", "s", (), lambda t: t.total_s("cli.run")),
    ("cli.self_s", "s", (), lambda t: t.self_s("cli.run")),
    ("window.geometry_s", "s", ("window.build_polytope_P", "window.build_decagon_Q",
                                "window.build_windows"),
     lambda t: t.self_s("window.geometry")),
    ("io.resolve_shift_s", "s", ("io.resolve_shift",),
     lambda t: t.self_s("io.resolve_shift")),
    ("window.enumerate_2d_s", "s", (E2,), lambda t: t.self_s("window.enumerate_2d")),
    ("window.enumerate_2d.candidates", "count", (E2, A2),
     lambda t: t.counted("window.enumerate_2d", "tested")),
    ("window.enumerate_2d.accepted", "count", (E2,),
     lambda t: t.counted("window.enumerate_2d", "rows")),
    ("window.enumerate_2d.accept_ratio", "1", (E2, A2),
     lambda t: _ratio(t.counted("window.enumerate_2d", "rows"),
                      t.counted("window.enumerate_2d", "tested"))),
    ("window.enumerate_2d.accepted_per_s", "1/s", (E2,),
     lambda t: _ratio(t.counted("window.enumerate_2d", "rows"),
                      t.total_s("window.enumerate_2d"))),
    ("window.enumerate_3d_s", "s", (E3,), lambda t: t.self_s("window.enumerate_3d")),
    ("window.enumerate_3d.candidates", "count", (E3, A3),
     lambda t: t.counted("window.enumerate_3d", "tested")),
    ("window.enumerate_3d.accepted", "count", (E3,),
     lambda t: t.counted("window.enumerate_3d", "rows")),
    ("window.enumerate_3d.accept_ratio", "1", (E3, A3),
     lambda t: _ratio(t.counted("window.enumerate_3d", "rows"),
                      t.counted("window.enumerate_3d", "tested"))),
    ("geometry.predicate_points", "count", ("geometry.points_in_convex_polygon",),
     lambda t: t.counted("geometry.predicate", "points")),
    ("geometry.predicate_s", "s", ("geometry.points_in_convex_polygon",),
     lambda t: t.self_s("geometry.predicate")),
    ("tiling2d.neighbor_counts_s", "s", ("tiling2d.neighbor_counts",),
     lambda t: t.self_s("tiling2d.neighbor_counts")),
    ("tiling2d.neighbor_points", "count", ("tiling2d.neighbor_counts", A2),
     lambda t: t.counted("tiling2d.neighbor_counts", "tested")),
    ("tiling2d.vertices", "count", ("tiling2d.neighbor_counts",),
     lambda t: t.counted("tiling2d.neighbor_counts", "vertices")),
    ("tiling2d.tally_s", "s", ("tiling2d.empirical_frequencies",),
     lambda t: t.self_s("tiling2d.tally")),
    ("lattice3d.index_s", "s", ("lattice3d.build_lattice3",),
     lambda t: t.self_s("lattice3d.index")),
    ("lattice3d.find_tips_s", "s", ("lattice3d.find_tips",),
     lambda t: t.self_s("lattice3d.find_tips")),
    ("lattice3d.tips", "count", ("lattice3d.find_tips",),
     lambda t: t.counted("lattice3d.find_tips", "tips")),
    ("lattice3d.cell_instance_s", "s", (CELL,), lambda t: t.self_s(CELL)),
    ("lattice3d.interior_atoms_s", "s", ("lattice3d.interior_atoms",),
     lambda t: t.self_s("lattice3d.interior_atoms")),
    ("lattice3d.cells", "count", (CELL,), lambda t: t.calls(CELL, parent_not=SHARED)),
    ("lattice3d.cell_us", "us", (CELL,),
     lambda t: 1e6 * _ratio(t.total_s(CELL, parent_not=SHARED),
                            t.calls(CELL, parent_not=SHARED))),
    ("lattice3d.overlap_table_s", "s", ("lattice3d.build_overlap_table",),
     lambda t: t.self_s("lattice3d.overlap_table")),
    ("lattice3d.classify_overlap_s", "s", (CLASSIFY,), lambda t: t.self_s(CLASSIFY)),
    ("lattice3d.classify_calls", "count", (CLASSIFY,), lambda t: t.calls(CLASSIFY)),
    ("lattice3d.offsets_probed", "count", (CLASSIFY,),
     lambda t: t.counted(CLASSIFY, "offsets")),
    ("lattice3d.overlap_hit_ratio", "1", (CLASSIFY,),
     lambda t: _ratio(t.counted(CLASSIFY, "neighbors"), t.counted(CLASSIFY, "offsets"))),
    # inclusive: the two cells it builds per pair are part of its cost
    ("lattice3d.shared_atoms_s", "s", ("lattice3d.shared_atom_count",),
     lambda t: t.total_s(SHARED)),
    ("lattice3d.census_s", "s", ("lattice3d.overlap_census",),
     lambda t: t.self_s("lattice3d.census")),
    ("io.tiling_document_s", "s", ("io.build_tiling_document",),
     lambda t: t.self_s("io.tiling_document")),
    ("io.tiling_edges", "count", ("io.build_tiling_document",),
     lambda t: t.counted("io.tiling_document", "edges")),
    ("io.render_svg_s", "s", ("io.render_svg",), lambda t: t.self_s("io.render_svg")),
    ("io.cells_obj_s", "s", ("io.cells_obj",), lambda t: t.self_s("io.cells_obj")),
    ("io.csv_s", "s", ("io.frequency_csv", "io.overlap_csv"),
     lambda t: t.self_s("io.csv")),
    ("io.emit_s", "s", ("io.write_text",), lambda t: t.self_s("io.emit")),
    ("io.bytes_out", "B", ("io.write_text",), lambda t: t.counted("io.emit", "bytes")),
]


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str, bool]]:
    """metric -> (value, unit, absent) for one traced run."""
    out = {}
    for name, unit, needs, value in LAYER_METRICS:
        absent = any(n in t.absent or n in t.broken for n in needs)
        out[name] = (0.0 if absent else float(value(t)), unit, absent)
    return out
