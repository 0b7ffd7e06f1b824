"""Command-line entry point: qc {tiling2d,freq,windows,lattice3d,overlap-census}.

The checked argparse namespace is the run configuration; a run echoes it on
stderr, a lattice run with the gamma and c it resolved, so that it can be
repeated.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import sys
from collections.abc import Iterator

# The BLAS products here are (N, 5) @ (5, 2) and smaller, so a second BLAS
# thread only spins.  Pin one before the imports below load numpy, unless
# the caller has set a thread count of their own.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from .errors import ConfigError, DegenerateWindowError, SingularConfigError, SingularityError
from .geometry import DEFAULT_EPS
from .io import (build_tiling_document, cells_obj, frequency_csv, overlap_csv,
                 render_svg, window_document, write_json, write_text)
from .scan import MAX_KEY_RADIUS
from .window import DECAGON, POLYTOPE, GridShift, normalize_shift, random_shift

# scan2d, tiling2d and lattice3d (with its tip scan) are imported in their
# modes' branches of _run_mode, so a run neither compiles nor loads the scan
# or the module of another mode

log = logging.getLogger("qc")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3

#: how many seeded draws --gamma auto tries before giving up
MAX_SHIFT_DRAWS = 20


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qc",
        description="Generalized Penrose tilings and 3-d quasiperiodic lattices "
                    "by projection of the 5-d integer lattice.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, text in [
        ("tiling2d", "generate a tiling patch as SVG"),
        ("freq", "measure vertex-type frequencies against the analytic values"),
        ("windows", "export the acceptance geometry as JSON"),
        ("lattice3d", "build the 3-d lattice and export unit cells as OBJ"),
        ("overlap-census", "classify and count the five cell-overlap classes"),
    ]:
        sp = sub.add_parser(mode, help=text)
        sp.add_argument("--c", type=float, default=0.5,
                        help="sum of the grid shifts, in [0, 1) (default %(default)s)")
        if mode == "windows":
            # the windows depend on the shift only through c
            sp.add_argument("--index", type=int,
                            help="restrict the output to one slice index")
        else:
            sp.add_argument("--gamma", default="auto",
                            help="'auto' or five comma-separated reals (default %(default)s)")
            sp.add_argument("--seed", type=int, default=0,
                            help="seed for auto gamma (default %(default)s)")
            sp.add_argument("--radius", type=int, default=20,
                            help="label-box half-width (default %(default)s)")
            sp.set_defaults(index=None)
        sp.add_argument("--tol", type=float, default=DEFAULT_EPS,
                        help="absolute boundary tolerance (default %(default)s)")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _config_from_args(args: argparse.Namespace) -> None:
    """Check args, the run's configuration, and parse its --gamma in place."""
    if not 0.0 <= args.c < 1.0:
        raise ConfigError(f"--c must lie in [0, 1), got {args.c}")
    # -0.0 passes the check, but would be echoed and written as -0.0
    args.c += 0.0
    if not 0.0 < args.tol < math.inf:
        raise ConfigError(f"--tol must be positive, got {args.tol}")
    if args.index is not None and not 1 <= args.index <= 5:
        raise ConfigError(f"--index must lie in [1, 5], got {args.index}")
    if args.mode == "windows":
        return
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    if not 1 <= args.radius <= MAX_KEY_RADIUS:
        raise ConfigError(f"--radius must lie in [1, {MAX_KEY_RADIUS}], got {args.radius}")
    if args.gamma == "auto":
        return
    try:
        gamma = [float(x) for x in str(args.gamma).split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --gamma {args.gamma!r}: {exc}") from exc
    if len(gamma) != 5:
        raise ConfigError(f"--gamma needs 5 components, got {len(gamma)}")
    if not all(map(math.isfinite, gamma)):
        raise ConfigError(f"--gamma components must be finite, got {args.gamma!r}")
    # the windows are cut at c = sum(gamma) mod 1, which must be known to
    # within the boundary tolerance
    total = sum(gamma)
    if not math.isfinite(total):
        raise ConfigError(f"--gamma {args.gamma!r} sums to {total}, so c is unknown")
    coarsest = max(gamma, key=math.ulp)
    if math.ulp(coarsest) > args.tol:
        raise ConfigError(
            f"--gamma component {coarsest!r} has a float spacing of "
            f"{math.ulp(coarsest):.3g}, above --tol {args.tol}, so c is unknown "
            "to within the tolerance")
    args.gamma = gamma


def shift_draws(config: argparse.Namespace) -> Iterator[GridShift]:
    """The grid shifts a run may try, in order.

    Explicit gamma yields one shift, normalized as given (its sum wins over
    config.c).  "auto" yields up to MAX_SHIFT_DRAWS draws, each with
    gamma_1..4 uniform from an incremented seed and the sum pinned to
    config.c; the caller takes the next one while a draw is singular.
    """
    if config.gamma != "auto":
        yield normalize_shift(config.gamma)
        return
    for attempt in range(MAX_SHIFT_DRAWS):
        yield random_shift(config.c, config.seed + 1009 * attempt)


def _log_config(config: argparse.Namespace, **resolved) -> None:
    """Echo the run's configuration, with the values it resolved, as sorted JSON."""
    log.info("resolved config: %s", json.dumps({**vars(config), **resolved}, sort_keys=True))


def _emit(config: argparse.Namespace, content: str) -> None:
    if config.out:
        write_text(config.out, content)
        log.info("wrote %s", config.out)
    else:
        sys.stdout.write(content)


def _check_tol(tol: float, wset=None, decagons: bool = False) -> None:
    """Refuse a --tol that reaches the centre of a window the run decides against:
    the slice windows of wset, and the decagon and inner decagon if asked.

    A test point within tol of a window's edge is singular, so such a
    window would have no point left to decide.
    """
    windows = {f"V_{i}": w for i, w in (wset.slices.items() if wset else ())}
    if decagons:
        windows.update({"Q": DECAGON.window, "the inner decagon": DECAGON.inner})
    name = min(windows, key=lambda n: windows[n].half_width)
    width = windows[name].half_width
    if tol >= width:
        raise ConfigError(
            f"--tol {tol} is not below {width:.6g}, the distance from the centre of "
            f"{name} to its nearest edge: every test point in it would be singular")


def _run_mode(config: argparse.Namespace) -> None:
    if config.mode == "windows":
        from .scan2d import build_windows
        _log_config(config)
        wset = build_windows(POLYTOPE, config.c, config.tol)
        _check_tol(config.tol, wset, decagons=True)
        if config.index is not None:
            if config.index not in wset.slices:
                raise DegenerateWindowError(
                    f"slice at height {config.index - config.c} degenerates to a tip "
                    f"(index {config.index}, c = {config.c})")
            doc = {"c": config.c, "index": config.index, "height": config.index - config.c,
                   "polygon": wset.slices[config.index].polygon.tolist()}
        else:
            doc = window_document(wset)
        _emit(config, write_json(doc))
        return

    def produce(shift) -> tuple[str, list]:
        """The mode's output for one shift, and the (level, line)s to log after it."""
        if config.mode in ("tiling2d", "freq"):
            from .scan2d import build_windows
            wset = build_windows(POLYTOPE, shift.c, config.tol)
            _check_tol(config.tol, wset)
            if config.mode == "tiling2d":
                doc = build_tiling_document(config.radius, shift, wset)
                return render_svg(doc), []
            from .tiling2d import empirical_frequencies
            report = empirical_frequencies(config.radius, shift, wset)
            return frequency_csv(report), []
        _check_tol(config.tol, decagons=True)
        if config.mode == "lattice3d":
            from .lattice3d import TIP_MARGIN, build_cells
            cells, n_points, n_tips = build_cells(config.radius, shift, config.tol)
            notes = [(logging.INFO, f"lattice: {n_points} points, "
                                    f"{n_tips} tips, {len(cells[0])} complete cells")]
            if not len(cells[0]):
                notes.append((logging.WARNING,
                              f"no complete cells: every tip lies within {TIP_MARGIN} "
                              "label steps of the box edge; raise --radius"))
            return cells_obj(cells), notes
        from .lattice3d import overlap_census
        census = overlap_census(config.radius, shift, config.tol)
        shared = {k: round(v, 2) for k, v in census.shared_atoms.items()}
        return overlap_csv(census), [
            (logging.INFO, f"mean shared atoms with overlapping neighbors: {shared}")]

    for shift in shift_draws(config):
        try:
            content, notes = produce(shift)
            break
        except SingularityError as exc:
            if config.gamma != "auto":
                raise
            log.info("gamma draw is singular, redrawing: %s", exc)
            last_error = exc
    else:
        raise SingularityError(
            f"no regular shift found after {MAX_SHIFT_DRAWS} draws: every draw was singular "
            f"at tol={config.tol}; last draw: {last_error}")
    _log_config(config, gamma=shift.gamma.tolist(), c=shift.c)
    _emit(config, content)
    for level, line in notes:
        log.log(level, "%s", line)


def run(argv) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="qc: %(message)s")
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        _config_from_args(args)
        _run_mode(args)
    except SingularConfigError as exc:
        log.error("singular configuration: %s", exc)
        return EXIT_SINGULAR
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    return EXIT_OK


def main() -> None:
    # Everything alive now is the import heap (numpy, these modules, POLYTOPE
    # and DECAGON, argparse, logging), and it lives until exit.  Frozen, the
    # interpreter's final collections skip its ~22k objects and the OS
    # reclaims it; unfrozen, teardown took longer than a radius-20 census.
    # The run's own garbage is made after this, so it is collected as usual.
    # run() freezes nothing: an in-process caller keeps a collectable heap.
    gc.freeze()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
