"""Command-line entry point: qc {tiling2d,freq,windows,lattice3d,overlap-census}."""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

# The BLAS products here are (N, 5) @ (5, 2) and smaller, so a second BLAS
# thread only spins.  Pin one before the imports below load numpy, unless
# the caller has set a thread count of their own.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from .errors import (ConfigError, EmptyWindowError, QcError, SingularConfigError,
                     SingularityError)
from .io import (MAX_SHIFT_DRAWS, RunConfig, build_tiling_document, cells_obj,
                 frequency_csv, overlap_csv, render_svg, shift_draws,
                 window_document, write_json, write_text)
from .lattice3d import TIP_MARGIN, build_cells, overlap_census
from .tiling2d import empirical_frequencies
from .window import (DECAGON, MAX_KEY_RADIUS, POLYTOPE, build_windows,
                     enumerate_tips, label_extent, slice_window)

log = logging.getLogger("qc")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3


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
                        help="sum of the grid shifts, in [0, 1) (default 0.5)")
        sp.add_argument("--gamma", default="auto",
                        help="'auto' or five comma-separated reals (default auto)")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for auto gamma (default 0)")
        sp.add_argument("--radius", type=int, default=20,
                        help="label-box half-width (default 20)")
        sp.add_argument("--tol", type=float, default=1e-9,
                        help="absolute boundary tolerance (default 1e-9)")
        sp.add_argument("--index", type=int, default=None,
                        help="restrict 'windows' output to one slice index")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _config_from_args(args) -> RunConfig:
    gamma = args.gamma
    if gamma != "auto":
        try:
            gamma = [float(x) for x in str(gamma).split(",")]
        except ValueError as exc:
            raise ConfigError(f"cannot parse --gamma {args.gamma!r}: {exc}") from exc
        if len(gamma) != 5:
            raise ConfigError(f"--gamma needs 5 components, got {len(gamma)}")
        if not all(map(math.isfinite, gamma)):
            raise ConfigError(f"--gamma components must be finite, got {args.gamma!r}")
    if not 0.0 <= args.c < 1.0:
        raise ConfigError(f"--c must lie in [0, 1), got {args.c}")
    if not 1 <= args.radius <= MAX_KEY_RADIUS:
        raise ConfigError(f"--radius must lie in [1, {MAX_KEY_RADIUS}], got {args.radius}")
    if not 0.0 < args.tol < math.inf:
        raise ConfigError(f"--tol must be positive, got {args.tol}")
    if args.index is not None and not 1 <= args.index <= 5:
        raise ConfigError(f"--index must lie in [1, 5], got {args.index}")
    return RunConfig(mode=args.mode, c=args.c, gamma=gamma, seed=args.seed,
                     radius=args.radius, tol=args.tol, index=args.index,
                     out=args.out)


def _emit(config: RunConfig, content: str) -> None:
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


def _run_mode(config: RunConfig) -> None:
    if config.mode == "windows":
        log.info("resolved config: %s", config.to_json())
        wset = build_windows(POLYTOPE, config.c, config.tol)
        _check_tol(config.tol, wset, decagons=True)
        if config.index is not None:
            win = slice_window(POLYTOPE, config.index, config.c)
            doc = {"c": config.c, "index": config.index,
                   "height": config.index - config.c, "polygon": win.polygon.tolist()}
        else:
            doc = window_document(wset)
        _emit(config, write_json(doc))
        return

    def produce(shift) -> tuple[str, list]:
        """The mode's output for one shift, and the (level, line)s to log after it."""
        if config.mode in ("tiling2d", "freq"):
            wset = build_windows(POLYTOPE, shift.c, config.tol)
            _check_tol(config.tol, wset)
            if config.mode == "tiling2d":
                doc = build_tiling_document(config.radius, shift, wset)
                return render_svg(doc), []
            report = empirical_frequencies(config.radius, shift, wset)
            return frequency_csv(report), []
        _check_tol(config.tol, decagons=True)
        if config.mode == "lattice3d":
            tips, _, n_points = enumerate_tips(config.radius, shift, config.tol)
            inner = tips[label_extent(tips) <= config.radius - TIP_MARGIN]
            cells = build_cells(inner, shift, config.tol)
            notes = [(logging.INFO, f"lattice: {n_points} points, "
                                    f"{len(tips)} tips, {len(inner)} complete cells")]
            if not len(inner):
                notes.append((logging.WARNING,
                              f"no complete cells: every tip lies within {TIP_MARGIN} "
                              "label steps of the box edge; raise --radius"))
            return cells_obj(cells), notes
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
    resolved = RunConfig(**{**config.__dict__, "gamma": shift.gamma.tolist(),
                            "c": shift.c})
    log.info("resolved config: %s", resolved.to_json())
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
        config = _config_from_args(args)
        _run_mode(config)
    except SingularConfigError as exc:
        log.error("singular configuration: %s", exc)
        return EXIT_SINGULAR
    except (ConfigError, EmptyWindowError) as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except QcError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
