"""The four `qc` workloads, their seeded inputs and their output checks.

Each workload is one `qc` command with a fixed `c` and radius.  Only the
grid shift comes from the benchmark seed, and it reaches the program as an
explicit `--gamma`, so the program never sees the seed and never redraws.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

#: seed whose output digests are pinned in digests.json
DEFAULT_SEED = 0
#: label-box half-width of the set-up run.  At radius 4 about one shift in
#: twenty leaves `overlap-census` without a boundary-complete tip (exit 2).
SETUP_RADIUS = 5
#: the statistical bounds of acceptance criteria 4 and 7
FREQ_ABS_ERR = 0.005
OVERLAP_ABS_ERR = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str       # qc sub-command
    c: float
    radius: int
    suffix: str     # extension of the --out file
    item: str       # what items_per_s counts


WORKLOADS = {w.name: w for w in [
    Workload("tiling_svg", "tiling2d", 0.3819660113, 50, "svg", "SVG edges"),
    Workload("freq_census", "freq", 0.5, 80, "csv", "classified vertices"),
    Workload("cells_obj", "lattice3d", 0.4, 10, "obj", "OBJ cells"),
    Workload("overlap_census", "overlap-census", 0.2, 20, "csv", "classified tips"),
]}


def draw_gamma(c: float, seed: int) -> list[float]:
    """gamma_1..4 uniform on [0, 1) from the seed; gamma_0 pins the sum to c."""
    rng = random.Random(seed)
    tail = [rng.random() for _ in range(4)]
    return [c - sum(tail)] + tail


def qc_args(w: Workload, gamma: list[float], radius: int, out: Path) -> list[str]:
    # the '=' forms keep argparse from reading a negative gamma_0 as a flag
    return [w.mode, f"--c={w.c!r}", "--gamma=" + ",".join(map(repr, gamma)),
            f"--radius={radius}", f"--out={out}"]


def logged_config(lines) -> dict | None:
    """The `resolved config` record a qc run echoes on stderr, if any."""
    for line in lines:
        _, sep, rest = line.partition("resolved config: ")
        if sep:
            return json.loads(rest)
    return None


def gamma_problems(lines, gamma: list[float]) -> list[str]:
    config = logged_config(lines)
    if config is None:
        return ["no resolved config echoed on stderr"]
    if config["gamma"] != gamma:
        return [f"echoed gamma {config['gamma']} differs from passed {gamma}"]
    return []


def pinned_digest(name: str) -> str | None:
    return json.loads(DIGESTS.read_text())["seed_%d" % DEFAULT_SEED].get(name)


@dataclass
class OutputCheck:
    items: int
    sha256: str
    problems: list


def _csv_rows(text: str) -> tuple[list[list[str]], dict]:
    """Data rows (header dropped) and the `# key = value` footer."""
    rows, footer = [], {}
    for line in text.splitlines()[1:]:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            footer[key.strip()] = value.strip()
        else:
            rows.append(line.split(","))
    return rows, footer


def check_output(w: Workload, path: Path) -> OutputCheck:
    """Count the output's items and list every way it is wrong."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        return OutputCheck(0, "", [f"cannot read output: {exc}"])
    text = data.decode("utf-8")
    problems = []
    if w.mode == "tiling2d":
        items = text.count("<path ")
    elif w.mode == "lattice3d":
        items = sum(1 for line in text.splitlines() if line.startswith("o "))
    elif w.mode == "freq":
        rows, footer = _csv_rows(text)
        items = int(footer.get("n_vertices", 0))
        worst = max((float(r[6]) for r in rows), default=float("inf"))
        if worst > FREQ_ABS_ERR:
            problems.append(f"vertex-type abs_err {worst} > {FREQ_ABS_ERR}")
        if abs(float(footer.get("sum_analytic", "nan")) - 1.0) > 1e-9:
            problems.append(f"sum_analytic {footer.get('sum_analytic')} != 1")
        if sum(int(r[5]) for r in rows) != items:
            problems.append("type counts do not sum to n_vertices")
    else:
        rows, footer = _csv_rows(text)
        items = int(footer.get("n_tips", 0))
        worst = max((abs(float(r[5]) - float(r[6])) for r in rows),
                    default=float("inf"))
        if len(rows) != 5 or worst > OVERLAP_ABS_ERR:
            problems.append(f"overlap-class deviation {worst} > {OVERLAP_ABS_ERR}")
        if sum(int(r[4]) for r in rows) != items:
            problems.append("class counts do not sum to n_tips")
    if items == 0:
        problems.append(f"no {w.item} in the output")
    return OutputCheck(items, hashlib.sha256(data).hexdigest(), problems)
