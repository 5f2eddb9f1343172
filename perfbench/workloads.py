"""Workload definitions shared by the benchmark driver and its worker.

A workload is a fixed list of ``vdpc`` CLI calls.  One *pass* runs every
call of the list once.  Inputs are CSV files written by the driver before
the worker starts: seed 0 keeps the file row order, a seed s > 0 permutes
the data rows with ``numpy.random.default_rng(s)``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

T710 = Path("tests/data/t710.csv")
BUNDLED_DIR = Path("src/vdpc/data")
BUNDLED = ("aggregation", "compound", "flame", "jain", "pathbased", "r15")
SUITES = (
    "synthetic-table4",
    "num-sensitivity-table2",
    "appendixA",
    "appendixB",
    "appendixC",
)

# Reference (pct, delta_t) per bundled dataset, copied from BEST_PARAMS in
# tests/conftest.py so that a change to the tests cannot move the workload.
BEST_PARAMS = {
    "aggregation": (4, 2.9),
    "compound": (1.9, 1.39),
    "flame": (5, 5.5),
    "jain": (50, 5.5),
    "pathbased": (0.4, 3.5),
    "r15": (5, 1.0),
}
# The sweep grid: these multiples of the reference pct and delta_t, and
# these segment counts; 5 x 5 x 3 = 75 cells per dataset.
STEPS = (0.6, 0.8, 1.0, 1.2, 1.4)
NUMS = (5, 10, 15)

WORKLOADS = ("t710-run", "sweep-grid", "bench-suites")


def permutation(seed: int, n: int) -> np.ndarray:
    """Row order of a seeded input: row i of the written file is row
    ``perm[i]`` of the original file."""
    if seed == 0:
        return np.arange(n)
    return np.random.default_rng(seed).permutation(n)


def write_input(src: Path, dst: Path, seed: int) -> None:
    """Copy a header-plus-rows CSV, permuting its data rows by the seed.

    Rows are moved as text, so every coordinate keeps its exact digits.
    """
    header, *rows = src.read_text().splitlines()
    rows = [r for r in rows if r.strip()]
    perm = permutation(seed, len(rows))
    dst.write_text("\n".join([header] + [rows[i] for i in perm]) + "\n")


def prepare_inputs(root: Path, inputs: Path, workload: str, seed: int) -> None:
    """Write the seeded input files a workload reads into ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "t710-run":
        write_input(root / T710, inputs / "t710.csv", seed)
    elif workload == "sweep-grid":
        for name in BUNDLED:
            write_input(root / BUNDLED_DIR / (name + ".csv"), inputs / (name + ".csv"), seed)


def _grid(values) -> str:
    return ",".join("%.12g" % v for v in values)


def calls(workload: str, inputs: Path, out: Path) -> list[tuple[str, list[str], Path]]:
    """(label, argv, artifact directory) of every CLI call in one pass."""
    if workload == "t710-run":
        d = out / "t710"
        return [("run:t710", ["run", "--dataset", str(inputs / "t710.csv"),
                              "--has-header", "--pct", "2", "--delta-t", "25",
                              "--output-dir", str(d)], d)]
    if workload == "sweep-grid":
        result = []
        for name in BUNDLED:
            pct, delta_t = BEST_PARAMS[name]
            d = out / name
            result.append(("sweep:" + name, [
                "sweep", "--dataset", str(inputs / (name + ".csv")),
                "--has-header", "--label-column", "-1",
                "--pct", _grid(pct * s for s in STEPS),
                "--delta-t", _grid(delta_t * s for s in STEPS),
                "--num", _grid(NUMS),
                "--output-dir", str(d)], d))
        return result
    if workload == "bench-suites":
        return [("bench:" + s, ["bench", "--suite", s, "--output-dir", str(out / s)], out / s)
                for s in SUITES]
    raise ValueError("unknown workload %r (choose from %s)" % (workload, ", ".join(WORKLOADS)))


def cell_artifact(label: str) -> str | None:
    """The artifact whose data rows are the call's cells, if it has any."""
    kind, name = label.split(":")
    if kind == "sweep":
        return "sweep.csv"
    if kind == "bench":
        return "bench_%s.csv" % name.replace("-", "_")
    return None
