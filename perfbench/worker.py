"""One benchmark run of one workload, in a fresh process.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src``.
It calls ``vdpc.cli.main`` in-process, pass after pass, until the time
budget is spent, checks every call's exit code and artifacts against
``reference.json``, and prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(label: str, rc: int, stdout: str, outdir: Path) -> dict:
    """Exit code, stdout digest, digest of every artifact, and a short
    digest of every data row of the call's cell table."""
    artifacts = {
        p.relative_to(outdir).as_posix(): sha256(p.read_bytes())
        for p in sorted(outdir.rglob("*")) if p.is_file()
    } if outdir.is_dir() else {}
    cells = []
    name = workloads.cell_artifact(label)
    if name is not None and (outdir / name).is_file():
        rows = (outdir / name).read_text().splitlines()[1:]
        cells = [sha256(r.encode())[:16] for r in rows]
    return {"exit": rc, "stdout": sha256(stdout.encode()), "artifacts": artifacts, "cells": cells}


def read_labels(path: Path) -> np.ndarray:
    rows = path.read_text().splitlines()[1:]
    return np.array([int(r.split(",")[1]) for r in rows], dtype=np.int64)


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Pair-counting agreement of two partitions, independent of vdpc."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1)

    def pairs(x):
        return float((x * (x - 1) / 2).sum())

    index, ra, rb = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = ra * rb / pairs(np.array([len(a)], dtype=float))
    top = (ra + rb) / 2
    return 1.0 if top == expected else (index - expected) / (top - expected)


class Checker:
    """Compares each call with the seed-0 record; counts operations.

    An operation is one CLI call, or one cell row of a sweep or bench
    table.  A mismatched row fails that row; any other mismatch fails at
    least one operation of the call.
    """

    def __init__(self, reference: dict, seed: int):
        self.ref = reference
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.perm_ari: list[float] = []
        self.numl: int | None = None  # set by the vdpc_run probe on t710-run

    def check(self, label: str, rc: int, stdout: str, outdir: Path) -> None:
        want = self.ref["calls"][label]
        got = fingerprint(label, rc, stdout, outdir)
        ops = max(len(want["cells"]), 1)
        if label == "run:t710" and self.seed != 0:
            bad = self._t710_structure(got, outdir)
        else:
            bad = 0 if got == want else max(
                1, sum(g != w for g, w in zip(got["cells"], want["cells"]))
                + abs(len(got["cells"]) - len(want["cells"])))
            if bad:
                self._note("%s: output differs from the seed-0 record (%d of %d operations;"
                           " exit %s, recorded %s)" % (label, bad, ops, got["exit"], want["exit"]))
        self.attempted += ops
        self.failed += min(bad, ops)

    def _t710_structure(self, got: dict, outdir: Path) -> int:
        """Row-permuted t710: the known defect (t710 is not permutation
        invariant) allows a different partition, so check its shape and
        report how far it is from the seed-0 partition."""
        t = self.ref["t710"]
        if got["exit"] != self.ref["calls"]["run:t710"]["exit"]:
            self._note("run:t710: exit %s" % got["exit"])
            return 1
        labels = read_labels(outdir / "labels.csv")
        k = int(labels.max()) + 1
        problems = []
        if not np.array_equal(np.unique(labels), np.arange(k)):
            problems.append("labels are not contiguous 0..k-1")
        if k != t["k"] or self.numl != t["numl"]:
            problems.append("k=%d numl=%s, seed 0 has k=%d numl=%d"
                            % (k, self.numl, t["k"], t["numl"]))
        original = np.empty_like(labels)
        original[workloads.permutation(self.seed, len(labels))] = labels
        seed0 = np.array([int(c, 36) for c in t["labels"]], dtype=np.int64)
        self.perm_ari.append(adjusted_rand_index(original, seed0))
        for p in problems:
            self._note("run:t710: " + p)
        return 1 if problems else 0

    def _note(self, message: str) -> None:
        if len(self.messages) < 5:
            self.messages.append(message)


def run_call(cli, argv: list[str]) -> tuple[int | str, str, float]:
    """(exit code, stdout, seconds) of one CLI call.  A call that raises
    gets the exception as its exit code, which no record holds, so the
    check counts it as failed and the run goes on."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:
            rc = "raised %s: %s" % (type(exc).__name__, exc)
    return rc, out.getvalue(), time.perf_counter() - t0


def run_pass(cli, calls, checker: Checker, per_call: dict | None) -> float:
    """Run every call once; return the sum of the call times.

    Checks run between calls, outside the timed region.  Each call time
    is also appended to ``per_call[label]`` unless ``per_call`` is None."""
    wall = 0.0
    for label, argv, outdir in calls:
        shutil.rmtree(outdir, ignore_errors=True)
        rc, stdout, elapsed = run_call(cli, argv)
        wall += elapsed
        if per_call is not None:
            per_call.setdefault(label, []).append(elapsed)
        checker.check(label, rc, stdout, outdir)
    return wall


def measure(cli, calls, seconds: float, checker: Checker, per_call: dict,
            tracer: Tracer | None = None) -> tuple[list[float], list[float]]:
    """Run passes until another would overrun ``seconds``; return the
    (untraced, traced) pass times.

    Without a tracer every pass is untraced, and at least one runs.  With
    one, passes alternate untraced and traced, so that the host's drift
    during the run falls on both sides alike; at least one of each runs.
    ``per_call`` collects the call times of untraced passes."""
    walls: tuple[list[float], list[float]] = ([], [])
    start = time.perf_counter()
    while True:
        done = walls[0] + walls[1]
        if done and time.perf_counter() - start + statistics.median(done) > seconds and (
                tracer is None or walls[1]):
            return walls
        traced = tracer is not None and len(walls[0]) > len(walls[1])
        if traced:
            tracer.install()
            walls[1].append(run_pass(cli, calls, checker, None))
            tracer.uninstall()
            tracer.end_pass()
        else:
            walls[0].append(run_pass(cli, calls, checker, per_call))


def install_numl_probe(cli, checker: Checker) -> None:
    """Keep the level count of the last vdpc_run the CLI makes."""
    original = cli.vdpc_run

    @functools.wraps(original)
    def probe(*args, **kwargs):
        result = original(*args, **kwargs)
        checker.numl = result.levels.numl
        return result

    cli.vdpc_run = probe


def record(cli, calls) -> dict:
    """Seed-0 fingerprints of one pass, for reference.json."""
    entry: dict = {"calls": {}}
    checker = Checker({}, 0)
    install_numl_probe(cli, checker)
    for label, argv, outdir in calls:
        shutil.rmtree(outdir, ignore_errors=True)
        rc, stdout, _ = run_call(cli, argv)
        entry["calls"][label] = fingerprint(label, rc, stdout, outdir)
        if label == "run:t710":
            labels = read_labels(outdir / "labels.csv")
            if labels.max() >= 36:
                raise SystemExit("t710 has more than 36 clusters; labels no longer fit one base-36 digit")
            entry["t710"] = {
                "k": int(labels.max()) + 1,
                "numl": checker.numl,
                "labels": "".join(np.base_repr(v, 36) for v in labels),
            }
    return entry


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--reference", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    ap.add_argument("--record", action="store_true",
                    help="print the seed-0 fingerprints instead of measuring")
    args = ap.parse_args()

    import scipy
    import vdpc.cli as cli

    calls = workloads.calls(args.workload, args.inputs, args.out)
    if args.record:
        print(json.dumps(record(cli, calls)))
        return 0
    reference = json.loads(args.reference.read_text())[args.workload]
    checker = Checker(reference, args.seed)
    if args.workload == "t710-run":
        install_numl_probe(cli, checker)
    result: dict = {}
    per_call: dict[str, list[float]] = {}
    if args.trace:
        tracer = Tracer()
        untraced, walls = measure(cli, calls, args.seconds, checker, per_call, tracer)
        result["untraced_walls"] = untraced
        result["per_layer"] = tracer.summary(walls, untraced)
        if args.spans is not None:
            tracer.write(args.spans)
    else:
        walls, _ = measure(cli, calls, args.seconds, checker, per_call)
    result.update(
        walls=walls,
        call_median_s={label: statistics.median(t) for label, t in per_call.items()},
        attempted=checker.attempted,
        failed=checker.failed,
        failures=checker.messages,
        perm_ari=min(checker.perm_ari) if checker.perm_ari else 1.0,
        versions={"numpy": np.__version__, "scipy": scipy.__version__},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
