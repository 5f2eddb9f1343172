"""Benchmark driver: one measured run of one workload.

    python3 perfbench/run.py --workload sweep-grid --seed 3 --seconds 30 --trace 0

Run from the root of a checkout.  The driver writes the seeded inputs,
times ``setup_s`` over fresh interpreter processes, starts one worker
process (``worker.py``) that runs the workload in-process through
``vdpc.cli.main``, and prints a record line with the environment and the
failure details, then the result as the last line of stdout.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer metrics of a separate traced run.
``--summary`` runs every workload untraced and prints its end-to-end
figures, one per line, with unit and sample count.
``--record`` rewrites ``reference.json`` from seed-0 runs of every workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 170
# What "ready" means for setup_s: the CLI module imported, NumPy and SciPy with it.
PROBE = "import time, vdpc.cli; print(time.monotonic())"


def worker_env(root: Path) -> dict:
    """The workload runs single-threaded; BLAS and OpenMP pools are pinned
    to one thread, which is at most the number of cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def setup_times(env: dict, root: Path) -> list[float]:
    """Seconds from spawning an interpreter to a ready ``vdpc.cli``.

    CLOCK_MONOTONIC is shared by all processes, so the child's reading
    after its imports minus the parent's reading before the spawn is the
    start-up time.  One unrecorded probe first writes the bytecode cache.
    """
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=root,
                             capture_output=True, text=True, check=True, timeout=60)
        if i:
            times.append(float(out.stdout) - t0)
    return times


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's git directory, if it has one."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile of pass time with at
    least ten samples beyond it, but never below the upper median: with
    fewer than 21 passes no percentile above the median has ten samples
    beyond it, and the upper median is reported."""
    xs = sorted(walls)
    n = len(xs)
    i = max(n - 11, n // 2)
    return xs[i], math.floor(100.0 * (i + 1) / n)


def run_worker(root: Path, work: Path, env: dict, workload: str, seed: int,
               seconds: float, trace: int, extra: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--inputs", str(work / "inputs"), "--out", str(work / "out"),
           "--reference", str(REFERENCE)] + extra
    out = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                         timeout=WORKER_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit("worker for %s exited with %d" % (workload, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_checkout(root: Path) -> None:
    missing = [p for p in (Path("src/vdpc/cli.py"), workloads.T710, workloads.BUNDLED_DIR)
               if not (root / p).exists()]
    if missing:
        raise SystemExit("not a vdpc checkout: missing %s (run from the repository root)"
                         % ", ".join(map(str, missing)))


def record_reference(root: Path, env: dict) -> None:
    reference = {}
    for workload in workloads.WORKLOADS:
        work = root / ".perfbench_out" / ("record-" + workload)
        shutil.rmtree(work, ignore_errors=True)
        workloads.prepare_inputs(root, work / "inputs", workload, 0)
        reference[workload] = run_worker(root, work, env, workload, 0, 0, 0, ["--record"])
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print("wrote", REFERENCE)


def run_once(root: Path, env: dict, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict]:
    """One measured run: (record, result), as printed on the last two lines."""
    work = root / ".perfbench_out" / ("%s-%d-%d" % (workload, seed, trace))
    shutil.rmtree(work, ignore_errors=True)
    workloads.prepare_inputs(root, work / "inputs", workload, seed)
    setup = [] if trace else setup_times(env, root)
    spans = root / ".perfbench_out" / ("spans-%s-%d.csv" % (workload, seed))
    res = run_worker(root, work, env, workload, seed, seconds, trace,
                     ["--spans", str(spans)] if trace else [])
    shutil.rmtree(work, ignore_errors=True)

    walls = res["walls"]
    failed_frac = res["failed"] / res["attempted"]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(walls),
        "pass_walls_s": walls,
        "untraced_pass_walls_s": res.get("untraced_walls"),
        "call_median_s": res["call_median_s"],
        "setup_probes_s": setup,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "t710-run.perm_ari": res["perm_ari"] if workload == "t710-run" else None,
        "env": {
            "git_sha": git_sha(root),
            "python": platform.python_version(),
            "numpy": res["versions"]["numpy"],
            "scipy": res["versions"]["scipy"],
            "nproc": os.cpu_count(),
            "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
            "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        },
    }
    if trace:
        record["spans_file"] = str(spans.relative_to(root))
        metrics = res["per_layer"]
    else:
        tail_s, tail_pct = tail(walls)
        # name: (value, unit, samples); failed_frac is 0 on a correct
        # program, so it is reported here but is not a bounded metric.
        record["end_to_end"] = {
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "wall_s": (statistics.median(walls), "s", len(walls)),
            "wall_s_tail": (tail_s, "s", len(walls)),
            "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
            "failed_frac": (failed_frac, "ratio", res["attempted"]),
        }
        record["wall_s_tail_percentile"] = tail_pct
        metrics = {k: (v, u) for k, (v, u, _) in record["end_to_end"].items()
                   if k != "failed_frac"}
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def print_summary(records: list[dict]) -> None:
    """The end-to-end figures of each workload, one line per metric."""
    for r in records:
        for name, (value, unit, samples) in r["end_to_end"].items():
            note = " (p%d)" % r["wall_s_tail_percentile"] if name == "wall_s_tail" else ""
            print("%-13s %-12s %14.6f %-6s n=%d%s" % (r["workload"], name, value, unit,
                                                      samples, note))
        if r["failures"]:
            print("%-13s failures: %s" % (r["workload"], "; ".join(r["failures"])))
        if r["t710-run.perm_ari"] is not None:
            print("%-13s t710-run.perm_ari %.6f" % (r["workload"], r["t710-run.perm_ari"]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite reference.json from seed-0 runs")
    ap.add_argument("--summary", action="store_true",
                    help="run every workload untraced and print its end-to-end figures")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    root = Path.cwd()
    check_checkout(root)
    env = worker_env(root)
    if args.record:
        record_reference(root, env)
        return 0
    if args.summary:
        records = [run_once(root, env, w, args.seed, args.seconds, 0)[0]
                   for w in workloads.WORKLOADS]
        print_summary(records)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    record, result = run_once(root, env, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
