"""Command-line front end.

Subcommands
-----------
run             cluster one dataset and write labels / decision graph /
                metrics / optional stage trace
bench           reproduce a named benchmark suite against the bundled
                expected-value manifest
sweep           evaluate a parameter grid, one CSV row per grid point
decision-graph  export the density/separation scatter for center picking

Exit codes: 0 success, 1 usage error, 2 data error, 3 pipeline error,
4 benchmark cell outside its declared tolerance.

Everything is deterministic: re-running a command on the same inputs
reproduces every artifact byte for byte, except the wall-clock
``runtime_ms`` field of metrics JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from .baselines import DbscanParams, dbscan, dpc_assign, dpc_select_centers, snnc
from .dataset import Dataset, load_points_csv, pairwise_distances
from .density import _shared_profile, decision_graph, density_profile
from .errors import DataError, VdpcError
from .metrics import adjusted_rand_index, normalized_mutual_information
from .vdpc import ABLATION_CHOICES, AblationOptions, VdpcParams, vdpc_run

__all__ = ["main"]

BUNDLED = ("aggregation", "compound", "flame", "jain", "pathbased", "r15")
SUITES = (
    "synthetic-table4",
    "num-sensitivity-table2",
    "appendixA",
    "appendixB",
    "appendixC",
)


class UsageError(Exception):
    """Bad command line or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we keep our codes
        raise UsageError(message)


def _fmt(x) -> str:
    """12 significant digits; plain integers stay integral."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.12g" % float(x)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_rows(path: Path, header: list[str], rows) -> None:
    _write_text(path, _csv_text(header, rows))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=True) + "\n"


def load_bundled(name: str) -> Dataset:
    """Load one of the six packaged benchmark datasets by name."""
    key = name.lower()
    if key not in BUNDLED:
        raise DataError(
            "unknown bundled dataset %r (available: %s)" % (name, ", ".join(BUNDLED))
        )
    ref = resources.files("vdpc.data").joinpath(key + ".csv")
    with resources.as_file(ref) as path:
        return load_points_csv(path, has_header=True, label_column=-1, name=key)


def _load_dataset(args) -> Dataset:
    if args.dataset.lower() in BUNDLED:
        return load_bundled(args.dataset)
    return load_points_csv(
        args.dataset,
        has_header=args.has_header,
        label_column=args.label_column,
    )


def _write_indexed(path: Path, column: str, values: np.ndarray) -> None:
    _write_rows(path, ["index", column], enumerate(values.tolist()))


def _write_trace(outdir: Path, result) -> None:
    trace = outdir / "trace"
    profile = result.profile
    _write_rows(
        trace / "representatives.csv",
        ["index", "rho", "delta", "level"],
        (
            (int(r), profile.rho[r], profile.delta[r], int(lv))
            for r, lv in zip(result.representatives, result.rep_level)
        ),
    )
    _write_indexed(trace / "initial_labels.csv", "cluster", result.initial_labels)
    _write_rows(
        trace / "levels.csv",
        ["level", "rho_low", "rho_high", "w", "numl"],
        (
            (p + 1, lo, hi, result.levels.w, result.levels.numl)
            for p, (lo, hi) in enumerate(result.levels.intervals)
        ),
    )
    _write_indexed(trace / "point_levels.csv", "level", result.point_level)
    _write_rows(
        trace / "low_clusters.csv",
        ["index", "cluster"],
        itertools.chain(
            ((int(p), c) for c, cluster in enumerate(result.low_clusters) for p in cluster),
            ((int(p), -1) for p in result.low_noise),
        ),
    )
    _write_rows(
        trace / "boundary_points.csv",
        ["index"],
        ((int(b),) for b in result.boundary_points),
    )
    _write_rows(
        trace / "derivations.csv",
        ["level", "x_low", "x_far", "x_high", "eps", "minpts_low", "minpts_high", "minpts"],
        (
            (p, d.x_low, d.x_far, d.x_high, d.eps, d.minpts_low, d.minpts_high, d.minpts)
            for p, d in result.derivations
        ),
    )
    _write_indexed(trace / "pre_noise_labels.csv", "cluster", result.pre_noise_labels)


# the parameters each algorithm reads, in the order metrics.json shows them
PARAMS = {
    "vdpc": ("pct", "delta_t", "num"),
    "dpc": ("pct", "rho_min", "delta_min"),
    "dbscan": ("eps", "minpts"),
    "snnc": ("k",),
}
ABLATIONS = tuple(f.name for f in dataclasses.fields(AblationOptions))


def run_algorithm(cd, algorithm: str, params: dict):
    """Cluster ``cd`` with one algorithm, named and parameterized as in the
    bench manifest (vdpc's ``num`` and ablation keys may be left out).

    vdpc and dpc share the density profiles kept on ``cd``.  Returns
    (labels, profile or None, VdpcResult or None).
    """
    if algorithm == "vdpc":
        vp = VdpcParams(pct=params["pct"], delta_t=params["delta_t"],
                        num=params.get("num", 10))
        options = AblationOptions(**{k: params[k] for k in ABLATIONS if k in params})
        result = vdpc_run(cd, vp, options)
        return result.labels, result.profile, result
    if algorithm == "dpc":
        dp = _shared_profile(cd, params["pct"])
        centers = dpc_select_centers(dp, params["rho_min"], params["delta_min"])
        return dpc_assign(dp, centers), dp, None
    if algorithm == "dbscan":
        labels = dbscan(cd, DbscanParams(eps=params["eps"], minpts=params["minpts"]))
        return labels, None, None
    return snnc(cd, params["k"]), None, None


def _cli_params(args) -> dict:
    """The chosen algorithm's parameters from the command line; the
    ablation switches are included only when one is not the default."""
    missing = [n for n in PARAMS[args.algorithm] if getattr(args, n) is None]
    if missing:
        raise UsageError("algorithm %r requires --%s" % (
            args.algorithm, ", --".join(n.replace("_", "-") for n in missing)))
    params = {n: getattr(args, n) for n in PARAMS[args.algorithm]}
    ablation = {n: getattr(args, n) for n in ABLATIONS}
    if args.algorithm == "vdpc" and ablation != dataclasses.asdict(AblationOptions()):
        params.update(ablation)
    return params


def _score(ds: Dataset, labels: np.ndarray):
    if ds.ground_truth is None:
        return None, None
    return (
        adjusted_rand_index(labels, ds.ground_truth),
        normalized_mutual_information(labels, ds.ground_truth),
    )


def _scorer(ds: Dataset):
    """``_score`` on ``ds``, computed once per distinct labelling."""
    scores: dict = {}

    def score(labels: np.ndarray):  # every algorithm labels in int64
        key = labels.tobytes()
        if key not in scores:
            scores[key] = _score(ds, labels)
        return scores[key]

    return score


def _emit(args, header: list[str], rows: list[list]) -> None:
    if args.format == "json":
        sys.stdout.write(_json_text([dict(zip(header, row)) for row in rows]))
    else:
        sys.stdout.write(_csv_text(header, rows))


def cmd_run(args) -> int:
    ds = _load_dataset(args)
    params = _cli_params(args)
    t0 = time.perf_counter()
    labels, profile, result = run_algorithm(pairwise_distances(ds), args.algorithm, params)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    outdir = Path(args.output_dir)
    _write_indexed(outdir / "labels.csv", "cluster", labels)
    if profile is not None:
        _write_rows(outdir / "decision_graph.csv", ["index", "rho", "delta"],
                    decision_graph(profile))
    ari, nmi = _score(ds, labels)
    if ari is not None:
        metrics = {
            "dataset": ds.name,
            "algorithm": args.algorithm,
            "params": params,
            "ari": ari,
            "nmi": nmi,
            "runtime_ms": runtime_ms,
        }
        _write_text(outdir / "metrics.json", _json_text(metrics))
    if args.trace and result is not None:
        _write_trace(outdir, result)
    n_clusters = int(labels.max()) + 1 if labels.size else 0
    _emit(
        args,
        ["dataset", "algorithm", "clusters", "ari", "nmi"],
        [[ds.name, args.algorithm, n_clusters,
          "" if ari is None else ari, "" if nmi is None else nmi]],
    )
    return 0


def cmd_decision_graph(args) -> int:
    ds = _load_dataset(args)
    profile = density_profile(pairwise_distances(ds), args.pct)
    out = Path(args.output) if args.output else Path(args.output_dir) / "decision_graph.csv"
    _write_rows(out, ["index", "rho", "delta"], decision_graph(profile))
    _emit(args, ["dataset", "points", "d_c", "output"],
          [[ds.name, profile.n, profile.d_c, str(out)]])
    return 0


def cmd_sweep(args) -> int:
    ds = _load_dataset(args)
    cd = pairwise_distances(ds)
    score = _scorer(ds)
    ablation = {n: getattr(args, n) for n in ABLATIONS}
    rows: list[list] = []
    nan = float("nan")
    for pct, delta_t, num in itertools.product(args.pct, args.delta_t, args.num):
        params = dict(pct=pct, delta_t=delta_t, num=num, **ablation)
        try:
            ari, nmi = score(run_algorithm(cd, "vdpc", params)[0])
        except VdpcError:
            ari = nmi = None
        rows.append([pct, delta_t, num, nan if ari is None else ari,
                     nan if nmi is None else nmi])
    header = ["pct", "delta_t", "num", "ari", "nmi"]
    _write_rows(Path(args.output_dir) / "sweep.csv", header, rows)
    _emit(args, header, rows)
    return 0


def _bench_dataset(name: str, cells: list[dict]) -> dict[int, tuple]:
    """(ARI, NMI) by manifest position of the cells on one bundled dataset;
    they share its distances, its density profiles and the scores of
    equal labellings."""
    ds = load_bundled(name)
    cd = pairwise_distances(ds)
    score = _scorer(ds)
    return {
        i: score(run_algorithm(cd, c["algorithm"], c["params"])[0])
        for i, c in enumerate(cells) if c["dataset"] == name
    }


def _judge_cell(cell: dict, ari: float, nmi: float):
    """pass/fail vs the stored expectation; 'info' when none is stored."""
    if cell.get("expected_ari") is None:
        return "info"
    tol = cell.get("tol", 0.01)
    ok = abs(ari - cell["expected_ari"]) <= tol
    if ok and cell.get("expected_nmi") is not None:
        ok = abs(nmi - cell["expected_nmi"]) <= tol
    return "pass" if ok else "fail"


def _params_label(params: dict) -> str:
    return ";".join("%s=%s" % (k, params[k]) for k in sorted(params))


def load_manifest() -> dict:
    text = resources.files("vdpc.data").joinpath("expected.json").read_text()
    return json.loads(text)


def cmd_bench(args) -> int:
    manifest = load_manifest()
    if args.suite not in manifest:
        raise UsageError(
            "unknown suite %r (available: %s)" % (args.suite, ", ".join(SUITES))
        )
    suite = manifest[args.suite]
    header = [
        "dataset", "algorithm", "params", "ari", "nmi",
        "expected_ari", "tol", "status", "gated", "note",
    ]
    rows: list[list] = []
    records: list[dict] = []
    gated_failures: list[str] = []
    # one dataset's distances at a time; rows stay in manifest order
    scores: dict[int, tuple] = {}
    for name in dict.fromkeys(cell["dataset"] for cell in suite["cells"]):
        scores.update(_bench_dataset(name, suite["cells"]))
    for i, cell in enumerate(suite["cells"]):
        ari, nmi = scores[i]
        status = _judge_cell(cell, ari, nmi)
        gated = bool(cell.get("gated", False))
        if status == "fail" and gated:
            gated_failures.append(
                "%s/%s" % (cell["dataset"], _params_label(cell["params"]))
            )
        record = {
            "dataset": cell["dataset"],
            "algorithm": cell["algorithm"],
            "params": cell["params"],
            "ari": ari,
            "nmi": nmi,
            "expected_ari": cell.get("expected_ari"),
            "tol": cell.get("tol", 0.01),
            "status": status,
            "gated": gated,
            "note": cell.get("note", ""),
        }
        records.append(record)
        rows.append([
            record["dataset"], record["algorithm"], _params_label(cell["params"]),
            ari, nmi,
            "" if record["expected_ari"] is None else record["expected_ari"],
            record["tol"], status, str(gated).lower(), record["note"],
        ])
    for check in suite.get("checks", []):
        status = _run_check(check, records)
        gated = bool(check.get("gated", False))
        if status == "fail" and gated:
            gated_failures.append(check["name"])
        records.append({"check": check["name"], "status": status, "gated": gated})
        rows.append([check["name"], "check", "", "", "", "", "", status,
                     str(gated).lower(), check.get("note", "")])
    outdir = Path(args.output_dir)
    stem = "bench_" + args.suite.replace("-", "_")
    _write_rows(outdir / (stem + ".csv"), header, rows)
    _write_text(outdir / (stem + ".json"), _json_text(records))
    _emit(args, header, rows)
    if gated_failures:
        sys.stderr.write(
            "bench: %d gated cell(s) outside tolerance: %s\n"
            % (len(gated_failures), "; ".join(gated_failures))
        )
        return 4
    return 0


def _run_check(check: dict, records: list[dict]) -> str:
    combo_ari = {
        r["params"].get("combo", "snnc+dbscan"): r["ari"]
        for r in records
        if "params" in r and r["dataset"] == check["dataset"] and r["algorithm"] == "vdpc"
    }
    if check["type"] == "dominance":
        best = check["combo"]
        others = [a for c, a in combo_ari.items() if c != best]
        ok = bool(others) and all(combo_ari[best] > a for a in others)
    elif check["type"] == "below":
        ok = combo_ari[check["combo"]] < check["threshold"]
    else:
        raise DataError("unknown check type %r in manifest" % check["type"])
    return "pass" if ok else "fail"


def _list_of(kind):
    """argparse type: a comma-separated list of ``kind`` values."""
    def parse(text: str) -> list:
        try:
            return [kind(t) for t in text.split(",") if t.strip() != ""]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


def _add_dataset_args(p: _Parser) -> None:
    p.add_argument(
        "--dataset",
        required=True,
        help="bundled dataset name (%s) or a CSV path" % ", ".join(BUNDLED),
    )
    p.add_argument("--has-header", action="store_true",
                   help="first line of the CSV file is a header")
    p.add_argument("--label-column", type=int, default=None,
                   help="column index holding ground-truth labels")


def _add_common_output(p: _Parser) -> None:
    p.add_argument("--output-dir", default=".", help="artifact directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="stdout summary format")


def _add_ablation_args(p: _Parser) -> None:
    for f in dataclasses.fields(AblationOptions):
        p.add_argument("--" + f.name.replace("_", "-"),
                       choices=ABLATION_CHOICES[f.name], default=f.default)


def build_parser() -> _Parser:
    parser = _Parser(prog="vdpc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command")

    run = sub.add_parser("run",
                         help="cluster one dataset and write artifacts")
    _add_dataset_args(run)
    run.add_argument("--algorithm", choices=tuple(PARAMS), default="vdpc")
    run.add_argument("--pct", type=float, default=None,
                     help="distance percentile (vdpc, dpc)")
    run.add_argument("--delta-t", type=float, default=None,
                     help="representative delta cut-off (vdpc)")
    run.add_argument("--num", type=int, default=10, help="density segment count")
    _add_ablation_args(run)
    run.add_argument("--rho-min", type=float, default=None,
                     help="decision-graph density threshold (dpc)")
    run.add_argument("--delta-min", type=float, default=None,
                     help="decision-graph delta threshold (dpc)")
    run.add_argument("--eps", type=float, default=None, help="radius (dbscan)")
    run.add_argument("--minpts", type=int, default=None,
                     help="minimum neighborhood count (dbscan)")
    run.add_argument("--k", type=int, default=None,
                     help="neighbor count (snnc)")
    run.add_argument("--trace", action="store_true",
                     help="write per-stage snapshot CSVs (vdpc only)")
    _add_common_output(run)
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench",
                           help="reproduce a benchmark suite")
    bench.add_argument("--suite", required=True,
                       help="one of: %s" % ", ".join(SUITES))
    _add_common_output(bench)
    bench.set_defaults(func=cmd_bench)

    sweep = sub.add_parser("sweep",
                           help="evaluate a vdpc parameter grid")
    _add_dataset_args(sweep)
    sweep.add_argument("--pct", type=_list_of(float), required=True,
                       help="comma-separated percentile values")
    sweep.add_argument("--delta-t", type=_list_of(float), required=True,
                       help="comma-separated delta cut-offs")
    sweep.add_argument("--num", type=_list_of(int), default=[10],
                       help="comma-separated segment counts")
    _add_ablation_args(sweep)
    _add_common_output(sweep)
    sweep.set_defaults(func=cmd_sweep)

    dg = sub.add_parser("decision-graph",
                        help="export the rho/delta scatter as CSV")
    _add_dataset_args(dg)
    dg.add_argument("--pct", type=float, required=True)
    dg.add_argument("--output", default=None,
                    help="output CSV path (default: <output-dir>/decision_graph.csv)")
    _add_common_output(dg)
    dg.set_defaults(func=cmd_decision_graph)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help exits via argparse
            return int(exc.code or 0)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write("vdpc: usage error: %s\n" % exc)
        return 1
    except DataError as exc:
        sys.stderr.write("vdpc: data error: %s\n" % exc)
        return 2
    except VdpcError as exc:
        sys.stderr.write("vdpc: %s\n" % exc)
        return exc.exit_code
    except Exception as exc:  # anything else counts as a pipeline failure
        sys.stderr.write("vdpc: pipeline error: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
