import importlib
import itertools
import json
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vdpc
import vdpc.cli
from vdpc import (
    AblationOptions,
    VdpcParams,
    adjusted_rand_index,
    normalized_mutual_information,
    pairwise_distances,
    vdpc_run,
)
from vdpc.cli import load_bundled, load_manifest, main, run_algorithm


def run_cli(*argv):
    return main(list(argv))


def read_labels(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64)
    assert np.array_equal(rows[:, 0], np.arange(len(rows)))
    return rows[:, 1]


def score_calls(monkeypatch) -> list:
    """Patch the CLI's ARI to record the labels of each call."""
    calls = []

    def counted(labels, truth):
        calls.append(labels.tobytes())
        return adjusted_rand_index(labels, truth)

    monkeypatch.setattr(vdpc.cli, "adjusted_rand_index", counted)
    return calls


class TestRun:
    def test_vdpc_compound_artifacts(self, tmp_path, capsys):
        code = run_cli(
            "run", "--dataset", "compound", "--pct", "1.9", "--delta-t", "1.39",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "labels.csv").exists()
        assert (tmp_path / "decision_graph.csv").exists()
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["dataset"] == "compound"
        assert metrics["algorithm"] == "vdpc"
        assert metrics["params"] == {"pct": 1.9, "delta_t": 1.39, "num": 10}
        assert metrics["ari"] == 1.0
        assert metrics["nmi"] == 1.0
        assert metrics["runtime_ms"] > 0
        assert not (tmp_path / "trace").exists()
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "dataset,algorithm,clusters,ari,nmi"

    def test_labels_csv_round_trips(self, tmp_path):
        run_cli("run", "--dataset", "jain", "--pct", "50", "--delta-t", "5.5",
                "--output-dir", str(tmp_path))
        labels = read_labels(tmp_path / "labels.csv")
        truth = load_bundled("jain").ground_truth
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert adjusted_rand_index(labels, truth) == metrics["ari"]

    def test_decision_graph_format(self, tmp_path):
        run_cli("run", "--dataset", "flame", "--pct", "5", "--delta-t", "5.5",
                "--output-dir", str(tmp_path))
        lines = (tmp_path / "decision_graph.csv").read_text().splitlines()
        assert lines[0] == "index,rho,delta"
        assert len(lines) == 1 + 240
        idx, rho, delta = lines[1].split(",")
        assert idx == "0"
        # values are serialized with 12 significant digits
        assert rho == "%.12g" % float(rho)
        assert delta == "%.12g" % float(delta)

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("run", "--dataset", "compound", "--pct", "1.9",
                           "--delta-t", "1.39", "--trace",
                           "--output-dir", str(out)) == 0
        for rel in ("labels.csv", "decision_graph.csv",
                    "trace/representatives.csv", "trace/initial_labels.csv",
                    "trace/levels.csv", "trace/point_levels.csv",
                    "trace/low_clusters.csv", "trace/boundary_points.csv",
                    "trace/derivations.csv", "trace/pre_noise_labels.csv"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
        ma = json.loads((a / "metrics.json").read_text())
        mb = json.loads((b / "metrics.json").read_text())
        ma.pop("runtime_ms"), mb.pop("runtime_ms")
        assert ma == mb

    def test_trace_snapshots(self, tmp_path):
        run_cli("run", "--dataset", "compound", "--pct", "1.9", "--delta-t",
                "1.39", "--trace", "--output-dir", str(tmp_path))
        trace = tmp_path / "trace"
        names = sorted(p.name for p in trace.iterdir())
        assert names == [
            "boundary_points.csv", "derivations.csv", "initial_labels.csv",
            "levels.csv", "low_clusters.csv", "point_levels.csv",
            "pre_noise_labels.csv", "representatives.csv",
        ]
        levels = trace / "levels.csv"
        assert levels.read_text().splitlines()[0] == "level,rho_low,rho_high,w,numl"

    def test_ablation_options_written_to_metrics(self, tmp_path):
        assert run_cli("run", "--dataset", "jain", "--pct", "50", "--delta-t",
                       "5.5", "--combo", "snnc+snnc",
                       "--output-dir", str(tmp_path)) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["params"] == {
            "pct": 50.0, "delta_t": 5.5, "num": 10, "k_rule": "sqrt",
            "eps_rule": "sqrt", "combo": "snnc+snnc", "level_assignment": "inherit",
        }

    def test_trace_writes_low_level_noise(self, tmp_path):
        run_cli("run", "--dataset", "pathbased", "--pct", "0.4", "--delta-t",
                "3.5", "--combo", "dbscan+dbscan", "--trace",
                "--output-dir", str(tmp_path))
        rows = np.loadtxt(tmp_path / "trace" / "low_clusters.csv",
                          delimiter=",", skiprows=1, dtype=np.int64)
        # the cluster rows come first, then one row per low-level noise point
        assert (rows[:, 1] == -1).sum() == 70
        assert np.all(rows[-70:, 1] == -1)
        pre_noise = read_labels(tmp_path / "trace" / "pre_noise_labels.csv")
        assert np.all(pre_noise[rows[-70:, 0]] == -1)

    def test_dbscan_jain(self, tmp_path):
        code = run_cli("run", "--dataset", "jain", "--algorithm", "dbscan",
                       "--eps", "2.9", "--minpts", "20",
                       "--output-dir", str(tmp_path))
        assert code == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["ari"] == 1.0
        assert not (tmp_path / "decision_graph.csv").exists()

    def test_dpc_flame(self, tmp_path):
        code = run_cli("run", "--dataset", "flame", "--algorithm", "dpc",
                       "--pct", "5", "--rho-min", "1.0", "--delta-min", "5.0",
                       "--output-dir", str(tmp_path))
        assert code == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["ari"] == 1.0
        assert (tmp_path / "decision_graph.csv").exists()

    def test_dpc_and_vdpc_share_a_profile(self):
        cd = pairwise_distances(load_bundled("flame"))
        _, first, _ = run_algorithm(cd, "vdpc", {"pct": 5, "delta_t": 5.5})
        _, shared, _ = run_algorithm(
            cd, "dpc", {"pct": 5, "rho_min": 1.0, "delta_min": 5.0})
        assert shared is first

    def test_snnc(self, tmp_path):
        assert run_cli("run", "--dataset", "flame", "--algorithm", "snnc",
                       "--k", "12", "--output-dir", str(tmp_path)) == 0
        assert (tmp_path / "labels.csv").exists()

    def test_custom_csv_with_labels(self, tmp_path):
        data = tmp_path / "toy.csv"
        data.write_text("x,y,c\n0,0,1\n0.1,0,1\n9,9,2\n9.1,9,2\n")
        out = tmp_path / "out"
        code = run_cli("run", "--dataset", str(data), "--has-header",
                       "--label-column", "-1", "--algorithm", "dbscan",
                       "--eps", "1.0", "--minpts", "2",
                       "--output-dir", str(out))
        assert code == 0
        assert json.loads((out / "metrics.json").read_text())["ari"] == 1.0

    def test_unlabeled_csv_skips_metrics(self, tmp_path):
        data = tmp_path / "toy.csv"
        data.write_text("0,0\n0.1,0\n9,9\n")
        out = tmp_path / "out"
        assert run_cli("run", "--dataset", str(data), "--algorithm", "dbscan",
                       "--eps", "1.0", "--minpts", "2",
                       "--output-dir", str(out)) == 0
        assert not (out / "metrics.json").exists()

    def test_json_summary(self, tmp_path, capsys):
        run_cli("run", "--dataset", "flame", "--pct", "5", "--delta-t", "5.5",
                "--output-dir", str(tmp_path), "--format", "json")
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["dataset"] == "flame"
        assert payload[0]["ari"] == 1.0


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli() == 1

    def test_unknown_algorithm(self, tmp_path, capsys):
        assert run_cli("run", "--dataset", "flame", "--algorithm", "kmeans") == 1

    def test_missing_algorithm_params(self, capsys):
        assert run_cli("run", "--dataset", "flame") == 1  # vdpc needs pct

    def test_missing_dataset_file_no_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("run", "--dataset", str(tmp_path / "nope.csv"),
                       "--pct", "2", "--delta-t", "1",
                       "--output-dir", str(out))
        assert code == 2
        assert not out.exists()

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,0\n1,bogus\n")
        assert run_cli("run", "--dataset", str(bad), "--pct", "2",
                       "--delta-t", "1", "--output-dir", str(tmp_path)) == 2

    def test_overflowing_distances_are_a_data_error(self, tmp_path, capsys):
        csv = tmp_path / "far.csv"
        csv.write_text("-1e308,0\n1e308,0\n0,1\n")
        assert run_cli("run", "--dataset", str(csv), "--pct", "2",
                       "--delta-t", "1", "--output-dir", str(tmp_path)) == 2
        assert "distances contain non-finite values" in capsys.readouterr().err

    def test_pipeline_error(self, tmp_path, capsys):
        code = run_cli("run", "--dataset", "flame", "--pct", "5",
                       "--delta-t", "1e9", "--output-dir", str(tmp_path))
        assert code == 3

    def test_non_finite_pct_is_parameter_error(self, tmp_path, capsys):
        for bad in ("nan", "inf"):
            code = run_cli("run", "--dataset", "flame", "--pct", bad,
                           "--delta-t", "5.5", "--output-dir", str(tmp_path))
            assert code == 3
            err = capsys.readouterr().err
            assert "pct must be a finite number > 0, got %s" % bad in err

    def test_num_beyond_float_integers_is_parameter_error(self, tmp_path, capsys):
        code = run_cli("run", "--dataset", "flame", "--pct", "5", "--delta-t",
                       "5.5", "--num", str(2**63), "--output-dir", str(tmp_path))
        assert code == 3
        assert "num must be at most 2**53, got %d" % 2**63 in capsys.readouterr().err

    def test_nan_dpc_threshold_is_named(self, tmp_path, capsys):
        for flag, name in (("--rho-min", "rho_min"), ("--delta-min", "delta_min")):
            argv = {"--rho-min": "1", "--delta-min": "1", flag: "nan"}
            code = run_cli("run", "--dataset", "flame", "--algorithm", "dpc",
                           "--pct", "2", *[a for kv in argv.items() for a in kv],
                           "--output-dir", str(tmp_path))
            assert code == 3
            err = capsys.readouterr().err
            assert "%s must be a number, got nan" % name in err
            assert "no centers selected" not in err

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run_cli("bench", "--suite", "bogus") == 1

    def test_failed_gated_cell_exits_4_and_is_named(self, tmp_path, capsys,
                                                     monkeypatch):
        cell = {"dataset": "jain", "algorithm": "dbscan",
                "params": {"eps": 2.9, "minpts": 20}, "expected_ari": -1.0,
                "gated": True}
        monkeypatch.setattr(vdpc.cli, "load_manifest",
                            lambda: {"tiny": {"cells": [cell]}})
        assert run_cli("bench", "--suite", "tiny", "--output-dir", str(tmp_path)) == 4
        assert capsys.readouterr().err == (
            "bench: 1 gated cell(s) outside tolerance: jain/eps=2.9;minpts=20\n")

    def test_unknown_check_type_is_data_error(self, tmp_path, capsys, monkeypatch):
        check = {"name": "odd", "type": "bogus", "dataset": "jain"}
        monkeypatch.setattr(vdpc.cli, "load_manifest",
                            lambda: {"tiny": {"cells": [], "checks": [check]}})
        assert run_cli("bench", "--suite", "tiny", "--output-dir", str(tmp_path)) == 2
        assert "unknown check type 'bogus'" in capsys.readouterr().err

    def test_non_numeric_sweep_value_is_usage_error(self, tmp_path, capsys):
        assert run_cli("sweep", "--dataset", "flame", "--pct", "1,x",
                       "--delta-t", "5.5", "--output-dir", str(tmp_path)) == 1
        assert "usage error" in capsys.readouterr().err

    def test_output_dir_that_is_a_file_is_pipeline_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli("run", "--dataset", "flame", "--algorithm", "dbscan",
                       "--eps", "1", "--minpts", "6", "--output-dir", str(taken)) == 3
        assert "vdpc: pipeline error: " in capsys.readouterr().err
        assert taken.read_text() == ""

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0

    def test_console_script_installed(self):
        # the child imports the same vdpc as this process, installed or not
        src = str(Path(vdpc.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "vdpc.cli", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "decision-graph" in proc.stdout

    def test_decision_log_stays_off_the_console(self, tmp_path):
        # compound's run logs its DBSCAN level at debug level
        src = str(Path(vdpc.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "vdpc.cli", "run", "--dataset", "compound",
             "--pct", "1.9", "--delta-t", "1.39", "--output-dir", str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == [
            "dataset,algorithm,clusters,ari,nmi", "compound,vdpc,6,1,1"]


class TestBench:
    def test_appendix_b_suite_passes(self, tmp_path, capsys):
        code = run_cli("bench", "--suite", "appendixB",
                       "--output-dir", str(tmp_path))
        assert code == 0
        csv = (tmp_path / "bench_appendixB.csv").read_text()
        assert csv.splitlines()[0].startswith("dataset,algorithm,params,")
        records = json.loads((tmp_path / "bench_appendixB.json").read_text())
        statuses = {r["status"] for r in records if "dataset" in r}
        assert statuses <= {"pass", "info"}

    def test_appendix_c_suite_reports_known_failure(self, tmp_path, capsys):
        code = run_cli("bench", "--suite", "appendixC",
                       "--output-dir", str(tmp_path))
        assert code == 4  # the below-0.1 expectation is not reproducible
        records = json.loads((tmp_path / "bench_appendixC.json").read_text())
        checks = {r["check"]: r["status"] for r in records if "check" in r}
        assert checks["compound: snnc+dbscan strictly dominates"] == "pass"
        assert checks["pathbased: snnc+dbscan strictly dominates"] == "pass"
        assert checks["pathbased: dbscan+dbscan scores below 0.1"] == "fail"

    def test_bench_reruns_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("bench", "--suite", "appendixA", "--output-dir", str(out))
        assert (a / "bench_appendixA.csv").read_bytes() == \
            (b / "bench_appendixA.csv").read_bytes()
        assert (a / "bench_appendixA.json").read_bytes() == \
            (b / "bench_appendixA.json").read_bytes()

    def test_rows_follow_manifest_order(self, tmp_path, capsys):
        # the cells run grouped by dataset; the rows keep the manifest order
        run_cli("bench", "--suite", "synthetic-table4", "--output-dir", str(tmp_path))
        records = json.loads((tmp_path / "bench_synthetic_table4.json").read_text())
        cells = load_manifest()["synthetic-table4"]["cells"]
        assert [(r["dataset"], r["algorithm"], r["params"]) for r in records
                if "params" in r] == [
            (c["dataset"], c["algorithm"], c["params"]) for c in cells]

    def test_each_distinct_labelling_is_scored_once(self, tmp_path, capsys,
                                                    monkeypatch):
        scored = score_calls(monkeypatch)
        suite = "num-sensitivity-table2"
        run_cli("bench", "--suite", suite, "--output-dir", str(tmp_path))
        assert len(set(scored)) == len(scored)
        records = json.loads((tmp_path / "bench_num_sensitivity_table2.json")
                             .read_text())
        cells = load_manifest()[suite]["cells"]
        assert len(scored) < len(cells)
        for record, cell in zip(records, cells):
            ds = load_bundled(cell["dataset"])
            labels = run_algorithm(pairwise_distances(ds), cell["algorithm"],
                                   cell["params"])[0]
            assert record["ari"] == adjusted_rand_index(labels, ds.ground_truth)
            assert record["nmi"] == normalized_mutual_information(
                labels, ds.ground_truth)

    def test_manifest_covers_all_suites(self):
        manifest = load_manifest()
        assert set(manifest) == {
            "synthetic-table4", "num-sensitivity-table2",
            "appendixA", "appendixB", "appendixC",
        }
        for suite in manifest.values():
            for cell in suite["cells"]:
                assert cell["dataset"] in ("flame", "aggregation", "r15",
                                           "compound", "jain", "pathbased")
                assert cell["algorithm"] in ("vdpc", "dpc", "dbscan", "snnc")


class TestSweep:
    def test_grid_order_and_best_cell(self, tmp_path, capsys):
        code = run_cli("sweep", "--dataset", "compound",
                       "--pct", "1,1.9,5", "--delta-t", "1.0,1.39",
                       "--output-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "pct,delta_t,num,ari,nmi"
        assert len(lines) == 7
        rows = [line.split(",") for line in lines[1:]]
        grid = [(r[0], r[1]) for r in rows]
        assert grid == [("1", "1"), ("1", "1.39"), ("1.9", "1"),
                        ("1.9", "1.39"), ("5", "1"), ("5", "1.39")]
        aris = [float(r[3]) for r in rows]
        assert max(aris) == aris[3]  # (pct=1.9, delta_t=1.39)
        assert aris[3] == 1.0

    def test_failed_cell_becomes_nan_row(self, tmp_path, capsys):
        code = run_cli("sweep", "--dataset", "flame",
                       "--pct", "5", "--delta-t", "1e9,5.5",
                       "--output-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        first = lines[1].split(",")
        assert first[3] == "nan" and first[4] == "nan"
        assert float(lines[2].split(",")[3]) == 1.0

    def test_invalid_pct_and_num_cells_become_nan_rows(self, tmp_path, capsys):
        run_cli("sweep", "--dataset", "flame", "--pct", "0,5",
                "--delta-t", "5.5", "--num", "0,10",
                "--output-dir", str(tmp_path))
        rows = [line.split(",") for line in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert [r[:3] for r in rows] == [["0", "5.5", "0"], ["0", "5.5", "10"],
                                         ["5", "5.5", "0"], ["5", "5.5", "10"]]
        for pct, _, num, ari, nmi in rows:
            failed = pct == "0" or num == "0"
            assert (ari == "nan" and nmi == "nan") == failed
        assert float(rows[3][3]) == 1.0

    def test_num_beyond_float_integers_becomes_nan_row(self, tmp_path, capsys):
        nums = [10, 2**53, 2**53 + 1, 2**63]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 2**53 runs without a cast warning
            code = run_cli("sweep", "--dataset", "compound", "--pct", "2",
                           "--delta-t", "4.5", "--num", ",".join(map(str, nums)),
                           "--output-dir", str(tmp_path))
        assert code == 0
        rows = [line.split(",") for line in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert [int(r[2]) for r in rows] == nums
        assert rows[1][3:] == rows[0][3:] != ["nan", "nan"]
        assert rows[2][3:] == rows[3][3:] == ["nan", "nan"]

    def test_nan_pct_cells_become_nan_rows(self, tmp_path, capsys):
        code = run_cli("sweep", "--dataset", "flame", "--pct", "nan,5",
                       "--delta-t", "5.5", "--output-dir", str(tmp_path))
        assert code == 0
        rows = [line.split(",") for line in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert rows == [["nan", "5.5", "10", "nan", "nan"],
                        ["5", "5.5", "10", "1", "1"]]

    def test_combo_rows_equal_library_runs(self, tmp_path, capsys):
        run_cli("sweep", "--dataset", "pathbased", "--pct", "0.4,1",
                "--delta-t", "3.5,5", "--combo", "dbscan+dbscan",
                "--output-dir", str(tmp_path))
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        ds = load_bundled("pathbased")
        options = AblationOptions(combo="dbscan+dbscan")
        assert len(rows) == 4
        for row in rows:
            pct, delta_t, num, ari, nmi = row.split(",")
            labels = vdpc_run(ds, VdpcParams(float(pct), float(delta_t), int(num)),
                              options).labels
            assert ari == "%.12g" % adjusted_rand_index(labels, ds.ground_truth)
            assert nmi == "%.12g" % normalized_mutual_information(labels,
                                                                  ds.ground_truth)

    @pytest.mark.parametrize("name, pct, delta_t, num", [
        ("compound", "1.14,1.9", "0.834,1.39", "10,15"),
        ("pathbased", "0.24,0.4", "3.5,4.2", "5,10,15"),
    ])
    def test_grid_equals_cells_on_fresh_distances(self, tmp_path, capsys,
                                                  name, pct, delta_t, num):
        # the cells share level passes and scores; each cell alone may not
        run_cli("sweep", "--dataset", name, "--pct", pct, "--delta-t", delta_t,
                "--num", num, "--output-dir", str(tmp_path))
        ds = load_bundled(name)
        rows = []
        for p, d, m in itertools.product(
                *(v.split(",") for v in (pct, delta_t, num))):
            labels = vdpc_run(pairwise_distances(ds),
                              VdpcParams(float(p), float(d), int(m))).labels
            rows.append([float(p), float(d), int(m),
                         adjusted_rand_index(labels, ds.ground_truth),
                         normalized_mutual_information(labels, ds.ground_truth)])
        assert (tmp_path / "sweep.csv").read_text() == vdpc.cli._csv_text(
            ["pct", "delta_t", "num", "ari", "nmi"], rows)

    def test_each_distinct_labelling_is_scored_once(self, tmp_path, capsys,
                                                    monkeypatch):
        scored = score_calls(monkeypatch)
        run_cli("sweep", "--dataset", "pathbased", "--pct", "0.24,0.4",
                "--delta-t", "3.5,4.2,4.9", "--num", "5,10,15",
                "--output-dir", str(tmp_path))
        assert len(set(scored)) == len(scored) < 18

    def test_empty_grid_header_only(self, tmp_path, capsys):
        code = run_cli("sweep", "--dataset", "flame", "--pct", ",",
                       "--delta-t", "1.0", "--output-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "sweep.csv").read_text() == "pct,delta_t,num,ari,nmi\n"


class TestDecisionGraphCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "dg.csv"
        code = run_cli("decision-graph", "--dataset", "compound",
                       "--pct", "1.9", "--output", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,rho,delta"
        assert len(lines) == 1 + 399

    def test_default_output_location(self, tmp_path, capsys):
        code = run_cli("decision-graph", "--dataset", "flame", "--pct", "5",
                       "--output-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "decision_graph.csv").exists()


class TestPackage:
    def test_every_exported_name_resolves(self):
        modules = [vdpc] + [importlib.import_module("vdpc." + m.name)
                            for m in pkgutil.iter_modules(vdpc.__path__)]
        for mod in modules:
            for name in getattr(mod, "__all__", ()):
                assert hasattr(mod, name), "%s.__all__ names missing %r" % (
                    mod.__name__, name)
