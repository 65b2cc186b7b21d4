"""Command-line interface: instance generation, runs, reports, exit codes."""
import json

import numpy as np
import pytest

from adaptpart import cli
from adaptpart.errors import ValidationError
from adaptpart.instances import (cvar_document, document_to_model, lands_document,
                                 load_document, validate_document, write_document)

from _generators import random_recourse_model


def run_cli(argv):
    return cli.main([str(a) for a in argv])


def make_lands(tmp_path, *extra):
    path = tmp_path / "lands.json"
    assert run_cli(["make-lands", "--output", path, *extra]) == 0
    return path


def make_cvar(tmp_path, *extra):
    path = tmp_path / "cvar.json"
    assert run_cli(["make-cvar", "--output", path, *extra]) == 0
    return path


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


class TestInstanceGeneration:
    def test_generated_files_validate_and_round_trip(self, tmp_path):
        for path in (make_lands(tmp_path), make_cvar(tmp_path)):
            doc = load_document(path)
            validate_document(doc)
            model = document_to_model(doc)
            assert model.n_first >= 2

    def test_schema_violation_is_reported(self, tmp_path, capsys):
        path = make_lands(tmp_path)
        doc = json.loads(path.read_text())
        del doc["recourse"]
        path.write_text(json.dumps(doc))
        assert run_cli(["run", "--instance", path]) == 1
        err = capsys.readouterr().err
        assert "recourse" in err

    def test_nan_first_stage_bound_is_an_error(self, tmp_path, capsys):
        doc = lands_document()
        doc["first_stage"]["ub"] = [float("nan"), None, None, None]
        with pytest.raises(ValidationError, match="NaN"):
            document_to_model(doc)
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["run", "--instance", path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "NaN" in captured.err
        assert "termination:" not in captured.out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert run_cli(["run", "--instance", tmp_path / "nope.json"]) == 1
        assert capsys.readouterr().err.strip()


class TestEnergyRuns:
    def test_default_tolerance_converges(self, tmp_path, capsys):
        path = make_lands(tmp_path)
        assert run_cli(["run", "--instance", path]) == 0
        out = capsys.readouterr().out
        assert "gap" in out
        assert "x* =" in out

    def test_iteration_cap_exits_not_converged(self, tmp_path, capsys):
        path = make_lands(tmp_path)
        code = run_cli(["run", "--instance", path, "--max-iters", 2])
        assert code == 2
        assert "iteration-limit" in capsys.readouterr().out

    def test_fixed_demand_solves_in_one_iteration(self, tmp_path, capsys):
        path = make_lands(tmp_path, "--d1-fixed", 5)
        assert run_cli(["run", "--instance", path]) == 0
        _, rows = read_csv_rows_from_report(tmp_path, path)
        assert len(rows) == 1
        assert float(rows[0]["gap_pct"]) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("interval", [(2, 8), (3, 8), (1, 9), (2.5, 7.5)])
    def test_demand_beyond_capacity_is_infeasible_recourse(self, tmp_path, capsys,
                                                           interval):
        # past a demand of 7 no recourse covers the shortfall; the sweep
        # must report that, not a residual failure of the LP kernel
        path = make_lands(tmp_path, "--d1-interval", *interval)
        assert run_cli(["run", "--instance", path]) == 1
        err = capsys.readouterr().err
        assert "subproblem infeasible at rhs component value 7" in err

    def test_oracle_rejected_for_continuous_uncertainty(self, tmp_path, capsys):
        path = make_lands(tmp_path)
        assert run_cli(["run", "--instance", path, "--oracle"]) == 1
        captured = capsys.readouterr()
        assert "oracle" in captured.err.lower()
        assert "termination:" not in captured.out  # refused before solving


def read_csv_rows_from_report(tmp_path, instance):
    out_dir = tmp_path / ("report-" + instance.stem)
    code = run_cli(["run", "--instance", instance, "--out-dir", out_dir])
    assert code in (0, 2)
    return read_csv_rows(out_dir / "iterations.csv")


class TestDiscreteOracle:
    def test_extensive_form_agreement_printed(self, tmp_path, capsys):
        doc = {
            "metadata": {"label": "five-point"},
            "first_stage": {
                "c": [1.0, 1.0],
                "A": [[1.0, 1.0]], "b": [1.0], "senses": ["<="],
            },
            "recourse": {
                "W": [[1.0, -1.0]], "q": [2.0, 0.5], "senses": [">="],
            },
            "uncertainty": {
                "kind": "discrete",
                "parameters": {
                    "T_base": [[1.0, 0.5]],
                    "scenarios": [
                        {"weight": 0.2, "h": [float(v)]}
                        for v in (0.1, 0.4, 0.8, 1.3, 1.9)
                    ],
                },
            },
        }
        path = tmp_path / "five.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["run", "--instance", path, "--oracle",
                        "--epsilon", 1e-9, "--upper-bound", "auto"])
        out = capsys.readouterr().out
        assert code == 0
        first_row = out.splitlines()[1].split()
        assert first_row[0] == "1" and first_row[2] != "-"  # the ub column
        assert "agree" in out
        assert "DISAGREE" not in out

    def test_zero_weight_scenario_is_left_out_of_the_extensive_form(self, tmp_path, capsys):
        doc = lands_document(d1_fixed=5.0)
        scenarios = doc["uncertainty"]["parameters"]["scenarios"]
        scenarios.append({"weight": 0.0, "h": [0.0, 0.0, 0.0, 0.0, 6.0, 3.0, 2.0]})
        validate_document(doc)
        path = tmp_path / "zero.json"
        write_document(doc, path)
        code = run_cli(["run", "--instance", path, "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "agree" in out
        assert "DISAGREE" not in out


class TestDiscreteRuns:
    def test_zero_weight_scenarios_do_not_crash(self, tmp_path, capsys):
        # the schema allows weight 0; dual clustering puts both zero-weight
        # scenarios into a group of their own, which the split drops
        rng = np.random.default_rng(40)
        model, T = random_recourse_model(rng)
        hs = rng.uniform(-1.5, 1.5, (6, model.m))
        weights = (0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
        doc = {
            "metadata": {"name": "zero-weights"},
            "first_stage": {"c": model.c.tolist(), "A": model.A.tolist(), "b": model.b.tolist(),
                            "senses": list(model.senses), "ub": model.x_upper.tolist()},
            "recourse": {"W": model.W.tolist(), "q": model.q.tolist(),
                         "senses": [str(s) for s in model.recourse_senses]},
            "uncertainty": {"kind": "discrete", "parameters": {
                "T_base": T.tolist(),
                "scenarios": [{"weight": w, "h": h.tolist()} for w, h in zip(weights, hs)]}},
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["run", "--instance", path, "--epsilon", 1e-12]) == 0
        assert "termination: gap" in capsys.readouterr().out


class TestPortfolioRuns:
    def test_degenerate_covariance_picks_best_asset(self, tmp_path, capsys):
        path = make_cvar(tmp_path, "--sigma", "0,0;0,0", "--mc-pool", 500)
        out_dir = tmp_path / "report"
        assert run_cli(["run", "--instance", path, "--out-dir", out_dir]) == 0
        _, rows = read_csv_rows(out_dir / "iterations.csv")
        assert len(rows) == 1
        assert float(rows[0]["gap_pct"]) == pytest.approx(0.0, abs=1e-6)
        # certain returns: everything goes into the higher-mean asset
        assert float(rows[0]["x1"]) == pytest.approx(1.0, abs=1e-9)

    def test_seed_override_changes_pool(self, tmp_path):
        path = make_cvar(tmp_path, "--mc-pool", 2000)
        csvs = []
        for seed in (1, 2):
            out_dir = tmp_path / f"r{seed}"
            code = run_cli(["run", "--instance", path, "--seed", seed,
                            "--mc-pool", 2000, "--max-iters", 4])
            assert code in (0, 2)
            code = run_cli(["run", "--instance", path, "--seed", seed,
                            "--mc-pool", 2000, "--max-iters", 4,
                            "--out-dir", out_dir])
            assert code in (0, 2)
            csvs.append((out_dir / "iterations.csv").read_bytes())
        assert csvs[0] != csvs[1]

    def test_negative_seed_is_an_error(self, tmp_path, capsys):
        path = make_cvar(tmp_path, "--mc-pool", 200)
        assert run_cli(["run", "--instance", path, "--seed", -1]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "seed" in captured.err
        assert "termination:" not in captured.out
        doc = load_document(path)
        doc["uncertainty"]["parameters"]["seed"] = -5
        path.write_text(json.dumps(doc))
        assert run_cli(["run", "--instance", path]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_infinite_gap_threshold_is_an_error(self, tmp_path, capsys):
        path = make_cvar(tmp_path, "--mc-pool", 200)
        assert run_cli(["run", "--instance", path, "--epsilon", "inf"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: gap threshold")
        assert "termination:" not in captured.out

    def test_sampled_conditions_do_not_certify(self, tmp_path, capsys):
        # without the tail-risk marker there is no upper bound, and the final
        # partition has cells of hundreds of members, of which the condition
        # check sees at most CONDITION_SAMPLE_CAP
        doc = cvar_document(seed=0, pool_size=2000)
        del doc["uncertainty"]["parameters"]["cvar"]
        path = tmp_path / "normal.json"
        write_document(doc, path)
        assert run_cli(["run", "--instance", path]) == 2
        assert "partition-stabilized" in capsys.readouterr().out


class TestReports:
    def test_report_files_and_golden_header(self, tmp_path):
        path = make_lands(tmp_path)
        out_dir = tmp_path / "report"
        assert run_cli(["run", "--instance", path, "--out-dir", out_dir]) == 0
        header, rows = read_csv_rows(out_dir / "iterations.csv")
        assert header == ["iter", "lb", "ub", "gap_pct", "cells",
                          "x0", "x1", "x2", "x3"]
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["termination"] == "gap"
        assert summary["iterations"] == len(rows)

        parts = json.loads((out_dir / "partitions.json").read_text())
        first = parts[0]
        assert first["iteration"] == 1
        assert len(first["cells"]) == 1
        geom = first["cells"][0]["geometry"]
        assert geom["lo"] == pytest.approx(3.0)
        assert geom["hi"] == pytest.approx(7.0)

    def test_gap_column_recomputable_from_bounds(self, tmp_path):
        path = make_lands(tmp_path)
        out_dir = tmp_path / "report"
        assert run_cli(["run", "--instance", path, "--out-dir", out_dir,
                        "--epsilon", 1e-6]) == 0
        _, rows = read_csv_rows(out_dir / "iterations.csv")
        best = np.inf
        for row in rows:
            best = min(best, float(row["ub"]))
            expected = 100.0 * (best - float(row["lb"])) / abs(best)
            assert float(row["gap_pct"]) == pytest.approx(expected, abs=5e-4)

    def test_very_verbose_prints_the_partition_trace(self, tmp_path, capsys):
        path = make_cvar(tmp_path, "--mc-pool", 2000)
        out_dir = tmp_path / "report"
        code = run_cli(["run", "--instance", path, "--out-dir", out_dir, "-vv"])
        assert code == 0
        text = (out_dir / "partitions.json").read_text()
        assert text.count('"iteration"') > 1
        assert capsys.readouterr().out.endswith(text)

    def test_runs_are_deterministic(self, tmp_path):
        for maker, extra in ((make_lands, ()),
                             (make_cvar, ("--mc-pool", 5000))):
            path = maker(tmp_path, *extra)
            blobs = []
            for tag in ("a", "b"):
                out_dir = tmp_path / (path.stem + tag)
                code = run_cli(["run", "--instance", path, "--out-dir", out_dir,
                                "--max-iters", 5])
                assert code in (0, 2)
                blobs.append((out_dir / "iterations.csv").read_bytes())
            assert blobs[0] == blobs[1]
