"""Command-line front door: exit codes, artifacts, config round trips."""

import csv
import json
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import vpcc
from vpcc import cli
from vpcc.cli import main, parse_grid
from vpcc.config import ProblemConfig, _entry_to_json, load_config, parse_config, parse_entry, two_bus_config_path
from vpcc.errors import ConfigError, DomainError
from vpcc.scenario import ScenarioConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402


@pytest.fixture()
def two_bus_path():
    return two_bus_config_path()


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def scalar_toy_config():
    """n = 1 chain with coin-flip gains, horizon 2; mean 2 / variance 6 oracle."""
    return {
        "schema": 1,
        "seed": 0,
        "system": {
            "n": 1,
            "m": 1,
            "horizon": 2,
            "x0": [1.0],
            "B": [[1.0]],
            "A": {"all": [[{"family": "finite", "values": [0.0, 2.0], "probs": [0.5, 0.5]}]]},
        },
        "constraints": {"alpha": 0.1, "rows": [{"id": "end", "G": [1.0], "h": 10.0, "k": 2}]},
        "cost": {"quadratic": [[1.0]], "linear": [0.0]},
        "input_polytope": {"A_u": [[1.0], [-1.0]], "b_u": [10.0, 10.0]},
        "assumptions": {"independence": "attested", "unimodal": "attested"},
        "methods": {"mc": {"samples": 2000}},
    }


class TestValidate:
    def test_bundled_config_ok(self, two_bus_path, capsys):
        assert main(["validate", two_bus_path]) == 0
        assert "alpha=0.16" in capsys.readouterr().out

    def test_missing_alpha_field_path(self, tmp_path, capsys):
        data = scalar_toy_config()
        del data["constraints"]["alpha"]
        code = main(["validate", write_config(tmp_path, data)])
        assert code == 1
        assert "constraints.alpha" in capsys.readouterr().err

    def test_unattested_refused(self, tmp_path, capsys):
        data = scalar_toy_config()
        data["assumptions"]["unimodal"] = "unknown"
        assert main(["validate", write_config(tmp_path, data)]) == 1
        assert "assumptions" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/cfg.json"]) == 1

    def test_package_error_exits_1(self, two_bus_path, monkeypatch, capsys):
        def broken(self):
            raise DomainError("broken rows")

        monkeypatch.setattr(ProblemConfig, "constraint_rows", broken)
        assert main(["validate", two_bus_path]) == 1
        assert "error: broken rows" in capsys.readouterr().err


class TestSolve:
    def test_proposed_two_bus(self, two_bus_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["solve", two_bus_path, "--method", "proposed", "--out", out]) == 0
        report = vpcc.SolveReport.from_json((tmp_path / "run" / "report.json").read_text())
        assert report.status == "optimal"
        assert report.feasibility["feasible"]
        assert report.mc is not None and report.mc["upper_ci_99"] <= 0.16
        assert report.objective_per_step is not None

    def test_proposed_infeasible_exit_2(self, two_bus_path, tmp_path):
        data = load_config(two_bus_path).with_alpha(0.01).to_dict()
        path = write_config(tmp_path, data)
        assert main(["solve", path, "--method", "proposed", "--out", str(tmp_path)]) == 2

    def test_scenario_two_bus(self, two_bus_path, tmp_path):
        out = str(tmp_path / "sc")
        assert main(["solve", two_bus_path, "--method", "scenario", "--out", out]) == 0
        report = vpcc.SolveReport.from_json((tmp_path / "sc" / "report.json").read_text())
        assert report.sample_count == 112

    def test_unattested_solve_refused(self, tmp_path, capsys):
        data = scalar_toy_config()
        data["assumptions"] = {}
        assert main(["solve", write_config(tmp_path, data), "--out", str(tmp_path)]) == 1

    def test_env_seed_override(self, two_bus_path, tmp_path, monkeypatch):
        monkeypatch.setenv("VPCC_SEED", "99")
        out = str(tmp_path / "env")
        assert main(["solve", two_bus_path, "--method", "scenario", "--out", out]) == 0
        report = vpcc.SolveReport.from_json((tmp_path / "env" / "report.json").read_text())
        assert report.inputs["seed"] == 99

    @pytest.mark.parametrize("method", ["proposed", "scenario"])
    def test_inputs_echo_the_loaded_config(self, two_bus_path, tmp_path, method):
        assert main(["solve", two_bus_path, "--method", method, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["inputs"] == load_config(two_bus_path).to_dict()


class TestFileErrors:
    """A file that cannot be read or written ends the command with exit 1 and
    one error line, not a traceback."""

    @staticmethod
    def one_error_line(capsys, prefix="error: "):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), err
        return lines[0]

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == 1
        assert "Is a directory" in self.one_error_line(capsys)

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(scalar_toy_config()).encode("utf-16-le"))
        assert main(["validate", str(path)]) == 1
        line = self.one_error_line(capsys, "config error at <root>: ")
        assert f"{path}: not UTF-8" in line

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_solve_out_under_a_file(self, two_bus_path, tmp_path, capsys, below):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = os.path.join(str(blocker), below) if below else str(blocker)
        assert main(["solve", two_bus_path, "--method", "scenario", "--out", out]) == 1
        self.one_error_line(capsys)

    def test_sweep_out_a_file_fails_before_any_cell(self, two_bus_path, tmp_path, monkeypatch, capsys):
        def no_cell(payload):
            raise AssertionError("a cell was solved")

        monkeypatch.setattr(cli, "_sweep_task", no_cell)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["sweep", two_bus_path, "--grid", "0.84", "--out", str(blocker)]) == 1
        assert "File exists" in self.one_error_line(capsys)


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [-1, True, 1.5, "3", None])
    def test_config_seed_rejected(self, seed):
        data = scalar_toy_config()
        data["seed"] = seed
        with pytest.raises(ConfigError) as info:
            parse_config(data)
        assert info.value.field == "seed"

    @pytest.mark.parametrize("method", ["proposed", "scenario"])
    def test_negative_config_seed_exits_1(self, method, tmp_path, capsys):
        data = scalar_toy_config()
        data["seed"] = -3
        path = write_config(tmp_path, data)
        assert main(["solve", path, "--method", method, "--out", str(tmp_path)]) == 1
        assert "config error at seed" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["proposed", "scenario"])
    @pytest.mark.parametrize("value", ["-1", "abc", "1.5", ""])
    def test_bad_env_seed_exits_1(self, method, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("VPCC_SEED", value)
        path = write_config(tmp_path, scalar_toy_config())
        assert main(["solve", path, "--method", method, "--out", str(tmp_path)]) == 1
        assert "config error at VPCC_SEED" in capsys.readouterr().err


class TestMoments:
    def test_toy_chain_values(self, tmp_path, capsys):
        path = write_config(tmp_path, scalar_toy_config())
        assert main(["moments", path, "--row", "1", "--time", "2", "--u", "1,0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["at_U"]["mean"] == pytest.approx(2.0, abs=1e-12)
        assert out["at_U"]["variance"] == pytest.approx(6.0, abs=1e-12)

    def test_two_bus_line_rating(self, two_bus_path, capsys):
        assert main(["moments", two_bus_path, "--row", "2", "--time", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        c_w = 0.813
        assert out["row"] == "line-rating@k1"
        assert out["mean_affine"]["b"] / c_w == pytest.approx(118.9188, abs=1e-3)
        assert out["var_quadratic"]["r"] / c_w**2 == pytest.approx(204.6946, abs=0.05)

    def test_deterministic_zero_variance(self, tmp_path, capsys):
        data = scalar_toy_config()
        data["system"]["A"] = {"all": [[0.5]]}
        path = write_config(tmp_path, data)
        assert main(["moments", path, "--row", "1", "--time", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["at_U"]["variance"] == 0.0

    def test_bad_row_index(self, two_bus_path, capsys):
        assert main(["moments", two_bus_path, "--row", "7", "--time", "1"]) == 1

    @pytest.mark.parametrize("time", ["0", "3"])
    def test_time_outside_horizon(self, two_bus_path, capsys, time):
        assert main(["moments", two_bus_path, "--row", "1", "--time", time]) == 1
        assert capsys.readouterr().err == "error: --time must lie in [1, 1]\n"

    def test_time_without_rows(self, tmp_path, capsys):
        path = write_config(tmp_path, scalar_toy_config())
        assert main(["moments", path, "--row", "1", "--time", "1"]) == 1
        assert capsys.readouterr().err == "error: time step 1 has no constraint row\n"

    def test_non_numeric_input_exits_1(self, two_bus_path, capsys):
        assert main(["moments", two_bus_path, "--row", "1", "--time", "1", "--u", "abc"]) == 1
        assert "error: --u needs comma-separated numbers, got 'abc'" in capsys.readouterr().err


class TestGrid:
    def test_segments_and_points(self):
        assert parse_grid("0.84:0.9:0.02,0.99") == [0.84, 0.86, 0.88, 0.9, 0.99]
        assert parse_grid("0.5") == [0.5]

    def test_bad_segment(self):
        with pytest.raises(ConfigError):
            parse_grid("0.9:0.8:0.05")
        with pytest.raises(ConfigError):
            parse_grid("")

    @pytest.mark.parametrize("grid", ["abc", "0.9:0.8:x", "0.9:inf:0.01"], ids=["word", "step-word", "stop-inf"])
    def test_token_not_a_finite_number(self, two_bus_path, tmp_path, capsys, grid):
        assert main(["sweep", two_bus_path, "--grid", grid, "--out", str(tmp_path)]) == 1
        TestFileErrors.one_error_line(capsys, "config error at --grid: ")


class TestSweep:
    def test_single_point_matches_solve(self, two_bus_path, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        assert main(["sweep", two_bus_path, "--grid", "0.84", "--methods", "proposed", "--out", out]) == 0
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "one_minus_alpha,method,feasible,objective,wall_time_ms,mc_upper_ci"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[1] == "proposed" and cells[2] == "true"

        solo = str(tmp_path / "solo")
        assert main(["solve", two_bus_path, "--method", "proposed", "--out", solo]) == 0
        report = vpcc.SolveReport.from_json((tmp_path / "solo" / "report.json").read_text())
        assert float(cells[3]) == pytest.approx(report.objective, rel=1e-12)

    def test_log_gives_the_mc_verdict_of_proposed_rows(self, two_bus_path, tmp_path):
        out = str(tmp_path / "sweep")
        assert main(["sweep", two_bus_path, "--grid", "0.84,0.99", "--methods", "both", "--out", out]) == 0
        rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
        lines = (tmp_path / "sweep" / "sweep.log").read_text().splitlines()
        report = json.loads((tmp_path / "sweep" / "report_0.84_proposed.json").read_text())
        assert lines[0].endswith(
            f" mc_upper_ci={rows[0].split(',')[5]} mc_samples_used={report['mc']['samples_used']}"
        )
        assert lines[1].startswith("1-alpha=0.84 method=scenario") and "mc_" not in lines[1]
        assert lines[2].startswith("1-alpha=0.99 method=proposed feasible=false")
        assert lines[2].endswith(" mc_upper_ci= mc_samples_used=")

    def test_grid_point_below_validity_recorded_as_error(self, two_bus_path, tmp_path):
        out = str(tmp_path / "bad")
        assert main(["sweep", two_bus_path, "--grid", "0.5", "--methods", "proposed", "--out", out]) == 0
        line = (tmp_path / "bad" / "sweep.csv").read_text().splitlines()[1]
        assert line.split(",")[2] == "error"
        assert "sqrt(5/3)" in (tmp_path / "bad" / "sweep.log").read_text()

    def test_proposed_failing_own_check_is_error_as_in_solve(self, two_bus_path, tmp_path, monkeypatch, capsys):
        """An "optimal" proposed report that fails its own feasibility check
        makes ``solve`` exit 1 and is an error cell in the sweep."""

        def unchecked(spec, jcc, cost, config=None):
            return vpcc.SolveReport(
                method="proposed",
                status="optimal",
                alpha=jcc.alpha,
                objective=1.0,
                U=[[0.0, 0.0]],
                feasibility={"feasible": False},
            )

        monkeypatch.setattr(vpcc.acs, "run", unchecked)
        assert main(["solve", two_bus_path, "--method", "proposed", "--out", str(tmp_path / "solo")]) == 1
        assert "feasibility check" in capsys.readouterr().err
        out = str(tmp_path / "sweep")
        assert main(["sweep", two_bus_path, "--grid", "0.84", "--methods", "proposed", "--out", out]) == 0
        cells = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1].split(",")
        assert cells[1:3] == ["proposed", "error"]
        assert " ERROR " in (tmp_path / "sweep" / "sweep.log").read_text()

    def test_rows_and_log_lines_read_from_each_report(self, two_bus_path, tmp_path):
        """At 0.8 the proposed cell stops before it has a report (alpha 0.2
        is past the 1/6 bound); every other row and log line restates its
        cell's report."""
        out = tmp_path / "sweep"
        assert main(["sweep", two_bus_path, "--grid", "0.8,0.84,0.99", "--methods", "both", "--out", str(out)]) == 0
        with open(out / "sweep.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        lines = (out / "sweep.log").read_text(encoding="utf-8").splitlines()
        assert [row["feasible"] for row in rows] == ["error", "true", "true", "true", "false", "true"]
        for row, line in zip(rows, lines, strict=True):
            point, method = float(row["one_minus_alpha"]), row["method"]
            path = out / f"report_{point:g}_{method}.json"
            assert line.startswith(f"1-alpha={point} method={method} feasible={row['feasible']} ")
            if (point, method) == (0.8, "proposed"):
                assert not path.exists()
                assert row["objective"] == row["wall_time_ms"] == row["mc_upper_ci"] == ""
                assert " ERROR " in line and "1/6" in line
                continue
            report = vpcc.SolveReport.from_json(path.read_text(encoding="utf-8"))
            assert row["feasible"] == cli.verdict(report)[1]
            assert row["wall_time_ms"] == f"{report.wall_time_ms:.17g}"
            if row["feasible"] == "true":
                assert row["objective"] == f"{report.objective:.17g}"
                assert row["mc_upper_ci"] == ("" if report.mc is None else f"{report.mc['upper_ci_99']:.17g}")
            else:
                assert row["objective"] == row["mc_upper_ci"] == ""
            if method == "proposed":
                assert line.endswith(f" mc_samples_used={(report.mc or {}).get('samples_used', '')}")
            else:
                assert report.mc is None and "mc_" not in line

    def test_worker_pool_matches_serial(self, two_bus_path, tmp_path):
        serial = str(tmp_path / "serial")
        pooled = str(tmp_path / "pooled")
        args = ["sweep", two_bus_path, "--grid", "0.84,0.9", "--methods", "both"]
        assert main(args + ["--out", serial]) == 0
        assert main(args + ["--out", pooled, "--workers", "2"]) == 0
        text_a = (tmp_path / "serial" / "sweep.csv").read_text().splitlines()
        text_b = (tmp_path / "pooled" / "sweep.csv").read_text().splitlines()
        # identical apart from wall times (column 5)
        for a, b in zip(text_a, text_b):
            pa, pb = a.split(","), b.split(",")
            del pa[4], pb[4]
            assert pa == pb


def benchmark_configs(tmp_path):
    """Every config the benchmark writes for seed 1 of its workloads (``perfbench/workloads.py``, read only)."""
    paths = set()
    for workload in workloads.WORKLOADS:
        work = tmp_path / workload
        work.mkdir()
        paths.update(cell.config for cell in workloads.build_cells(workload, 1, os.path.dirname(PERFBENCH), str(work)))
    return [load_config(path) for path in sorted(paths)]


class TestConfigRoundTrip:
    @pytest.mark.parametrize("source", ["two_bus", "benchmark_seed1"])
    def test_semantic_identity(self, two_bus_path, tmp_path, source):
        configs = [load_config(two_bus_path)] if source == "two_bus" else benchmark_configs(tmp_path)
        for cfg in configs:
            clone = parse_config(cfg.to_dict())
            assert clone.to_dict() == cfg.to_dict()
            assert np.array_equal(clone.x0, cfg.x0)
            assert clone.row_specs[0][0] == cfg.row_specs[0][0]
            assert clone.a_grids == cfg.a_grids

    def test_declared_defaults(self):
        """An absent key takes its one declared default: the table's, or the
        options class's for a method block, which is echoed as given."""
        data = scalar_toy_config()
        del data["seed"], data["constraints"]["rows"][0]["k"], data["constraints"]["rows"][0]["id"], data["methods"]
        cfg = parse_config(data)
        assert (cfg.seed, cfg.row_specs[0][0], cfg.row_specs[0][3]) == (0, "row0", "all")
        assert cfg.to_dict()["methods"] == {"acs": {}, "scenario": {}, "mc": {}}
        assert cfg.acs_config() == vpcc.AcsConfig()
        assert cfg.scenario_config() == ScenarioConfig()
        assert cfg.mc_samples == 100000

    def test_toy_round_trip(self, tmp_path):
        cfg = parse_config(scalar_toy_config())
        assert parse_config(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_per_step_grids(self, tmp_path):
        data = scalar_toy_config()
        data["system"]["A"] = {
            "per_step": [
                [[{"family": "finite", "values": [0.0, 2.0], "probs": [0.5, 0.5]}]],
                [[0.75]],
            ]
        }
        cfg = parse_config(data)
        spec = cfg.system_spec()
        assert [(i, j, dist.family) for i, j, dist in spec.a_models[0].sites] == [(0, 0, "finite")]
        assert not spec.a_models[1].variance_matrix.any()
        assert parse_config(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_schema_version_rejected(self, tmp_path):
        data = scalar_toy_config()
        data["schema"] = 2
        with pytest.raises(ConfigError, match="schema"):
            parse_config(data)

    def test_alpha_out_of_range(self):
        data = scalar_toy_config()
        data["constraints"]["alpha"] = 1.5
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(data)

    def test_jcc_rejects_alpha_above_bound_domain(self):
        data = scalar_toy_config()
        data["constraints"]["alpha"] = 0.2  # fine for scenario, not for proposed
        cfg = parse_config(data)
        assert cfg.row_set().alpha == 0.2
        with pytest.raises(ConfigError, match="1/6"):
            cfg.jcc()

    @pytest.mark.parametrize("alpha", [0.16, 0.01, 0.5])
    def test_varied_config_matches_reparse(self, two_bus_path, alpha):
        cfg = load_config(two_bus_path)
        data = cfg.to_dict()
        data["constraints"]["alpha"] = alpha
        assert cfg.with_alpha(alpha).to_dict() == parse_config(data).to_dict()
        assert cfg.with_seed(5).to_dict() == parse_config({**cfg.to_dict(), "seed": 5}).to_dict()

    def test_varied_config_rejects_bad_values(self, two_bus_path):
        cfg = load_config(two_bus_path)
        with pytest.raises(ConfigError) as info:
            cfg.with_alpha(0.0)
        assert info.value.field == "constraints.alpha"
        with pytest.raises(ConfigError) as info:
            cfg.with_seed(-1)
        assert info.value.field == "seed"

    def test_pickle_round_trip(self, two_bus_path):
        cfg = load_config(two_bus_path).with_alpha(0.05)
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone.to_dict() == cfg.to_dict()
        assert clone.a_grids == cfg.a_grids

    @pytest.mark.parametrize("power", [1, 2, 3])
    @pytest.mark.parametrize(
        "cell",
        [
            {"family": "weibull", "scale": 5.0, "shape": 30.0},
            {"family": "beta", "a": 50.0, "b": 2.5},
            {"family": "finite", "values": [0.0, 2.0, 3.5], "probs": [0.25, 0.5, 0.25]},
            {"family": "constant", "value": 0.7},
        ],
    )
    def test_entry_round_trip(self, cell, power):
        entry = parse_entry({**cell, "power": power}, "cell")
        assert entry.power == power
        data = _entry_to_json(entry)
        assert data == ({**cell, "power": power} if power != 1 else cell)
        assert parse_entry(data, "cell") == entry


CELL = "system.A.all[0][0]"
# name: (where the value goes, the value, field named by the error, method);
# "config" values update the whole config, "system", "constraints", "cost",
# "input_polytope" and "assumptions" values that block, "row" values the
# first row.
MALFORMED = {
    "weibull-scale-string": ("cell", {"family": "weibull", "scale": "abc", "shape": 30.0}, CELL, "proposed"),
    "weibull-scale-list": ("cell", {"family": "weibull", "scale": [1], "shape": 30.0}, CELL, "proposed"),
    "beta-a-bool": ("cell", {"family": "beta", "a": True, "b": 2.0}, CELL, "proposed"),
    "finite-values-number": ("cell", {"family": "finite", "values": 1.0, "probs": [1.0]}, CELL, "proposed"),
    "power-bool": ("cell", {"family": "constant", "value": 0.5, "power": True}, CELL, "proposed"),
    "power-fraction": ("cell", {"family": "constant", "value": 0.5, "power": 2.0}, CELL, "proposed"),
    "system-m-bool": ("system", {"m": True}, "system.m", "proposed"),
    "row-k-bool": ("row", {"k": True}, "constraints.rows[0].k", "proposed"),
    "acs-not-object": ("acs", 5, "methods.acs", "proposed"),
    "user-lambda-string": ("acs", {"lambda_init_policy": "user-supplied", "user_lambdas": {"end@k2": "x"}}, "methods.acs.user_lambdas", "proposed"),
    "user-lambda-missing-row": ("lambdas", {"end@k2": 3.0}, "methods.acs.user_lambdas", "proposed"),
    "user-lambda-unknown-row": ("lambdas", {"end@k1": 3.0, "end@k2": 3.0, "nope": 5.0}, "methods.acs.user_lambdas", "proposed"),
    "user-lambda-below-floor": ("lambdas", {"end@k1": 3.0, "end@k2": 1.0}, "methods.acs.user_lambdas", "proposed"),
    "user-lambda-infinite-random": ("lambdas", {"end@k1": math.inf, "end@k2": 3.0}, "methods.acs.user_lambdas", "proposed"),
    "acs-iters-fraction": ("acs", {"max_outer_iters": 2.5}, "methods.acs.max_outer_iters", "proposed"),
    "solver-iters-fraction": ("acs", {"solver": {"max_iter": 2.5}}, "methods.acs.solver.max_iter", "proposed"),
    "mc-samples-string": ("mc", {"samples": "many"}, "methods.mc.samples", "proposed"),
    "mc-samples-zero": ("mc", {"samples": 0}, "methods.mc.samples", "proposed"),
    "mc-samples-fraction": ("mc", {"samples": 2.5}, "methods.mc.samples", "proposed"),
    "mc-samples-bool": ("mc", {"samples": True}, "methods.mc.samples", "proposed"),
    "sample-count-fraction": ("scenario", {"sample_count": 2.5}, "methods.scenario.sample_count", "scenario"),
    "sample-count-bool": ("scenario", {"sample_count": True}, "methods.scenario.sample_count", "scenario"),
    "x0-bool": ("system", {"x0": [True]}, "system.x0", "proposed"),
    "x0-null": ("system", {"x0": [None]}, "system.x0", "proposed"),
    "B-bool": ("system", {"B": [[False]]}, "system.B", "proposed"),
    "A_u-bool": ("input_polytope", {"A_u": [[True], [-1.0]]}, "input_polytope.A_u", "proposed"),
    "b_u-bool": ("input_polytope", {"b_u": [True, 10.0]}, "input_polytope.b_u", "proposed"),
    "b_u-string": ("input_polytope", {"b_u": ["10", 10.0]}, "input_polytope.b_u", "scenario"),
    "G-bool": ("row", {"G": [True]}, "constraints.rows[0].G", "proposed"),
    "cost-quadratic-bool": ("cost", {"quadratic": [[True]]}, "cost.quadratic", "proposed"),
    "cost-linear-bool": ("cost", {"linear": [False]}, "cost.linear", "scenario"),
    "finite-values-bool": ("cell", {"family": "finite", "values": [False, 2.0], "probs": [0.5, 0.5]}, CELL, "proposed"),
    "finite-probs-bool": ("cell", {"family": "finite", "values": [0.0, 2.0], "probs": [True, False]}, CELL, "scenario"),
    "x0-nan": ("system", {"x0": [math.nan]}, "system.x0", "proposed"),
    "B-inf": ("system", {"B": [[math.inf]]}, "system.B", "scenario"),
    "cell-nan": ("cell", math.nan, CELL, "proposed"),
    "cell--inf": ("cell", -math.inf, CELL, "scenario"),
    "weibull-scale-inf": ("cell", {"family": "weibull", "scale": math.inf, "shape": 30.0}, CELL + ".scale", "proposed"),
    "finite-values-nan": ("cell", {"family": "finite", "values": [math.nan, 2.0], "probs": [0.5, 0.5]}, CELL, "scenario"),
    "G-nan": ("row", {"G": [math.nan]}, "constraints.rows[0].G", "proposed"),
    "h-inf": ("row", {"h": math.inf}, "constraints.rows[0].h", "scenario"),
    "h-nan": ("row", {"h": math.nan}, "constraints.rows[0].h", "proposed"),
    "cost-quadratic-inf": ("cost", {"quadratic": [[math.inf]]}, "cost.quadratic", "proposed"),
    "cost-linear-nan": ("cost", {"linear": [math.nan]}, "cost.linear", "scenario"),
    "A_u-nan": ("input_polytope", {"A_u": [[math.nan], [-1.0]]}, "input_polytope.A_u", "proposed"),
    "b_u-inf": ("input_polytope", {"b_u": [math.inf, 10.0]}, "input_polytope.b_u", "scenario"),
    "solver-tol-nan": ("acs", {"solver": {"tol": math.nan}}, "methods.acs.solver.tol", "proposed"),
    "convergence-tol-inf": ("acs", {"convergence_rel_tol": math.inf}, "methods.acs.convergence_rel_tol", "proposed"),
    "feasibility-tol-inf": ("acs", {"feasibility_tol": math.inf}, "methods.acs.feasibility_tol", "proposed"),
    "h-huge-int": ("row", {"h": 10**400}, "constraints.rows[0].h", "proposed"),
    "x0-huge-int": ("system", {"x0": [10**400]}, "system.x0", "scenario"),
    "alpha-huge-int": ("constraints", {"alpha": 10**400}, "constraints.alpha", "proposed"),
    "beta-huge-int": ("scenario", {"beta": 10**400}, "methods.scenario.beta", "scenario"),
    "scenario-unknown-key": ("scenario", {"betta": 0.5}, "methods.scenario.betta", "scenario"),
    "mc-unknown-key": ("mc", {"sample": 5}, "methods.mc.sample", "proposed"),
    "acs-unknown-key": ("acs", {"max_outer_iter": 5}, "methods.acs.max_outer_iter", "proposed"),
    "solver-unknown-key": ("acs", {"solver": {"maxiter": 5}}, "methods.acs.solver.maxiter", "proposed"),
    "restoration-string": ("acs", {"restoration": "no"}, "methods.acs.restoration", "proposed"),
    "restoration-zero": ("acs", {"restoration": 0}, "methods.acs.restoration", "proposed"),
    "restoration-null": ("acs", {"restoration": None}, "methods.acs.restoration", "proposed"),
    "cell-unknown-key": ("cell", {"family": "weibull", "scale": 5.0, "shape": 30.0, "pwer": 3}, CELL + ".pwer", "proposed"),
    "method-unknown-block": ("scenaro", {"beta": 0.5}, "methods.scenaro", "scenario"),
    "top-unknown-key": ("config", {"sead": 3}, "sead", "proposed"),
    "system-unknown-key": ("system", {"horizn": 2}, "system.horizn", "proposed"),
    "row-unknown-key": ("row", {"kk": 2}, "constraints.rows[0].kk", "scenario"),
    "polytope-unknown-key": ("input_polytope", {"A": [[1.0], [-1.0]]}, "input_polytope.A", "proposed"),
    "assumptions-unknown-key": ("assumptions", {"unimodl": "attested"}, "assumptions.unimodl", "proposed"),
    "step-policy-unknown": ("acs", {"lambda_step_policy": "bogus"}, "methods.acs.lambda_step_policy", "proposed"),
    "init-policy-unknown": ("acs", {"lambda_init_policy": "bogus"}, "methods.acs.lambda_init_policy", "proposed"),
    "beta-above-one": ("scenario", {"beta": 1.5}, "methods.scenario.beta", "scenario"),
    "user-supplied-without-lambdas": ("acs", {"lambda_init_policy": "user-supplied"}, "methods.acs.user_lambdas", "proposed"),
    "convergence-tol-negative": ("acs", {"convergence_rel_tol": -1}, "methods.acs.convergence_rel_tol", "proposed"),
    "solver-tol-negative": ("acs", {"solver": {"tol": -1}}, "methods.acs.solver.tol", "proposed"),
    "user-lambdas-without-user-supplied": ("acs", {"user_lambdas": {"end@k2": 3.0}}, "methods.acs.user_lambdas", "proposed"),
    # Both forms of a per-step block: the grid under "all" and a per-step
    # list, or a flat cost and a per-step cost that differs from it.
    "A-all-and-per-step": ("system", {"A": {"all": [[0.5]], "per_step": [[[0.5]], [[0.5]]]}}, "system.A", "proposed"),
    "cost-flat-and-per-step": ("cost", {"per_step": [{"quadratic": [[1.0]], "linear": [1.0]}] * 2}, "cost", "scenario"),
}


class TestMalformedOptions:
    """Values from a config file that crashed or were silently coerced are
    config errors at their field path, for ``validate`` and ``solve`` alike."""

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_config_error_at_field(self, case, tmp_path, capsys):
        where, value, field, method = MALFORMED[case]
        data = scalar_toy_config()
        if where == "cell":
            data["system"]["A"]["all"][0][0] = value
        elif where == "config":
            data.update(value)
        elif where in ("system", "constraints", "cost", "input_polytope", "assumptions"):
            data[where].update(value)
        elif where == "row":
            data["constraints"]["rows"][0].update(value)
        elif where == "lambdas":
            # The row expands to end@k1 and end@k2.
            data["constraints"]["rows"][0]["k"] = "all"
            data["methods"]["acs"] = {"lambda_init_policy": "user-supplied", "user_lambdas": value}
        else:
            data["methods"][where] = value
        path = write_config(tmp_path, data)
        assert main(["validate", path]) == 1
        assert f"config error at {field}:" in capsys.readouterr().err
        assert main(["solve", path, "--method", method, "--out", str(tmp_path)]) == 1
        assert f"config error at {field}:" in capsys.readouterr().err

    def test_user_lambdas_over_expanded_rows_accepted(self, tmp_path):
        data = scalar_toy_config()
        data["constraints"]["rows"][0]["k"] = "all"
        data["methods"]["acs"] = {"lambda_init_policy": "user-supplied", "user_lambdas": {"end@k1": 3.0, "end@k2": 2}}
        assert main(["validate", write_config(tmp_path, data)]) == 0

    def test_infinite_multiplier_only_on_a_deterministic_row(self, tmp_path, capsys):
        """A(0) is fixed and A(1) random, so end@k1 is deterministic and end@k2 random."""
        data = scalar_toy_config()
        data["system"]["A"] = {"per_step": [[[0.5]], data["system"]["A"]["all"]]}
        data["constraints"]["rows"][0]["k"] = "all"
        data["methods"]["acs"] = {"lambda_init_policy": "user-supplied", "user_lambdas": {"end@k1": math.inf, "end@k2": 3.0}}
        path = write_config(tmp_path, data)
        assert main(["validate", path]) == 0
        assert main(["solve", path, "--method", "proposed", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["inputs"]["methods"]["acs"]["user_lambdas"] == {"end@k1": "inf", "end@k2": 3.0}
        data["methods"]["acs"]["user_lambdas"] = {"end@k1": 3.0, "end@k2": math.inf}
        path = write_config(tmp_path, data, "random.json")
        capsys.readouterr()
        for argv in (["validate", path], ["solve", path, "--method", "proposed", "--out", str(tmp_path)]):
            assert main(argv) == 1
            assert "config error at methods.acs.user_lambdas: end@k2 = inf on a random row" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cell",
        [
            {"family": "weibull", "scale": 1e200, "shape": 30.0, "power": 3},
            {"family": "finite", "values": [-1e200, 1e200], "probs": [0.5, 0.5]},
            {"family": "weibull", "scale": 5.0, "shape": 1e-3, "power": 3},
        ],
        ids=["weibull-scale-overflow", "finite-values-overflow", "weibull-gamma-overflow"],
    )
    def test_entry_without_finite_moments(self, two_bus_path, tmp_path, capsys, cell):
        """A cell whose mean or variance is beyond float range is refused by
        ``validate`` as by ``solve``, at the cell's path."""
        data = load_config(two_bus_path).to_dict()
        data["system"]["A"]["all"][3][2] = cell
        path = write_config(tmp_path, data)
        for argv in (["validate", path], ["solve", path, "--out", str(tmp_path)]):
            assert main(argv) == 1
            line = TestFileErrors.one_error_line(capsys, "config error at system.A.all[3][2]: ")
            assert "needs a finite mean and variance" in line

    def test_null_sample_count_accepted(self, tmp_path):
        data = scalar_toy_config()
        data["methods"]["scenario"] = {"sample_count": None}
        assert main(["validate", write_config(tmp_path, data)]) == 0


class TestImportFootprint:
    """``import vpcc, vpcc.cli`` in a fresh interpreter loads no scipy
    subpackage beyond ``linalg`` and ``special``; module names only."""

    UNLOADED = (
        "scipy.stats",
        "scipy.optimize",
        "scipy.sparse",
        "scipy.spatial",
        "scipy.ndimage",
        "scipy.interpolate",
        "scipy.integrate",
    )

    def test_no_heavy_scipy_subpackage(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(vpcc.__file__)))
        probe = (
            "import json, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import vpcc, vpcc.cli\n"
            "print(json.dumps([vpcc.__file__, sorted(sys.modules)]))\n"
        )
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120)
        path, modules = json.loads(out.stdout.splitlines()[-1])
        assert path == vpcc.__file__
        assert {"scipy.linalg", "scipy.special"} <= set(modules)
        assert [name for name in self.UNLOADED if name in modules] == []
