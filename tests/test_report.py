"""Serialised forms of solve reports, feasibility reports and trace entries."""

import math

from vpcc.acs import run
from vpcc.report import SolveReport

# The keys of report.json, in the order every report writes them.
REPORT_KEYS = [
    "method",
    "status",
    "alpha",
    "objective",
    "objective_per_step",
    "U",
    "lambdas",
    "risks",
    "risk_sum",
    "feasibility",
    "mc",
    "trace",
    "sample_count",
    "wall_time_ms",
    "seed",
    "notes",
    "inputs",
]
TRACE_KEYS = [
    "iteration",
    "phase",
    "objective",
    "risk_sum",
    "lambdas",
    "inner_status",
    "inner_iterations",
    "wall_time_ms",
]


def full_report(**changes) -> SolveReport:
    """A report with every field set to something other than its default."""
    fields = dict(
        method="proposed",
        status="optimal",
        alpha=0.16,
        objective=12.5,
        objective_per_step=[12.5],
        U=[[60.0, 70.0]],
        lambdas={"balance@k1": 2.5, "line@k1": math.inf},
        risks={"balance@k1": 0.1, "line@k1": 0.0},
        risk_sum=0.1,
        feasibility={"feasible": True},
        mc={"upper_ci_99": 0.01},
        trace=[{"iteration": 1, "phase": "acs"}],
        sample_count=112,
        wall_time_ms=3.25,
        seed=7,
        notes=["a note"],
        inputs={"seed": 0},
    )
    fields.update(changes)
    return SolveReport(**fields)


class TestSolveReport:
    def test_round_trip_every_field(self):
        for report in (full_report(), full_report(objective=math.inf, status="infeasible")):
            assert SolveReport.from_json(report.to_json()) == report

    def test_infinities_written_as_strings(self):
        data = full_report(objective=-math.inf).to_dict()
        assert data["objective"] == "-inf"
        assert data["lambdas"]["line@k1"] == "inf"

    def test_key_order(self):
        assert list(full_report().to_dict()) == REPORT_KEYS
        assert list(SolveReport(method="scenario", status="error", alpha=0.1).to_dict()) == REPORT_KEYS

    def test_missing_optional_fields_take_defaults(self):
        report = SolveReport.from_dict({"method": "scenario", "status": "error", "alpha": 0.1})
        assert report == SolveReport(method="scenario", status="error", alpha=0.1)


class TestRunRecords:
    def test_feasibility_keys_feasible_last(self, two_bus_cfg):
        report = run(two_bus_cfg.system_spec(), two_bus_cfg.jcc(), two_bus_cfg.cost(), two_bus_cfg.acs_config())
        assert list(report.feasibility) == [
            "slacks",
            "min_slack",
            "risk_sum",
            "alpha",
            "lambdas_ok",
            "slacks_ok",
            "risk_ok",
            "tol",
            "feasible",
        ]
        assert report.feasibility["feasible"] is True
        for entry in report.trace:
            assert list(entry) == TRACE_KEYS
            assert entry["phase"] == "acs"
            assert entry["inner_status"] == "optimal"
            assert set(entry["lambdas"]) == set(report.lambdas)

    def test_restoration_entry(self, two_bus_cfg):
        """Two-bus at alpha 0.01: restoration proves infeasibility and
        leaves one entry with no objective or allocation."""
        cfg = two_bus_cfg.with_alpha(0.01)
        report = run(cfg.system_spec(), cfg.jcc(), cfg.cost(), cfg.acs_config())
        assert report.status == "infeasible"
        (entry,) = report.trace
        assert list(entry) == TRACE_KEYS
        assert entry["phase"] == "restoration"
        assert entry["iteration"] == 1
        assert entry["inner_status"] == "infeasible"
        assert (entry["objective"], entry["risk_sum"], entry["lambdas"]) == (None, None, None)
        assert entry["inner_iterations"] > 0
