"""Solve reports shared by the proposed method and the scenario baseline.

This module owns the status vocabulary: every status name is declared here,
and ``report_status`` is the one translation from a conic solver's status to
a report's. ``cli`` turns a report's status into its exit code and sweep cell.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields


STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_ITERATION_LIMIT = "iteration_limit"
STATUS_ERROR = "error"
STATUS_NUMERICAL_FAILURE = "numerical_failure"  # conic outcomes only


def report_status(solver_status: str) -> str:
    """The report status for a ``SolverOutcome`` status: a numerical failure
    is an error, every other status is kept."""
    return STATUS_ERROR if solver_status == STATUS_NUMERICAL_FAILURE else solver_status


def _json_float(value):
    if value is None:
        return None
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if math.isnan(value):
        return "nan"
    return float(value)


_NONFINITE = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}


def _parse_float(value):
    if value is None:
        return None
    if isinstance(value, str):
        return float(value)
    return value


@dataclass
class SolveReport:
    """Everything a run produced: inputs, solution, accounting, trace.

    ``lambdas`` (proposed method only) is the allocation that produced the
    reported input, so re-solving the fixed-multiplier subproblem from it
    reproduces the same input. ``trace`` entries are dicts with keys
    iteration, phase, objective, risk_sum, lambdas, inner_status,
    inner_iterations, wall_time_ms.

    The JSON keys are the field names in declaration order; only the
    floats that may be infinite (``objective``, ``lambdas``) are mapped to
    and from strings. A non-finite number in the echoed ``inputs`` is
    written as the same string and read back as that string.
    """

    method: str
    status: str
    alpha: float
    objective: float | None = None
    objective_per_step: list | None = None
    U: list | None = None
    lambdas: dict | None = None
    risks: dict | None = None
    risk_sum: float | None = None
    feasibility: dict | None = None
    mc: dict | None = None
    trace: list = field(default_factory=list)
    sample_count: int | None = None
    wall_time_ms: float = 0.0
    seed: int | None = None
    notes: list = field(default_factory=list)
    inputs: dict | None = None

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["objective"] = _json_float(self.objective)
        if self.lambdas is not None:
            data["lambdas"] = {key: _json_float(val) for key, val in self.lambdas.items()}
        data["notes"] = list(self.notes)
        return data

    def to_json(self, indent: int | None = 2) -> str:
        data = self.to_dict()
        try:
            return json.dumps(data, indent=indent, allow_nan=False)
        except ValueError:  # a config may hold Infinity, e.g. a deterministic row's multiplier
            data["inputs"] = json.loads(json.dumps(data["inputs"]), parse_constant=_NONFINITE.__getitem__)
            return json.dumps(data, indent=indent, allow_nan=False)

    @classmethod
    def from_dict(cls, data: dict) -> "SolveReport":
        report = cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})
        report.objective = _parse_float(report.objective)
        if report.lambdas is not None:
            report.lambdas = {key: _parse_float(val) for key, val in report.lambdas.items()}
        return report

    @classmethod
    def from_json(cls, text: str) -> "SolveReport":
        return cls.from_dict(json.loads(text))
