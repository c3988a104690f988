"""Solve reports shared by the proposed method and the scenario baseline.

This module owns the status vocabulary: every status name is declared here,
and ``report_status`` is the one translation from a conic solver's status to
a report's. ``cli`` turns a report's status into its exit code and sweep cell.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


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
        lambdas = None
        if self.lambdas is not None:
            lambdas = {key: _json_float(val) for key, val in self.lambdas.items()}
        return {
            "method": self.method,
            "status": self.status,
            "alpha": self.alpha,
            "objective": _json_float(self.objective),
            "objective_per_step": self.objective_per_step,
            "U": self.U,
            "lambdas": lambdas,
            "risks": self.risks,
            "risk_sum": self.risk_sum,
            "feasibility": self.feasibility,
            "mc": self.mc,
            "trace": self.trace,
            "sample_count": self.sample_count,
            "wall_time_ms": self.wall_time_ms,
            "seed": self.seed,
            "notes": list(self.notes),
            "inputs": self.inputs,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)

    @classmethod
    def from_dict(cls, data: dict) -> "SolveReport":
        lambdas = data.get("lambdas")
        if lambdas is not None:
            lambdas = {key: _parse_float(val) for key, val in lambdas.items()}
        return cls(
            method=data["method"],
            status=data["status"],
            alpha=data["alpha"],
            objective=_parse_float(data.get("objective")),
            objective_per_step=data.get("objective_per_step"),
            U=data.get("U"),
            lambdas=lambdas,
            risks=data.get("risks"),
            risk_sum=data.get("risk_sum"),
            feasibility=data.get("feasibility"),
            mc=data.get("mc"),
            trace=data.get("trace", []),
            sample_count=data.get("sample_count"),
            wall_time_ms=data.get("wall_time_ms", 0.0),
            seed=data.get("seed"),
            notes=data.get("notes", []),
            inputs=data.get("inputs"),
        )

    @classmethod
    def from_json(cls, text: str) -> "SolveReport":
        return cls.from_dict(json.loads(text))
