"""cvxpy adapter for cross-validating the in-repo conic solver.

``solve_reference`` poses a ``ConicProgram`` in cvxpy and maps the result onto
a ``SolverOutcome``. cvxpy is optional and imported on use only; the tests
that need it skip without it.
"""

from __future__ import annotations

import math
import time

import numpy as np

from vpcc.conic import STATUS_NUMERICAL_FAILURE, ConicProgram, SolverOutcome
from vpcc.report import STATUS_INFEASIBLE, STATUS_OPTIMAL


def solve_reference(program: ConicProgram, solver: str = "CLARABEL") -> SolverOutcome:
    """Solve with cvxpy as an independent cross-check. Optional dependency."""
    try:
        import cvxpy as cp
    except ImportError as exc:  # pragma: no cover - environment dependent
        raise RuntimeError("solve_reference requires the optional cvxpy dependency") from exc

    start = time.perf_counter()
    x = cp.Variable(program.d)
    objective = 0.5 * cp.quad_form(x, cp.psd_wrap(program.P)) + program.c @ x + program.constant
    constraints = []
    if program.A_u.shape[0]:
        constraints.append(program.A_u @ x <= program.b_u)
    for row in program.soc:
        rhs = row.h - row.b - row.a @ x
        if row.lam == 0.0 or not (row.L.size and np.any(row.L)):
            # Same reduction as the in-repo canonicaliser: a constant
            # deviation makes the row affine (cvxpy mishandles constant cones).
            constraints.append(rhs >= row.lam * math.sqrt(row.s))
            continue
        parts = [row.L.T @ x + row.v, np.array([math.sqrt(row.s)])]
        constraints.append(cp.SOC(rhs, row.lam * cp.hstack(parts)))
    problem = cp.Problem(cp.Minimize(objective), constraints)
    problem.solve(solver=solver, verbose=False)
    status_map = {
        cp.OPTIMAL: STATUS_OPTIMAL,
        cp.OPTIMAL_INACCURATE: STATUS_OPTIMAL,
        cp.INFEASIBLE: STATUS_INFEASIBLE,
        cp.INFEASIBLE_INACCURATE: STATUS_INFEASIBLE,
    }
    status = status_map.get(problem.status, STATUS_NUMERICAL_FAILURE)
    xv = None if x.value is None else np.asarray(x.value, dtype=float)
    return SolverOutcome(
        status=status,
        x=xv,
        objective=None if xv is None else program.objective(xv),
        primal_residual=0.0,
        dual_residual=0.0,
        gap=0.0,
        iterations=0,
        wall_time_ms=(time.perf_counter() - start) * 1e3,
        diagnostic=f"cvxpy/{solver}: {problem.status}",
    )
