"""Point-wise line-search reference for the barrier solver.

``oracle_solve`` runs ``vpcc.conic.solve`` with its barrier and centering
swapped for point-wise ones: the backtracking search evaluates every trial
point directly, with one product with the row matrix for the
strict-feasibility test and another for the barrier value, and
``oracle_solve_step`` tests positive definiteness with a Cholesky
factorisation and then solves with an LU factorisation. The phases are
shared, so the two solvers take the same decisions up to round-off and must
agree on the status and, within the tolerance, on the objective. Programs
whose rows are all linear go to the barrier's phase 2 here too, in place of
``solve``'s primal-dual one, so the oracle stays an independent reference
for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from unittest import mock

import numpy as np

from vpcc import conic
from vpcc.conic import _CENTER_TOL, _INNER_CAP, _LS_CAP, ConicProgram, SolverOptions, SolverOutcome, _Budget


@dataclass
class Cone:
    """t0 - a'x >= ||(W x + w ; zeta)||, barrier -log(t^2 - |z|^2 - zeta^2)."""

    a: np.ndarray
    t0: float
    W: np.ndarray
    w: np.ndarray
    zeta2: float


class PointBarrier:
    """The barrier evaluated at a point: every call forms its own row products.

    In ``conic.solve`` the point stands in for its slacks: ``slacks(x)`` is x
    itself, and ``feasible`` and ``grad_hess`` take the point.
    """

    def __init__(self, rows: np.ndarray, rhs: np.ndarray, m: int, starts: np.ndarray, zeta2: np.ndarray):
        self.lin_A = rows[:m]
        self.lin_b = rhs[:m]
        # Each cone back from its stacked rows: head a' with rhs t0, then -W with rhs w.
        ends = list(starts[1:]) + [rows.shape[0] - m]
        self.cones = [
            Cone(a=rows[m + i], t0=rhs[m + i], W=-rows[m + i + 1 : m + j], w=rhs[m + i + 1 : m + j], zeta2=z2)
            for i, j, z2 in zip(starts, ends, zeta2)
        ]
        self.nu = m + 2 * len(self.cones)

    def strictly_feasible(self, x: np.ndarray) -> bool:
        if self.lin_A.shape[0]:
            if (self.lin_b - self.lin_A @ x).min() <= 0.0:
                return False
        for cone in self.cones:
            t = cone.t0 - cone.a @ x
            if t <= 0.0:
                return False
            z = cone.W @ x + cone.w
            if t * t - z @ z - cone.zeta2 <= 0.0:
                return False
        return True

    def slacks(self, x: np.ndarray) -> np.ndarray:
        return x

    def feasible(self, x: np.ndarray) -> bool:
        return self.strictly_feasible(x)

    def grad_hess(self, x: np.ndarray):
        return self.value_grad_hess(x)[1:]

    def value(self, x: np.ndarray) -> float:
        out = 0.0
        if self.lin_A.shape[0]:
            resid = self.lin_b - self.lin_A @ x
            out -= float(np.log(resid).sum())
        for cone in self.cones:
            t = cone.t0 - cone.a @ x
            z = cone.W @ x + cone.w
            out -= math.log(t * t - z @ z - cone.zeta2)
        return out

    def value_grad_hess(self, x: np.ndarray):
        d = x.shape[0]
        val = 0.0
        grad = np.zeros(d)
        hess = np.zeros((d, d))
        if self.lin_A.shape[0]:
            resid = self.lin_b - self.lin_A @ x
            val -= float(np.log(resid).sum())
            inv = 1.0 / resid
            grad += self.lin_A.T @ inv
            hess += (self.lin_A * (inv * inv)[:, None]).T @ self.lin_A
        for cone in self.cones:
            t = cone.t0 - cone.a @ x
            z = cone.W @ x + cone.w
            cval = t * t - z @ z - cone.zeta2
            val -= math.log(cval)
            gc = -2.0 * t * cone.a - 2.0 * (cone.W.T @ z)
            grad -= gc / cval
            hess += np.outer(gc, gc) / (cval * cval)
            hess -= (2.0 * np.outer(cone.a, cone.a) - 2.0 * cone.W.T @ cone.W) / cval
        return val, grad, hess


def oracle_solve_step(H: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve H step = rhs for PD H, escalating a ridge on breakdown."""
    scale = max(1.0, float(np.trace(H)) / max(1, H.shape[0]))
    eye = np.eye(H.shape[0])
    ridge = 0.0
    for _ in range(6):
        regularised = H + ridge * eye if ridge else H
        try:
            np.linalg.cholesky(regularised)
            step = np.linalg.solve(regularised, rhs)
            if np.all(np.isfinite(step)):
                return step
        except np.linalg.LinAlgError:
            pass
        ridge = max(ridge * 100.0, 1e-14 * scale)
    return None


def _center(P, c, barrier: PointBarrier, x, t_bar, budget: _Budget, early_exit=None):
    """Damped Newton minimisation of t*f0 + phi from a strictly feasible x.

    Returns (x, x, flag), the point standing in for its slacks, with flag one
    of "centered", "early", "stalled", "budget", "numfail".
    """

    def psi(pt, bval):
        return t_bar * (0.5 * pt @ P @ pt + c @ pt) + bval

    for _ in range(_INNER_CAP):
        if budget.exhausted:
            return x, x, "budget"
        bval, bgrad, bhess = barrier.value_grad_hess(x)
        g = t_bar * (P @ x + c) + bgrad
        H = t_bar * P + bhess
        dx = oracle_solve_step(H, -g)
        if dx is None:
            budget.diagnostic = conic._conditioning_diag(H)
            return x, x, "numfail"
        budget.spent += 1
        dec2 = float(-g @ dx)
        if not math.isfinite(dec2) or dec2 <= 2.0 * _CENTER_TOL:
            return x, x, "centered"
        base = psi(x, bval)
        step = 1.0
        accepted = False
        for _ in range(_LS_CAP):
            xn = x + step * dx
            if barrier.strictly_feasible(xn):
                if psi(xn, barrier.value(xn)) <= base - 0.01 * step * dec2:
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            return x, x, "stalled"
        x = xn
        if early_exit is not None and early_exit(x):
            return x, x, "early"
    return x, x, "centered"


def oracle_solve(program: ConicProgram, opts: SolverOptions | None = None, x_hint: np.ndarray | None = None) -> SolverOutcome:
    """``vpcc.conic.solve`` with the point-wise barrier, line search and LU
    steps, and the barrier's phase 2 for every program."""
    with mock.patch.multiple(conic, _Barrier=PointBarrier, _center=_center, _primal_dual=conic._barrier_phase2):
        return conic.solve(program, opts, x_hint=x_hint)
