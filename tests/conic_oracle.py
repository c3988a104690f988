"""Log-barrier reference solver for ``vpcc.conic`` programs.

The barrier method that ``vpcc.conic`` ran on cone programs before its
primal-dual path took them over, kept as an independent reference. It
shares with ``conic.solve`` only the program model and small helpers: the
step budget, the Cholesky factorisation and the diagnostics.

Phase 1 minimizes the worst margin sigma over (x, sigma) along the central
path, exits early once sigma <= -feas_margin, declares
infeasibility when the centred bound sigma - nu / t is positive and falls
back to a stall rule (no margin progress above the tolerance for
``STALL_LIMIT`` Newton steps). Phase 2 follows the central path from phase
1's point, raising t by ``MU`` after each centering, until
nu / t <= tol max(1, |f(x)|). Each cone t0 - a'x >= ||(W x + w ; zeta)||
carries the barrier -log(t^2 - |z|^2 - zeta^2).

Two implementations of the barrier and its centering:

* ``StackedBarrier`` and ``center``: one stacked row matrix with per-cone
  segment sums, and a line search that moves cached slacks along the
  direction's images, factoring by ``conic._cholesky``.
* ``PointBarrier`` and ``point_center``: every trial point evaluated
  directly, with one product with the rows for the strict-feasibility test
  and another for the barrier value, and ``oracle_solve_step``'s Cholesky
  test followed by an LU solve. ``oracle_solve`` runs these.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from vpcc.conic import STATUS_NUMERICAL_FAILURE, ConicProgram, SolverOptions, SolverOutcome
from vpcc.conic import _Budget as Budget
from vpcc.conic import _cholesky, _conditioning_diag, _violation_diag
from vpcc.report import STATUS_INFEASIBLE, STATUS_ITERATION_LIMIT, STATUS_OPTIMAL

MU = 20.0  # barrier parameter growth per outer step
CENTER_TOL = 1e-10  # Newton decrement^2 / 2 threshold
INNER_CAP = 50  # Newton steps per centering
LS_CAP = 60  # backtracking halvings
STALL_LIMIT = 50  # phase-1 Newton steps without progress before giving up


def canonical(program: ConicProgram):
    """The barrier's stacked (rows, rhs, m, starts, zeta2): linear rows first
    (a degenerate cone, lam = 0 or a zero deviation map, is an affine row with
    the constant offset lam ||(v ; sqrt(s))||), then each genuine cone's head
    row a' and its -W rows, with zeta^2 = lam^2 s kept apart."""
    lin_rows = [program.A_u]
    lin_rhs = [program.b_u]
    cone_rows, cone_rhs, starts, zeta2 = [], [], [], []
    offset = 0
    for row in program.soc:
        has_map = row.L.size > 0 and bool(np.any(row.L))
        if row.lam == 0.0 or not has_map:
            lin_rows.append(row.a.reshape(1, -1))
            lin_rhs.append(np.array([row.h - row.b - row.lam * math.sqrt(float(row.v @ row.v) + row.s)]))
        else:
            zeta = row.lam * math.sqrt(row.s)
            cone_rows += [row.a.reshape(1, -1), -(row.lam * row.L.T)]
            cone_rhs += [np.array([row.h - row.b]), row.lam * row.v]
            starts.append(offset)
            zeta2.append(zeta * zeta)
            offset += 1 + row.L.shape[1]
    m = sum(block.shape[0] for block in lin_rows)
    rows = np.vstack(lin_rows + cone_rows)
    rhs = np.concatenate(lin_rhs + cone_rhs)
    return rows, rhs, m, np.array(starts, dtype=np.intp), np.array(zeta2)


# ---------------------------------------------------------------------------
# Stacked barrier
# ---------------------------------------------------------------------------


class StackedBarrier:
    """Log barrier at the slacks s = rhs - rows @ x, over one stacked row matrix.

    The first m rows are linear, with barrier -log s. Then each cone
    t0 - a'x >= ||(W x + w ; zeta)|| gives its head row a' (slack t = t0 - a'x)
    followed by its -W rows (slack z = W x + w), with barrier -log cval,
    cval = t^2 - |z|^2 - zeta^2; ``starts`` holds each head's offset past m.
    In the slacks the barrier Hessian is diag(D) plus, per cone, the outer
    product of its part of the gradient u (see ``grad_hess``); in x it is
    rows' diag(D) rows + G'G, G holding one segment sum of u * rows per cone.
    """

    def __init__(self, rows: np.ndarray, rhs: np.ndarray, m: int, starts: np.ndarray, zeta2: np.ndarray):
        self.rows = rows
        self.rhs = rhs
        self.m = m
        self.starts = starts
        self.zeta2 = zeta2
        self.nu = m + 2 * starts.shape[0]
        if starts.size:  # only the cone branches read these
            self.heads = m + starts
            # On the cone rows D = sign / cval and u = -D s: sign is -2 on heads, 2 on z rows.
            self.sign = np.full(rows.shape[0] - m, 2.0)
            self.sign[starts] = -2.0
            self.sizes = np.diff(np.append(starts, rows.shape[0] - m))
        self.centered = None  # (x, slacks, value, grad, hess) where the last centering converged

    def slacks(self, x: np.ndarray) -> np.ndarray:
        return self.rhs - self.rows @ x

    def _cval(self, slacks) -> np.ndarray:
        """t^2 - |z|^2 - zeta^2 per cone; each segment sums t^2 + |z|^2."""
        cone = slacks[self.m :]
        return 2.0 * slacks[self.heads] ** 2 - np.add.reduceat(cone * cone, self.starts) - self.zeta2

    def feasible(self, slacks) -> bool:
        return self.value(slacks) != math.inf

    def value(self, slacks) -> float:
        """Barrier value, +inf unless the slacks are strictly feasible."""
        if self.m and np.minimum.reduce(slacks[: self.m]) <= 0.0:
            return math.inf
        out = -float(np.add.reduce(np.log(slacks[: self.m])))
        if self.starts.size:
            if np.minimum.reduce(slacks[self.heads]) <= 0.0:
                return math.inf
            cval = self._cval(slacks)
            if np.minimum.reduce(cval) <= 0.0:
                return math.inf
            out -= float(np.add.reduce(np.log(cval)))
        return out

    def grad_hess(self, slacks) -> tuple[np.ndarray, np.ndarray]:
        rows, m = self.rows, self.m
        inv = 1.0 / slacks[:m]
        if not self.starts.size:
            return rows.T @ inv, (rows * (inv * inv)[:, None]).T @ rows
        # u = (1/s ; 2t/cval ; -2z/cval), D = (1/s^2 ; -2/cval ; 2/cval)
        w = self.sign / np.repeat(self._cval(slacks), self.sizes)
        u = np.concatenate([inv, -w * slacks[m:]])
        D = np.concatenate([inv * inv, w])
        G = np.add.reduceat(u[m:, None] * rows[m:], self.starts)
        return rows.T @ u, (rows * D[:, None]).T @ rows + G.T @ G


def cholesky_step(H: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve H step = rhs for PD H by ``conic._cholesky``'s factor."""
    factor = _cholesky(H)
    if factor is None:
        return None
    step, info = lapack.dpotrs(factor, rhs, lower=1)
    return step if info == 0 and np.isfinite(step).all() else None


def center(P, c, barrier: StackedBarrier, x, t_bar, budget: Budget, early_exit=None):
    """Damped Newton minimisation of t*f0 + phi from a strictly feasible x.

    Returns (x, slacks of x, flag) with flag one of "centered", "early",
    "stalled", "budget", "numfail". The barrier value of an accepted point
    both confirms it strictly feasible and serves the next step's line search.
    The next centering starts where this one converged, at a larger t, so the
    barrier keeps its value and derivatives there.
    """
    if barrier.centered is not None and barrier.centered[0] is x:
        _, slacks, phi, grad, hess = barrier.centered
    else:
        slacks = barrier.slacks(x)
        phi = barrier.value(slacks)
        grad = None
    tP = t_bar * P
    for _ in range(INNER_CAP):
        if budget.exhausted:
            return x, slacks, "budget"
        if grad is None:
            grad, hess = barrier.grad_hess(slacks)
        Px = P @ x
        Pxc = Px + c
        g = t_bar * Pxc + grad
        H = tP + hess
        neg_g = -g
        dx = cholesky_step(H, neg_g)
        if dx is None:
            budget.diagnostic = _conditioning_diag(H)
            return x, slacks, "numfail"
        budget.spent += 1
        dec2 = float(neg_g @ dx)
        if not math.isfinite(dec2) or dec2 <= 2.0 * CENTER_TOL:
            barrier.centered = (x, slacks, phi, grad, hess)
            return x, slacks, "centered"
        f0 = float(0.5 * x @ Px + c @ x)
        slope = float(Pxc @ dx)
        curv = float(dx @ P @ dx)
        base = t_bar * f0 + phi
        images = barrier.rows @ -dx  # slack change per unit step
        step = 1.0
        for _ in range(LS_CAP):
            trial = barrier.value(slacks + images if step == 1.0 else slacks + step * images)
            if t_bar * (f0 + step * slope + 0.5 * step * step * curv) + trial <= base - 0.01 * step * dec2:
                xn = x + dx if step == 1.0 else x + step * dx
                direct = barrier.slacks(xn)
                phi = barrier.value(direct)
                if phi != math.inf:
                    break
            step *= 0.5
        else:
            return x, slacks, "stalled"
        x, slacks, grad = xn, direct, None
        if early_exit is not None and early_exit(x):
            return x, slacks, "early"
    return x, slacks, "centered"


# ---------------------------------------------------------------------------
# Point-wise barrier
# ---------------------------------------------------------------------------


@dataclass
class Cone:
    """t0 - a'x >= ||(W x + w ; zeta)||, barrier -log(t^2 - |z|^2 - zeta^2)."""

    a: np.ndarray
    t0: float
    W: np.ndarray
    w: np.ndarray
    zeta2: float


class PointBarrier:
    """The barrier evaluated at a point: every call forms its own row products."""

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


def point_center(P, c, barrier: PointBarrier, x, t_bar, budget: Budget, early_exit=None):
    """``center`` with the point-wise barrier: returns (x, x, flag), the point
    standing in for its slacks."""

    def psi(pt, bval):
        return t_bar * (0.5 * pt @ P @ pt + c @ pt) + bval

    for _ in range(INNER_CAP):
        if budget.exhausted:
            return x, x, "budget"
        bval, bgrad, bhess = barrier.value_grad_hess(x)
        g = t_bar * (P @ x + c) + bgrad
        H = t_bar * P + bhess
        dx = oracle_solve_step(H, -g)
        if dx is None:
            budget.diagnostic = _conditioning_diag(H)
            return x, x, "numfail"
        budget.spent += 1
        dec2 = float(-g @ dx)
        if not math.isfinite(dec2) or dec2 <= 2.0 * CENTER_TOL:
            return x, x, "centered"
        base = psi(x, bval)
        step = 1.0
        accepted = False
        for _ in range(LS_CAP):
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


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


def barrier_phase1(program: ConicProgram, opts, budget, x_hint, barrier_cls=StackedBarrier, centering=center):
    """Phase 1 from ``x_hint``: (x, None) on success or (None, (status, diagnostic)).

    The cap row sigma >= -cap goes after the linear rows, and the sigma
    column holds -1 on the linear, cap and head rows.
    """
    d = program.d
    g0 = program.margin_values(x_hint)
    gmax0 = float(g0.max()) if g0.size else -1.0
    if gmax0 < 0.0:
        return x_hint.copy(), None
    scale = max(1.0, abs(gmax0))
    sigma0 = gmax0 + 1.0 + 0.1 * scale
    cap = abs(sigma0) + 100.0 * scale
    feas_margin = max(opts.tol, 1e-9) * scale

    rows, rhs, m, starts, zeta2 = canonical(program)
    rows1 = np.zeros((rows.shape[0] + 1, d + 1))
    rows1[:m, :d] = rows[:m]
    rows1[m + 1 :, :d] = rows[m:]
    rows1[: m + 1, d] = -1.0
    rows1[m + 1 + starts, d] = -1.0
    barrier = barrier_cls(rows1, np.concatenate([rhs[:m], [cap], rhs[m:]]), m + 1, starts, zeta2)
    c1 = np.zeros(d + 1)
    c1[d] = 1.0
    P1 = np.zeros((d + 1, d + 1))

    ext = np.append(x_hint, sigma0)
    best_sigma = sigma0
    best_x = x_hint.copy()
    stall = 0
    t_bar = barrier.nu / max(1.0, abs(sigma0))

    def early(pt):
        return pt[d] <= -feas_margin

    while True:
        ext, _, flag = centering(P1, c1, barrier, ext, t_bar, budget, early_exit=early)
        sigma = float(ext[d])
        if sigma < best_sigma - opts.tol * scale:
            best_sigma = sigma
            best_x = ext[:d].copy()
            stall = 0
        else:
            stall += 1
        if flag == "early" or sigma <= -feas_margin:
            return ext[:d].copy(), None
        if flag == "numfail":
            return None, (STATUS_NUMERICAL_FAILURE, f"phase 1: {budget.diagnostic}")
        # sigma - nu/t lower-bounds the optimal margin only near the central
        # path, so the infeasibility certificate is gated on centering.
        if flag == "centered" and sigma - barrier.nu / t_bar > opts.tol * scale:
            return None, (STATUS_INFEASIBLE, _violation_diag(program, best_x))
        if flag in ("stalled", "centered") and barrier.nu / t_bar <= opts.tol * scale:
            # Margin minimised to tolerance short of -feas_margin: a point whose
            # direct margins are all negative still goes on to phase 2.
            if program.margin_values(ext[:d]).max() < 0.0:
                return ext[:d].copy(), None
            return None, (STATUS_INFEASIBLE, _violation_diag(program, best_x))
        if stall > STALL_LIMIT:
            return None, (STATUS_INFEASIBLE, _violation_diag(program, best_x) + " (phase-1 stall)")
        if budget.exhausted:
            return None, (STATUS_ITERATION_LIMIT, "iteration budget exhausted in phase 1")
        t_bar *= MU


def barrier_phase2(program: ConicProgram, barrier, x, t_bar, budget, tol, centering=center):
    """Follow the central path from a strictly feasible x, raising t by MU
    after each centering, until nu / t <= tol max(1, |f(x)|). Returns
    (x, flag, gap nu / t) with flag "optimal", "budget" or "numfail"."""
    while True:
        x, _, flag = centering(program.P, program.c, barrier, x, t_bar, budget)
        if flag == "numfail":
            return x, flag, math.nan
        gap = barrier.nu / t_bar
        converged = gap <= tol * max(1.0, abs(program.objective(x)))
        if converged or budget.exhausted:
            return x, "optimal" if converged else "budget", gap
        t_bar *= MU


def barrier_solve(program: ConicProgram, opts=None, x_hint=None, barrier_cls=StackedBarrier, centering=center):
    """Both barrier phases, with the outcome fields ``conic.solve`` reports;
    ``dual_residual`` is left at 0."""
    opts = opts or SolverOptions()
    start = time.perf_counter()
    budget = Budget(opts.max_iter)

    def done(status, x, diagnostic=None, gap=0.0):
        vals = None if x is None else program.margin_values(x)
        return SolverOutcome(
            status=status,
            x=None if x is None else np.array(x, dtype=float),
            objective=None if x is None else program.objective(x),
            primal_residual=math.inf if x is None else float(max(0.0, vals.max())) if vals.size else 0.0,
            dual_residual=0.0,
            gap=gap,
            iterations=budget.spent,
            wall_time_ms=(time.perf_counter() - start) * 1e3,
            diagnostic=diagnostic,
        )

    canon = canonical(program)
    if canon[0].shape[0] == 0:
        return done(STATUS_OPTIMAL, np.linalg.lstsq(program.P, -program.c, rcond=None)[0])
    hint = np.zeros(program.d) if x_hint is None else np.asarray(x_hint, dtype=float)
    x0, failure = barrier_phase1(program, opts, budget, hint, barrier_cls, centering)
    if x0 is None:
        return done(failure[0], None, failure[1])
    barrier = barrier_cls(*canon)
    t_bar = min(max(barrier.nu / max(1.0, abs(program.objective(x0))), 1e-8), 1e8)
    x, flag, gap = barrier_phase2(program, barrier, x0, t_bar, budget, opts.tol, centering)
    if flag == "numfail":
        return done(STATUS_NUMERICAL_FAILURE, x, f"phase 2: {budget.diagnostic}")
    if flag == "budget":
        return done(STATUS_ITERATION_LIMIT, x, "iteration budget exhausted in phase 2", gap=gap)
    return done(STATUS_OPTIMAL, x, gap=gap)


def oracle_solve(program: ConicProgram, opts: SolverOptions | None = None, x_hint: np.ndarray | None = None) -> SolverOutcome:
    """Both barrier phases on the point-wise barrier, line search and LU steps."""
    return barrier_solve(program, opts, x_hint, PointBarrier, point_center)
