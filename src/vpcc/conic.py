"""Quadratic-objective second-order-cone programs and a self-contained solver.

Problem form over x in R^d:

    minimize    0.5 x' P x + c' x + c0
    subject to  A_u x <= b_u                                     (linear rows)
                a' x + b + lam ||(L' x + v ; sqrt(s))|| <= h     (cone rows)

with P symmetric PSD, lam >= 0 and s >= 0. The solver has two phases.
Phase 1 is a log-barrier method that minimizes the worst constraint margin
over (x, sigma); it exits early once a strictly feasible point is found,
declares infeasibility when the certified lower bound on the margin is
positive, and falls back to a stall rule (no margin progress above the
tolerance for 50 Newton steps) so it detects rather than hangs.

Phase 2 starts from phase 1's strictly feasible point and takes one of two
paths, chosen by the input:

* Some genuine cone row (``_canonical`` turns degenerate cones into affine
  rows): the barrier follows the central path with damped Newton steps and
  stops when its gap nu / t is at most tol max(1, |f(x)|). The barrier holds
  one stacked row matrix: the linear rows, then per cone its head row a'
  (slack t) and its -W rows (slack z). Each cone's t^2 + |z|^2 is a segment
  sum over its rows, and the Hessian is rows' diag(D) rows + G'G, with one
  row of G per cone, so no step walks the cones in Python. A Newton step
  forms the slacks of all rows once and factors its system once (Cholesky).
  Its backtracking line search moves the slacks, which are affine in x,
  along the direction's images and takes the quadratic objective in closed
  form, so a trial costs no product with the rows. Its duals are
  z = 1 / (t s).
* Linear rows only: a Mehrotra predictor-corrector primal-dual method
  (``_primal_dual``) with one Cholesky factorisation and two solves per
  iteration. It stops when s'z <= tol max(1, |f(x)|) and the dual residual
  ||P x + c + A'z||_inf <= tol max(1, ||P x + c||_inf), taken at its own
  duals z.

Either way an accepted point is confirmed strictly feasible by one direct
product with the rows, and the step is halved until it is. On "optimal" the
outcome's ``gap`` is s'z (nu / t for the barrier) and ``dual_residual`` is
||P x + c + A'z||_inf; with no constraints, ``dual_residual`` is ||P x + c||_inf.

Everything is dense numpy with a fixed iteration order and no randomness,
so identical inputs produce identical iterates. Problem sizes in scope are
desk scale (a few hundred variables, a few thousand rows).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError
from .report import STATUS_INFEASIBLE, STATUS_ITERATION_LIMIT, STATUS_OPTIMAL

STATUS_NUMERICAL_FAILURE = "numerical_failure"

_MU = 20.0  # barrier parameter growth per outer step
_CENTER_TOL = 1e-10  # Newton decrement^2 / 2 threshold
_INNER_CAP = 50  # Newton steps per centering
_LS_CAP = 60  # backtracking halvings
_STALL_LIMIT = 50  # phase-1 Newton steps without progress before giving up


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SocRow:
    """One cone row a' x + b + lam ||(L' x + v ; sqrt(s))|| <= h."""

    a: np.ndarray
    b: float
    lam: float
    L: np.ndarray
    v: np.ndarray
    s: float
    h: float

    def __post_init__(self):
        a = _readonly(self.a)
        L = np.array(self.L, dtype=float)
        if L.ndim == 1:
            L = L.reshape(len(a), -1) if L.size else np.zeros((len(a), 0))
        L.setflags(write=False)
        v = _readonlyv(self.v, L.shape[1])
        if self.lam < 0:
            raise DomainError("cone multiplier must be nonnegative")
        if self.s < 0:
            raise DomainError("cone offset s must be nonnegative")
        if L.shape[0] != a.shape[0]:
            raise DomainError(f"L must have {a.shape[0]} rows, got {L.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "h", float(self.h))

    def deviation(self, x: np.ndarray) -> float:
        resid = self.L.T @ x + self.v if self.L.size else self.v
        return float(math.sqrt(resid @ resid + self.s))

    def margin(self, x: np.ndarray) -> float:
        """Constraint value minus bound; feasible iff <= 0."""
        return float(self.a @ x + self.b + self.lam * self.deviation(x) - self.h)


def _readonlyv(values, width: int) -> np.ndarray:
    v = np.array(values, dtype=float).reshape(-1)
    if v.shape != (width,):
        raise DomainError(f"v must have length {width}, got {v.shape}")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class ConicProgram:
    """Exchange model for the solver; also JSON-serializable for debugging."""

    P: np.ndarray
    c: np.ndarray
    A_u: np.ndarray
    b_u: np.ndarray
    soc: tuple = ()
    constant: float = 0.0

    def __post_init__(self):
        c = _readonly(self.c)
        d = c.shape[0]
        P = np.array(self.P, dtype=float)
        if P.shape != (d, d):
            raise DomainError(f"P must be {d} x {d}, got {P.shape}")
        skew = np.abs(P - P.T).max() if P.size else 0.0
        if skew > 1e-8 * (1.0 + np.abs(P).max()):
            raise DomainError("P must be symmetric")
        P = 0.5 * (P + P.T)
        if P.size:
            wmin = float(np.linalg.eigvalsh(P).min())
            if wmin < -1e-9 * max(1.0, np.abs(P).max()):
                raise DomainError(f"P must be PSD; smallest eigenvalue {wmin:.3e}")
        P.setflags(write=False)
        A_u = np.array(self.A_u, dtype=float)
        if A_u.size == 0:
            A_u = A_u.reshape(0, d)
        if A_u.ndim != 2 or A_u.shape[1] != d:
            raise DomainError(f"A_u must have {d} columns, got {A_u.shape}")
        A_u.setflags(write=False)
        b_u = _readonly(self.b_u)
        if b_u.shape != (A_u.shape[0],):
            raise DomainError("b_u length must match A_u rows")
        soc = tuple(self.soc)
        for row in soc:
            if row.a.shape != (d,):
                raise DomainError("cone row dimension mismatch")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A_u", A_u)
        object.__setattr__(self, "b_u", b_u)
        object.__setattr__(self, "soc", soc)
        object.__setattr__(self, "constant", float(self.constant))

    @property
    def d(self) -> int:
        return self.c.shape[0]

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.P @ x + self.c @ x + self.constant)

    def margin_values(self, x: np.ndarray) -> np.ndarray:
        """All constraint values minus bounds: linear rows, then cone rows."""
        lin = self.A_u @ x - self.b_u
        return np.concatenate([lin, [row.margin(x) for row in self.soc]]) if self.soc else lin

    def margins(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """``margin_values`` with ("linear"|"soc", index) labels."""
        labels = [("linear", i) for i in range(self.A_u.shape[0])] + [("soc", i) for i in range(len(self.soc))]
        return self.margin_values(x), labels

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "P": self.P.tolist(),
            "c": self.c.tolist(),
            "constant": self.constant,
            "A_u": self.A_u.tolist(),
            "b_u": self.b_u.tolist(),
            "soc": [
                {
                    "a": row.a.tolist(),
                    "b": row.b,
                    "lambda": row.lam,
                    "L": row.L.tolist(),
                    "v": row.v.tolist(),
                    "s": row.s,
                    "h": row.h,
                }
                for row in self.soc
            ],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "ConicProgram":
        soc = tuple(
            SocRow(
                a=row["a"],
                b=row["b"],
                lam=row["lambda"],
                L=row["L"],
                v=row["v"],
                s=row["s"],
                h=row["h"],
            )
            for row in data.get("soc", [])
        )
        return cls(
            P=data["P"],
            c=data["c"],
            A_u=data["A_u"],
            b_u=data["b_u"],
            soc=soc,
            constant=data.get("constant", 0.0),
        )

    @classmethod
    def from_json(cls, text: str) -> "ConicProgram":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter < 1:
            raise DomainError("solver options need tol > 0 and max_iter >= 1")


@dataclass
class SolverOutcome:
    status: str
    x: np.ndarray | None
    objective: float | None
    primal_residual: float
    dual_residual: float
    gap: float
    iterations: int
    wall_time_ms: float
    diagnostic: str | None = None


# ---------------------------------------------------------------------------
# Barrier machinery
# ---------------------------------------------------------------------------


class _Barrier:
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

    # The line search calls value several times per Newton step, so it uses
    # the ufunc reductions directly.
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


def _canonical(program: ConicProgram):
    """The stacked (rows, rhs, m, starts, zeta2) of ``_Barrier``: linear rows
    first (a degenerate cone, lam = 0 or a zero deviation map, is an affine
    row with the constant offset lam ||(v ; sqrt(s))||), then each genuine
    cone's head and -W rows."""
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


def _cholesky(H: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of PD H, escalating a ridge on breakdown; None
    if H has a non-finite entry or stays indefinite."""
    if not np.isfinite(H).all():
        return None
    ridge = 0.0
    for _ in range(6):
        factor, info = lapack.dpotrf(H + ridge * np.eye(H.shape[0]) if ridge else H, lower=1)
        if info == 0:
            return factor
        ridge = ridge * 100.0 if ridge else 1e-14 * max(1.0, float(np.trace(H)) / max(1, H.shape[0]))
    return None


def _solve_step(H: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve H step = rhs for PD H by Cholesky (``_cholesky``)."""
    factor = _cholesky(H)
    if factor is None:
        return None
    step, info = lapack.dpotrs(factor, rhs, lower=1)
    return step if info == 0 and np.isfinite(step).all() else None


class _Budget:
    __slots__ = ("limit", "spent", "diagnostic")

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0
        self.diagnostic: str | None = None

    @property
    def exhausted(self) -> bool:
        return self.spent >= self.limit


def _conditioning_diag(H: np.ndarray) -> str:
    if not np.all(np.isfinite(H)):
        return "Newton system contains non-finite entries"
    try:
        cond = float(np.linalg.cond(H))
    except np.linalg.LinAlgError:  # pragma: no cover - cond itself failing
        return "Newton system condition number could not be estimated"
    return f"Newton system is ill-conditioned (condition estimate {cond:.3e})"


def _center(P, c, barrier: _Barrier, x, t_bar, budget: _Budget, early_exit=None):
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
    for _ in range(_INNER_CAP):
        if budget.exhausted:
            return x, slacks, "budget"
        if grad is None:
            grad, hess = barrier.grad_hess(slacks)
        Px = P @ x
        Pxc = Px + c
        g = t_bar * Pxc + grad
        H = tP + hess
        neg_g = -g
        dx = _solve_step(H, neg_g)
        if dx is None:
            budget.diagnostic = _conditioning_diag(H)
            return x, slacks, "numfail"
        budget.spent += 1
        dec2 = float(neg_g @ dx)
        if not math.isfinite(dec2) or dec2 <= 2.0 * _CENTER_TOL:
            barrier.centered = (x, slacks, phi, grad, hess)
            return x, slacks, "centered"
        f0 = float(0.5 * x @ Px + c @ x)
        slope = float(Pxc @ dx)
        curv = float(dx @ P @ dx)
        base = t_bar * f0 + phi
        images = barrier.rows @ -dx  # slack change per unit step
        step = 1.0
        for _ in range(_LS_CAP):
            # A full step skips the product by 1.0, which is exact.
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
# Phases
# ---------------------------------------------------------------------------


def _phase1(program: ConicProgram, canon, opts, budget, x_hint):
    """Find a strictly feasible point or evidence that none exists.

    Minimizes sigma over (x, sigma) with every margin pushed below sigma: the
    cap row sigma >= -cap goes after the linear rows, and the sigma column
    holds -1 on the linear, cap and head rows.
    Returns (x, None) on success or (None, outcome_fields) on failure.
    """
    d = program.d
    g0 = program.margin_values(x_hint)
    gmax0 = float(g0.max()) if g0.size else -1.0
    if gmax0 < 0.0:
        return x_hint.copy(), None
    scale = max(1.0, abs(gmax0))
    feas_margin = max(opts.tol, 1e-9) * scale
    sigma0 = gmax0 + 1.0 + 0.1 * scale
    cap = abs(sigma0) + 100.0 * scale

    ext = np.zeros(d + 1)
    ext[:d] = x_hint
    ext[d] = sigma0

    rows, rhs, m, starts, zeta2 = canon
    rows1 = np.zeros((rows.shape[0] + 1, d + 1))
    rows1[:m, :d] = rows[:m]
    rows1[m + 1 :, :d] = rows[m:]
    rows1[: m + 1, d] = -1.0
    rows1[m + 1 + starts, d] = -1.0
    barrier = _Barrier(rows1, np.concatenate([rhs[:m], [cap], rhs[m:]]), m + 1, starts, zeta2)
    if not barrier.feasible(barrier.slacks(ext)):  # pragma: no cover - sigma0 guarantees this
        ext[d] = gmax0 + 10.0 * scale

    c1 = np.zeros(d + 1)
    c1[d] = 1.0
    P1 = np.zeros((d + 1, d + 1))

    best_sigma = ext[d]
    best_x = ext[:d].copy()
    stall = 0
    t_bar = barrier.nu / max(1.0, abs(sigma0))

    def early(pt):
        return pt[d] <= -feas_margin

    while True:
        ext, _, flag = _center(P1, c1, barrier, ext, t_bar, budget, early_exit=early)
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
            return None, (STATUS_NUMERICAL_FAILURE, best_x, f"phase 1: {budget.diagnostic}")
        # sigma - nu/t lower-bounds the optimal margin only near the central
        # path, so the infeasibility certificate is gated on centering.
        if flag == "centered" and sigma - barrier.nu / t_bar > opts.tol * scale:
            return None, (STATUS_INFEASIBLE, best_x, _violation_diag(program, best_x))
        if flag in ("stalled", "centered") and barrier.nu / t_bar <= opts.tol * scale:
            # Margin minimised to tolerance short of -feas_margin: a point whose
            # direct margins are all negative still goes on to phase 2.
            if program.margin_values(ext[:d]).max() < 0.0:
                return ext[:d].copy(), None
            return None, (STATUS_INFEASIBLE, best_x, _violation_diag(program, best_x))
        if stall > _STALL_LIMIT:
            return None, (STATUS_INFEASIBLE, best_x, _violation_diag(program, best_x) + " (phase-1 stall)")
        if budget.exhausted:
            return None, (STATUS_ITERATION_LIMIT, best_x, "iteration budget exhausted in phase 1")
        t_bar *= _MU


def _barrier_phase2(program: ConicProgram, barrier: _Barrier, x, t_bar, budget, tol):
    """Follow the central path from a strictly feasible x, raising t by _MU
    after each centering, until nu / t <= tol max(1, |f(x)|).

    Returns (x, flag, gap, dual residual) with flag "optimal", "budget" or
    "numfail"; the gap is nu / t and the dual residual ||P x + c + A'z||_inf
    is taken at the barrier's duals z = 1 / (t s).
    """
    while True:
        x, slacks, flag = _center(program.P, program.c, barrier, x, t_bar, budget)
        if flag == "numfail":
            return x, flag, math.nan, math.nan
        gap = barrier.nu / t_bar
        converged = gap <= tol * max(1.0, abs(program.objective(x)))
        if converged or budget.exhausted:
            dual = float(np.abs(program.P @ x + program.c + barrier.grad_hess(slacks)[0] / t_bar).max())
            return x, "optimal" if converged else "budget", gap, dual
        t_bar *= _MU


def _to_boundary(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest a with v + a dv >= 0 (inf when dv >= 0)."""
    neg = dv < 0.0
    return float((v[neg] / -dv[neg]).min()) if neg.any() else math.inf


def _primal_dual(program: ConicProgram, barrier: _Barrier, x, t_bar, budget, tol):
    """Mehrotra predictor-corrector for a program whose rows are all linear.

    Starts from a strictly feasible x with slacks s = b - A x and duals
    z = 1 / (t s), the barrier's own dual estimate at t. Each iteration
    factors H = P + A' diag(z/s) A once and solves twice: the affine
    direction, then the direction aimed at sigma mu, sigma = (mu_aff / mu)^3,
    with the second-order correction. Steps go 0.99 of the way to the
    boundary, and are equal in x and z when P != 0, so the dual residual
    shrinks with the step. A primal iterate is accepted only once one direct
    product b - A x shows it strictly feasible; until then the primal step is
    halved. Stops when s'z <= tol max(1, |f(x)|) and
    ||P x + c + A'z||_inf <= tol max(1, ||P x + c||_inf).

    Returns (x, flag, gap, dual residual) like ``_barrier_phase2``.
    """
    P, c, A = program.P, program.c, barrier.rows
    coupled = bool(P.any())
    s = barrier.slacks(x)
    z = 1.0 / (t_bar * s)
    while True:
        Pxc = P @ x + c
        r_d = Pxc + A.T @ z
        gap = float(s @ z)
        dual = float(np.abs(r_d).max())
        if gap <= tol * max(1.0, abs(program.objective(x))) and dual <= tol * max(1.0, float(np.abs(Pxc).max())):
            return x, "optimal", gap, dual
        if budget.exhausted:
            return x, "budget", gap, dual
        w = z / s
        H = P + (A * w[:, None]).T @ A
        factor = _cholesky(H)
        if factor is None:
            budget.diagnostic = _conditioning_diag(H)
            return x, "numfail", gap, dual
        budget.spent += 1
        # Predictor: the affine direction, aimed at s z = 0.
        ds = A @ -lapack.dpotrs(factor, -Pxc, lower=1)[0]
        dz = -z - w * ds
        a_p, a_d = min(1.0, _to_boundary(s, ds)), min(1.0, _to_boundary(z, dz))
        if coupled:
            a_p = a_d = min(a_p, a_d)
        sigma = (float((s + a_p * ds) @ (z + a_d * dz)) / gap) ** 3  # (mu_aff / mu)^3
        # Corrector: aimed at s z = sigma mu, less the predictor's product ds dz.
        r_c = s * z + ds * dz - sigma * gap / s.shape[0]
        dx = lapack.dpotrs(factor, A.T @ (r_c / s) - r_d, lower=1)[0]
        ds = A @ -dx
        dz = (-r_c - z * ds) / s
        a_p, a_d = min(1.0, 0.99 * _to_boundary(s, ds)), min(1.0, 0.99 * _to_boundary(z, dz))
        if coupled:
            a_p = a_d = min(a_p, a_d)
        for _ in range(_LS_CAP):
            xn = x + a_p * dx
            direct = barrier.slacks(xn)
            if np.minimum.reduce(direct) > 0.0:
                x, s = xn, direct
                break
            a_p *= 0.5
        if coupled:
            a_d = min(a_d, a_p)
        z = z + a_d * dz


def _violation_diag(program: ConicProgram, x: np.ndarray) -> str:
    vals, labels = program.margins(x)
    if not vals.size:
        return "no constraints"
    idx = int(np.argmax(vals))
    kind, pos = labels[idx]
    return f"most violated constraint at least-infeasible point: {kind}[{pos}] margin {vals[idx]:.6e}"


def solve(program: ConicProgram, opts: SolverOptions | None = None, x_hint: np.ndarray | None = None) -> SolverOutcome:
    """Solve the program to relative tolerance ``opts.tol``.

    On "optimal" the returned point is strictly feasible and the relative
    duality gap is at most tol (see the module docstring for the dual
    residual). "infeasible" carries a diagnostic naming the most violated
    constraint at the least-infeasible point found.
    """
    opts = opts or SolverOptions()
    start = time.perf_counter()
    d = program.d
    budget = _Budget(opts.max_iter)

    def done(status, x, diagnostic=None, gap=0.0, dual=0.0):
        obj = program.objective(x) if x is not None else None
        if x is not None:
            vals = program.margin_values(x)
            primal = float(max(0.0, vals.max())) if vals.size else 0.0
        else:
            primal = math.inf
        return SolverOutcome(
            status=status,
            x=None if x is None else np.array(x, dtype=float),
            objective=obj,
            primal_residual=primal,
            dual_residual=dual,
            gap=gap,
            iterations=budget.spent,
            wall_time_ms=(time.perf_counter() - start) * 1e3,
            diagnostic=diagnostic,
        )

    canon = _canonical(program)

    # Constraint-free program: plain quadratic minimisation.
    if canon[0].shape[0] == 0:
        try:
            x = np.linalg.lstsq(program.P, -program.c, rcond=None)[0]
        except np.linalg.LinAlgError:
            return done(STATUS_NUMERICAL_FAILURE, None, "quadratic solve failed")
        resid = program.P @ x + program.c
        norm = np.linalg.norm(resid)
        if norm > opts.tol * max(1.0, np.linalg.norm(program.c)):
            return done(STATUS_NUMERICAL_FAILURE, None, f"stationarity residual {norm:.3e}; objective may be unbounded")
        return done(STATUS_OPTIMAL, x, dual=float(np.abs(resid).max()))

    hint = np.zeros(d) if x_hint is None else np.asarray(x_hint, dtype=float)
    x0, failure = _phase1(program, canon, opts, budget, hint)
    if x0 is None:
        status, _, diag = failure
        return done(status, None, diag)

    barrier = _Barrier(*canon)
    t_bar = min(max(barrier.nu / max(1.0, abs(program.objective(x0))), 1e-8), 1e8)
    phase2 = _barrier_phase2 if canon[3].size else _primal_dual  # cone rows remain
    x, flag, gap, dual = phase2(program, barrier, x0, t_bar, budget, opts.tol)
    if flag == "numfail":
        return done(STATUS_NUMERICAL_FAILURE, x, f"phase 2: {budget.diagnostic}")
    if flag == "budget":
        return done(STATUS_ITERATION_LIMIT, x, "iteration budget exhausted in phase 2", gap=gap, dual=dual)
    return done(STATUS_OPTIMAL, x, gap=gap, dual=dual)
