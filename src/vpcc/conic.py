"""Quadratic-objective second-order-cone programs and a self-contained solver.

Problem form over x in R^d:

    minimize    0.5 x' P x + c' x + c0
    subject to  A_u x <= b_u                                     (linear rows)
                a' x + b + lam ||(L' x + v ; sqrt(s))|| <= h     (cone rows)

with P symmetric PSD, lam >= 0 and s >= 0. ``_canonical`` stacks every
constraint into one row matrix with slacks rhs - rows x: the linear rows,
with degenerate cones as affine rows, then per genuine cone a block (t; z),
t >= ||z||, of its head row a', its -lam L' rows and, when s > 0, a zero
row with right-hand side lam sqrt(s).

One Mehrotra predictor-corrector primal-dual method (``_primal_dual``) runs
both phases. Nesterov-Todd scaling turns each cone block's part of the
Newton matrix into a signed diagonal plus one rank-one term, so the matrix
is P + rows' diag(D) rows + G'G with one row of G per cone: one Cholesky
factorisation and two solves per iteration, and no per-cone Python loop.
Phase 1 minimizes the worst constraint margin sigma over (x, sigma), with
sigma bounded below by -cap and above by sigma0 + 1 + 0.1 scale. It
returns at the first accepted iterate with sigma <= -feas_margin; at its
optimum, sigma - s'z > 0 certifies infeasibility, and the diagnostic states
that bound. A phase-1 optimum short of both goes on to phase 2 if its direct
margins are all negative, and else phase 1 goes on once at tol / 1000
before it declares infeasibility. Phase 2 starts from phase 1's strictly feasible
point and stops when s'z <= tol max(1, |f(x)|) and the dual residual
||P x + c + rows'z||_inf <= tol max(1, ||P x + c||_inf), with z in the dual
cone. An affine direction d with P d = 0, -rows d in the cone and c'd < 0
shows the objective unbounded below; the solve then ends
"numerical_failure" with d in its diagnostic.

Every accepted point is confirmed strictly feasible by one direct product
with the rows, and the step is halved until it is. On "optimal" the
outcome's ``gap`` is s'z and ``dual_residual`` is ||P x + c + rows'z||_inf;
with no constraints, ``dual_residual`` is ||P x + c||_inf.

Everything is dense numpy with a fixed iteration order and no randomness,
so identical inputs produce identical iterates. Problem sizes in scope are
desk scale (a few hundred variables, a few thousand rows).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError
from .report import STATUS_INFEASIBLE, STATUS_ITERATION_LIMIT, STATUS_NUMERICAL_FAILURE, STATUS_OPTIMAL

_LS_CAP = 60  # halvings of a primal step the direct product rejects


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
        return {**_json_fields(self), "soc": [_json_fields(row) for row in self.soc]}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "ConicProgram":
        soc = tuple(SocRow(**_field_args(SocRow, row)) for row in data.get("soc", ()))
        return cls(**{**_field_args(cls, data), "soc": soc})

    @classmethod
    def from_json(cls, text: str) -> "ConicProgram":
        return cls.from_dict(json.loads(text))


# JSON keys that differ from the field names of ``ConicProgram`` and ``SocRow``.
_JSON_KEYS = {"lam": "lambda"}


def _json_fields(record) -> dict:
    """A program's or cone row's fields under their JSON keys, arrays as lists."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        out[_JSON_KEYS.get(f.name, f.name)] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def _field_args(cls, data: dict) -> dict:
    """Constructor arguments of ``cls`` from the JSON keys present in ``data``."""
    keys = ((f.name, _JSON_KEYS.get(f.name, f.name)) for f in fields(cls))
    return {name: data[key] for name, key in keys if key in data}


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise DomainError("solver tol must be positive and finite", "tol")
        if self.max_iter < 1:
            raise DomainError("solver max_iter must be >= 1", "max_iter")


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
# Stacked rows and Nesterov-Todd scaling
# ---------------------------------------------------------------------------


class _Cones:
    """Second-order-cone blocks (t; z), t >= ||z||, laid end to end.

    ``starts`` holds each head's offset. A per-cone quantity is a segment sum
    (``np.add.reduceat``) and goes back onto the rows by ``spread``, so no
    step walks the cones in Python. ``sign`` is J = diag(1, -I) per block.
    """

    def __init__(self, starts: np.ndarray, size: int):
        self.starts = starts
        self.sizes = np.diff(np.append(starts, size))
        self.sign = np.full(size, -1.0)
        self.sign[starts] = 1.0

    def spread(self, per_cone: np.ndarray) -> np.ndarray:
        return per_cone.repeat(self.sizes)

    def tail_dot(self, u, v) -> np.ndarray:
        """u1'v1 per cone, the heads left out."""
        prod = u * v
        prod[self.starts] = 0.0
        return np.add.reduceat(prod, self.starts)

    def det(self, v) -> np.ndarray:
        """v0^2 - ||v1||^2 per cone, as (v0 - ||v1||)(v0 + ||v1||)."""
        norm = np.sqrt(self.tail_dot(v, v))
        head = v[self.starts]
        return (head - norm) * (head + norm)

    def interior(self, v) -> bool:
        return bool(np.minimum.reduce(v[self.starts] - np.sqrt(self.tail_dot(v, v))) > 0.0)

    def inverse(self, v) -> np.ndarray:
        """The Jordan inverse J v / det(v), for v inside the cones."""
        return self.sign * v / self.spread(self.det(v))

    def eig_min(self, v, dv, det) -> np.ndarray:
        """Per cone, the smaller eigenvalue l of dv scaled by v^(-1/2), for v
        inside the cone with ``det(v)`` = det. det(v + a dv) =
        det(v) (1 + a l1)(1 + a l2), so the mean and product of l1 and l2 are
        that quadratic's coefficients over det(v)."""
        head, dhead = v[self.starts], dv[self.starts]
        mean = (head * dhead - self.tail_dot(v, dv)) / det
        prod = (dhead * dhead - self.tail_dot(dv, dv)) / det
        return mean - np.sqrt(np.maximum(mean * mean - prod, 0.0))


class _Scaling:
    """Nesterov-Todd scaling of the cone blocks at (s, z) inside them.

    W = beta H(w), with H(w) the hyperbolic rotation taking e = (1; 0) to w,
    w'Jw = 1, maps z and s to one point lam = W z = W^{-1} s. Per block
    W^{-2} = beta^{-2} (2 (J w)(J w)' - J) = diag(D) + g g'.
    """

    def __init__(self, cones: _Cones, s, z, s_det, z_det):
        self.cones = cones
        s_norm, z_norm = np.sqrt(s_det), np.sqrt(z_det)
        s_bar, z_bar = s / cones.spread(s_norm), z / cones.spread(z_norm)
        gamma = np.sqrt(0.5 + 0.5 * np.add.reduceat(s_bar * z_bar, cones.starts))
        self.w = (s_bar + cones.sign * z_bar) / cones.spread(2.0 * gamma)
        self.beta = cones.spread(np.sqrt(s_norm / z_norm))
        self.D = -cones.sign / (self.beta * self.beta)
        self.g = math.sqrt(2.0) * cones.sign * self.w / self.beta
        self.lam = self.scale(z, 1.0)
        self.lam_det = s_norm * z_norm

    def scale(self, v, power: float) -> np.ndarray:
        """W v (power 1) or W^{-1} v (power -1); W^{-1} = beta^{-2} J W J."""
        cones, heads = self.cones, self.cones.starts
        w0, v0 = self.w[heads], v[heads]
        dot = cones.tail_dot(self.w, v)
        out = v + cones.spread(power * v0 + dot / (1.0 + w0)) * self.w
        out[heads] = w0 * v0 + power * dot
        return out * self.beta if power > 0.0 else out / self.beta

    def rank_one(self, v) -> np.ndarray:
        return self.g * self.cones.spread(np.add.reduceat(self.g * v, self.cones.starts))

    def gram(self, rows: np.ndarray) -> np.ndarray:
        """G'G, G holding one row g' rows per block: the rank-one part of rows' W^{-2} rows."""
        G = np.add.reduceat(self.g[:, None] * rows, self.cones.starts)
        return G.T @ G

    def corrector(self, z, ds, target: float) -> np.ndarray:
        """W^{-1} (lam \\ (lam o lam + ds~ o dz~ - target e)), o the Jordan
        product, for the predictor's scaled steps ds~ = W^{-1} ds and
        dz~ = W dz = -lam - ds~. W^{-1} lam = z, so this is z plus the
        correction."""
        cones, heads, lam = self.cones, self.cones.starts, self.lam
        ds_s = self.scale(ds, -1.0)
        dz_s = -lam - ds_s
        r = cones.spread(ds_s[heads]) * dz_s + cones.spread(dz_s[heads]) * ds_s
        r[heads] = np.add.reduceat(ds_s * dz_s, heads) - target
        # u = lam \ r solves lam o u = r: u0 = (lam0 r0 - lam1'r1) / det(lam), u1 = (r1 - u0 lam1) / lam0.
        lam0 = lam[heads]
        u0 = (lam0 * r[heads] - cones.tail_dot(lam, r)) / self.lam_det
        u = (r - cones.spread(u0) * lam) / cones.spread(lam0)
        u[heads] = u0
        return z + self.scale(u, -1.0)


class _Stack:
    """The stacked rows of ``_canonical`` with slacks s = rhs - rows @ x: m
    linear rows, then the cone blocks (``_Cones``, None without any)."""

    def __init__(self, rows: np.ndarray, rhs: np.ndarray, m: int, starts: np.ndarray):
        self.rows = rows
        self.rhs = rhs
        self.m = m
        self.cones = _Cones(starts, rows.shape[0] - m) if starts.size else None
        self.degree = m + starts.size  # mu = s'z / degree

    def slacks(self, x: np.ndarray) -> np.ndarray:
        return self.rhs - self.rows @ x

    def interior(self, slacks) -> bool:
        m = self.m
        inside = bool(np.minimum.reduce(slacks[:m], initial=math.inf) > 0.0)
        return inside and (self.cones is None or self.cones.interior(slacks[m:]))

    def to_boundary(self, v, dv, det) -> float:
        """Largest a with v + a dv in the cones, for v inside them with cone
        determinants ``det`` (None without cones), inf when no row limits it:
        from one pass over dv / v on the linear rows rather than a masked copy
        of the decreasing entries, and each cone's ``eig_min``."""
        m = self.m
        worst = float(np.minimum.reduce(dv[:m] / v[:m], initial=0.0))
        if self.cones is not None:
            worst = min(worst, float(self.cones.eig_min(v[m:], dv[m:], det).min()))
        return -1.0 / worst if worst < 0.0 else math.inf


def _canonical(program: ConicProgram):
    """The stacked (rows, rhs, m, starts) of ``_Stack``: linear rows first (a
    degenerate cone, lam = 0 or a zero deviation map, is an affine row with
    the constant offset lam ||(v ; sqrt(s))||), then each genuine cone's block
    of head row a', -lam L' rows and, when s > 0, a zero row with right-hand
    side lam sqrt(s), so its slacks are (t; z) with t >= ||z||."""
    d = program.d
    lin_rows = [program.A_u]
    lin_rhs = [program.b_u]
    cone_rows, cone_rhs, starts = [], [], []
    offset = 0
    for row in program.soc:
        has_map = row.L.size > 0 and bool(np.any(row.L))
        if row.lam == 0.0 or not has_map:
            lin_rows.append(row.a.reshape(1, -1))
            lin_rhs.append(np.array([row.h - row.b - row.lam * math.sqrt(float(row.v @ row.v) + row.s)]))
            continue
        starts.append(offset)
        cone_rows += [row.a.reshape(1, -1), -(row.lam * row.L.T)]
        cone_rhs += [np.array([row.h - row.b]), row.lam * row.v]
        offset += 1 + row.L.shape[1]
        if row.s > 0.0:
            cone_rows.append(np.zeros((1, d)))
            cone_rhs.append(np.array([row.lam * math.sqrt(row.s)]))
            offset += 1
    m = sum(block.shape[0] for block in lin_rows)
    rows = np.vstack(lin_rows + cone_rows)
    rhs = np.concatenate(lin_rhs + cone_rhs)
    return rows, rhs, m, np.array(starts, dtype=np.intp)


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


# ---------------------------------------------------------------------------
# The primal-dual method and its phases
# ---------------------------------------------------------------------------


def _primal_dual(program: ConicProgram, stack: _Stack, x, t_bar, budget, tol, early_exit=None):
    """Mehrotra predictor-corrector from a strictly feasible x.

    The slacks s = rhs - rows x start with duals z on the central path at
    mu = 1 / t: s z = mu on the linear rows, s o z = mu e on each cone block
    (o the Jordan product, e = (1; 0)). Each iteration scales the cone blocks
    (``_Scaling``), factors H = P + rows' W^{-2} rows, which is
    P + rows' diag(D) rows + G'G, once and solves twice: the affine
    direction, then the direction aimed at sigma mu, sigma = (mu_aff / mu)^3,
    with the second-order correction, the predictor's ds o dz. Steps go 0.99
    of the way to the boundary, and are equal in x and z when P != 0, so the
    dual residual shrinks with the step. A primal iterate is accepted only
    once one direct product rhs - rows x shows it strictly feasible; until
    then the primal step is halved. Stops when s'z <= tol max(1, |f(x)|) and
    ||P x + c + rows'z||_inf <= tol max(1, ||P x + c||_inf).

    Returns (x, flag, gap, dual residual) with flag "optimal", "budget" or
    "numfail", or "early" (with the previous iterate's gap and residual) as
    soon as an accepted iterate satisfies ``early_exit``. An affine direction
    d with P d = 0, -rows d in the cones and c'd < 0 proves the objective
    unbounded below; it ends as "numfail", with d in the diagnostic.
    """
    P, c, A, m, cones = program.P, program.c, stack.rows, stack.m, stack.cones
    coupled = bool(P.any())
    s = stack.slacks(x)
    z = 1.0 / (t_bar * s[:m])
    if cones is not None:
        z = np.concatenate([z, cones.inverse(s[m:]) / t_bar])
    while True:
        Pxc = P @ x + c
        r_d = Pxc + A.T @ z
        gap = float(s @ z)
        dual = float(np.abs(r_d).max())
        if dual <= tol * max(1.0, float(np.abs(Pxc).max())) and gap <= tol * max(1.0, abs(program.objective(x))):
            return x, "optimal", gap, dual
        if budget.exhausted:
            return x, "budget", gap, dual
        w = z[:m] / s[:m]
        s_det = z_det = None
        if cones is not None:
            s_det, z_det = cones.det(s[m:]), cones.det(z[m:])
            if not (s_det.min() > 0.0 and z_det.min() > 0.0):
                budget.diagnostic = "a cone's slacks or duals reached its boundary in floating point"
                return x, "numfail", gap, dual
            nt = _Scaling(cones, s[m:], z[m:], s_det, z_det)
            w = np.concatenate([w, nt.D])
        H = P + (A * w[:, None]).T @ A
        if cones is not None:
            H += nt.gram(A[m:])
        factor = _cholesky(H)
        if factor is None:
            budget.diagnostic = _conditioning_diag(H)
            return x, "numfail", gap, dual
        budget.spent += 1
        # Predictor: the affine direction, aimed at s z = 0.
        dx = lapack.dpotrs(factor, -Pxc, lower=1)[0]
        ds = A @ -dx
        dz = -z - w * ds
        if cones is not None:
            dz[m:] -= nt.rank_one(ds[m:])
        reach = stack.to_boundary(s, ds, s_det)
        if reach == math.inf and c @ dx < 0.0 and not (P @ dx).any():
            d = dx / np.abs(dx).max() + 0.0  # + 0.0 turns -0.0 into 0.0
            budget.diagnostic = (
                f"objective unbounded below along d = {json.dumps(d.tolist())}: "
                f"P d = 0, -rows d in the cone, c'd = {float(c @ d):.6e} < 0"
            )
            return x, "numfail", gap, dual
        a_p, a_d = min(1.0, reach), min(1.0, stack.to_boundary(z, dz, z_det))
        if coupled:
            a_p = a_d = min(a_p, a_d)
        sigma = (float((s + a_p * ds) @ (z + a_d * dz)) / gap) ** 3  # (mu_aff / mu)^3
        # Corrector: aimed at s z = sigma mu, less the predictor's product ds dz.
        target = sigma * gap / stack.degree
        r_c = s[:m] * z[:m] + ds[:m] * dz[:m] - target
        y = r_c / s[:m]
        if cones is not None:
            y = np.concatenate([y, nt.corrector(z[m:], ds[m:], target)])
        dx = lapack.dpotrs(factor, A.T @ y - r_d, lower=1)[0]
        ds = A @ -dx
        dz = (-r_c - z[:m] * ds[:m]) / s[:m]
        if cones is not None:
            dz = np.concatenate([dz, -y[m:] - nt.D * ds[m:] - nt.rank_one(ds[m:])])
        a_p = min(1.0, 0.99 * stack.to_boundary(s, ds, s_det))
        a_d = min(1.0, 0.99 * stack.to_boundary(z, dz, z_det))
        if coupled:
            a_p = a_d = min(a_p, a_d)
        for _ in range(_LS_CAP):
            xn = x + a_p * dx
            direct = stack.slacks(xn)
            if stack.interior(direct):
                x, s = xn, direct
                if early_exit is not None and early_exit(x):
                    return x, "early", gap, dual
                break
            a_p *= 0.5
        if coupled:
            a_d = min(a_d, a_p)
        z = z + a_d * dz


class _Sigma:
    """Phase 1's objective, the last coordinate sigma, with the P, c and
    ``objective`` that ``_primal_dual`` reads from a program."""

    def __init__(self, width: int):
        self.P = np.zeros((width, width))
        self.c = np.zeros(width)
        self.c[-1] = 1.0

    @staticmethod
    def objective(ext: np.ndarray) -> float:
        return float(ext[-1])


def _phase1(program: ConicProgram, canon, opts, budget, x_hint):
    """Find a strictly feasible point or evidence that none exists.

    ``_primal_dual`` minimizes sigma over (x, sigma) with every margin pushed
    below sigma: the sigma column holds -1 on the linear rows and cone heads,
    and two rows follow the linear ones, sigma >= -cap and
    sigma <= sigma0 + 1 + 0.1 scale. The latter is strictly slack at the
    start and inactive near the optimum; it keeps the first, uncentred
    directions from driving sigma far up. The search returns at the first
    accepted iterate with sigma <= -feas_margin. At the optimum, sigma - s'z
    lower-bounds the least worst margin, so a positive bound above the
    tolerance declares infeasibility; otherwise the point goes on to phase 2
    if its direct margins are all negative, and else the search goes on once
    at tol / 1000 before it declares infeasibility.
    Returns (x, None) on success or (None, (status, diagnostic)) on failure.
    """
    d = program.d
    g0 = program.margin_values(x_hint)
    gmax0 = float(g0.max()) if g0.size else -1.0
    if gmax0 < 0.0:
        return x_hint.copy(), None
    scale = max(1.0, abs(gmax0))
    sigma0 = gmax0 + 1.0 + 0.1 * scale
    feas_margin = max(opts.tol, 1e-9) * scale

    rows, rhs, m, starts = canon
    m1 = m + 2
    rows1 = np.zeros((rows.shape[0] + 2, d + 1))
    rows1[:m, :d] = rows[:m]
    rows1[m1:, :d] = rows[m:]
    rows1[: m + 1, d] = -1.0
    rows1[m + 1, d] = 1.0
    rows1[m1 + starts, d] = -1.0
    caps = [abs(sigma0) + 100.0 * scale, sigma0 + 1.0 + 0.1 * scale]
    stack = _Stack(rows1, np.concatenate([rhs[:m], caps, rhs[m:]]), m1, starts)
    t_bar = stack.degree / max(1.0, abs(sigma0))

    def early(pt):
        return pt[d] <= -feas_margin

    ext = np.append(x_hint, sigma0)
    for tol in (opts.tol, 1e-3 * opts.tol):
        ext, flag, gap, _ = _primal_dual(_Sigma(d + 1), stack, ext, t_bar, budget, tol, early_exit=early)
        x = ext[:d].copy()
        if flag == "early":
            return x, None
        if flag == "budget":
            return None, (STATUS_ITERATION_LIMIT, "iteration budget exhausted in phase 1")
        if flag == "numfail":
            return None, (STATUS_NUMERICAL_FAILURE, f"phase 1: {budget.diagnostic}")
        bound = float(ext[d]) - gap
        if bound > opts.tol * scale:
            return None, (STATUS_INFEASIBLE, f"{_violation_diag(program, x)}; phase-1 bound sigma - s'z = {bound:.6e} > 0")
        if program.margin_values(x).max() < 0.0:
            return x, None
        # Neither a positive bound nor a strictly feasible point: the sign of
        # the least worst margin is open, so go on from here once, at a 1000
        # times smaller tolerance.
        t_bar = stack.degree / gap
    return None, (STATUS_INFEASIBLE, _violation_diag(program, x))


def _violation_diag(program: ConicProgram, x: np.ndarray) -> str:
    vals, labels = program.margins(x)
    if not vals.size:
        return "no constraints"
    idx = int(np.argmax(vals))
    kind, pos = labels[idx]
    return f"most violated constraint at least-infeasible point: {kind}[{pos}] margin {vals[idx]:.6e}"


def solve(program: ConicProgram, opts: SolverOptions | None = None, x_hint: np.ndarray | None = None) -> SolverOutcome:
    """Solve the program to relative tolerance ``opts.tol``.

    On "optimal" the returned point is strictly feasible, the relative
    duality gap s'z is at most tol and ``dual_residual`` meets the bound in
    the module docstring. "infeasible" carries a diagnostic naming the most
    violated constraint at the least-infeasible point found, and the bound
    sigma - s'z when phase 1 ends at its optimum. A program whose objective
    is unbounded below ends "numerical_failure" with a recession direction
    in its diagnostic.
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
        status, diag = failure
        return done(status, None, diag)

    stack = _Stack(*canon)
    t_bar = min(max(stack.degree / max(1.0, abs(program.objective(x0))), 1e-8), 1e8)
    x, flag, gap, dual = _primal_dual(program, stack, x0, t_bar, budget, opts.tol)
    if flag == "numfail":
        return done(STATUS_NUMERICAL_FAILURE, x, f"phase 2: {budget.diagnostic}")
    if flag == "budget":
        return done(STATUS_ITERATION_LIMIT, x, "iteration budget exhausted in phase 2", gap=gap, dual=dual)
    return done(STATUS_OPTIMAL, x, gap=gap, dual=dual)
