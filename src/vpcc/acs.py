"""Alternating convex search over (input sequence, risk multipliers).

The reformulated system couples the stacked input U to the multipliers
lam through E_i(U) + lam_i * Std_i(U) <= h_i together with the budget
sum VP.risk(lam_i) <= alpha; ``reformulate.VP``, the tail-bound record,
gives each row's risk, its inverse and slope, and the multiplier floor.
Each slice is convex: for fixed multipliers the input step is a
quadratic-objective SOCP, and for a fixed input the multipliers can be
retightened row by row in closed form. The search alternates the two until
the objective settles; any iterate is a certified conservative solution, so
a budget-limited run can still return its best feasible iterate.

Multiplier step policies:

``tight``
    lam_i = (h_i - E_i(U)) / Std_i(U), the largest multiplier the current
    input supports, which carries the minimal total risk. Rows whose margin
    is deterministic take an infinite sentinel and zero risk.

``uniform-relax`` (default)
    after tightening, surplus budget alpha - sum(risk) is redistributed by
    scaling every row risk proportionally (capped at VP.risk_cap so
    multipliers stay at or above VP.floor). Lower multipliers loosen the
    next input step while the budget stays exactly met.

Both policies start from one tightening pass (``tighten``), which also
feeds the restoration below: it gives every row's tight multiplier, ratio
(h_i - E_i(U)) / Std_i(U) and Std at U, and the rows U cannot certify.

The search always starts from the uniform-risk split, alpha / (number of
rows) per row (``init_lambdas``). That allocation can be infeasible even
when the problem is not (tight budgets want very uneven allocations). When
the first input step fails, a restoration phase runs. It first solves the
root relaxation, the input program with every row at VP.lam(alpha): every
admissible row risk is at most alpha, so no admissible multiplier is
smaller, and an infeasible relaxation proves the problem infeasible. From
the relaxation's input at most 30 rounds of convex risk descent (margin
minimisation, each row weighted by VP.slope / Std) run until the tightened
allocation fits the budget. If the minimal found risk still exceeds alpha
the run reports infeasibility.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import conic
from .conic import ConicProgram, SocRow, SolverOptions, SolverOutcome
from .errors import AllocationInfeasible, DomainError
from .moments import SystemSpec
from .reformulate import (
    LAMBDA_MAX,
    STD_ZERO,
    VP,
    JointChanceConstraint,
    ReformulatedConstraint,
    RiskAllocation,
    build_reformulation,
    check_feasibility,
)
from .report import (
    STATUS_ERROR,
    STATUS_INFEASIBLE,
    STATUS_ITERATION_LIMIT,
    STATUS_OPTIMAL,
    SolveReport,
    report_status,
)

_DETERMINISTIC_SLACK = 1e-9
_RESTORATION_ROUNDS = 30  # risk-descent rounds at most


@dataclass(frozen=True)
class Cost:
    """Per-step quadratic cost sum u(k)' R_k u(k) + r_k' u(k)."""

    quadratic: tuple
    linear: tuple

    def __post_init__(self):
        quads = tuple(np.asarray(Rk, dtype=float) for Rk in self.quadratic)
        lins = tuple(np.asarray(rk, dtype=float) for rk in self.linear)
        if len(quads) != len(lins) or not quads:
            raise DomainError("cost needs matching, nonempty per-step terms")
        m = lins[0].shape[0]
        for Rk, rk in zip(quads, lins):
            if Rk.shape != (m, m) or rk.shape != (m,):
                raise DomainError("cost term dimensions are inconsistent")
        object.__setattr__(self, "quadratic", quads)
        object.__setattr__(self, "linear", lins)

    @classmethod
    def repeated(cls, R, r, horizon: int) -> "Cost":
        return cls(tuple([R] * horizon), tuple([r] * horizon))

    @property
    def horizon(self) -> int:
        return len(self.quadratic)

    @property
    def m(self) -> int:
        return self.linear[0].shape[0]

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, c) with the solver's 0.5 x'Px convention, so P = 2 blkdiag(R_k)."""
        m, N = self.m, self.horizon
        P = np.zeros((N * m, N * m))
        c = np.zeros(N * m)
        for k in range(N):
            P[k * m : (k + 1) * m, k * m : (k + 1) * m] = 2.0 * self.quadratic[k]
            c[k * m : (k + 1) * m] = self.linear[k]
        return P, c

    def per_step_values(self, U: np.ndarray) -> list[float]:
        U = np.asarray(U, dtype=float).reshape(self.horizon, self.m)
        return [float(u @ Rk @ u + rk @ u) for u, Rk, rk in zip(U, self.quadratic, self.linear)]

    def value(self, U: np.ndarray) -> float:
        return float(sum(self.per_step_values(U)))


@dataclass(frozen=True)
class AcsConfig:
    lambda_step_policy: str = "uniform-relax"
    max_outer_iters: int = 50
    convergence_rel_tol: float = 1e-6
    solver: SolverOptions = field(default_factory=SolverOptions)
    restoration: bool = True

    def __post_init__(self):
        if self.lambda_step_policy not in ("tight", "uniform-relax"):
            raise DomainError(f"unknown multiplier step policy {self.lambda_step_policy!r}", "lambda_step_policy")
        if self.max_outer_iters < 1:
            raise DomainError("max_outer_iters must be >= 1", "max_outer_iters")
        if not 0 < self.convergence_rel_tol < math.inf:
            raise DomainError("convergence_rel_tol must be positive and finite", "convergence_rel_tol")


# ---------------------------------------------------------------------------
# Allocation steps
# ---------------------------------------------------------------------------


def init_lambdas(jcc: JointChanceConstraint) -> RiskAllocation:
    """Initial allocation: alpha split evenly over all rows."""
    lam = _multiplier(jcc.alpha / len(jcc.rows))
    return RiskAllocation(jcc.alpha, {row.id: lam for row in jcc.rows})


def _multiplier(risk: float) -> float:
    """The multiplier of one row risk, capped at VP.risk_cap so that it stays
    at or above VP.floor (VP.lam(VP.risk_cap) is VP.floor exactly)."""
    return VP.lam(min(risk, VP.risk_cap))


def tighten(rows: list[ReformulatedConstraint], U: np.ndarray) -> tuple[dict, list, list, list]:
    """Closed-form tightening at a fixed input: (tight, ratios, stds, violated).

    ``tight`` maps every certifiable row to the largest multiplier U
    supports, (h - E) / Std capped at LAMBDA_MAX; a structurally
    deterministic row takes math.inf (zero risk) and a random row whose
    deviation vanishes at U takes LAMBDA_MAX, a finite cap that keeps the
    next input step sound. ``ratios`` and ``stds`` give every row's
    (h - E) / Std (math.inf where Std vanishes) and Std in row order.
    ``violated`` lists the rows U cannot certify: a margin that fails
    outright or a ratio that VP does not admit.
    """
    tight: dict[str, float] = {}
    ratios, stds, violated = [], [], []
    for rc in rows:
        mean = rc.mean(U)
        std = rc.std(U)
        stds.append(std)
        deterministic = rc.moments.structurally_deterministic
        if deterministic or std <= STD_ZERO:
            ratios.append(math.inf)
            if mean <= rc.h + _DETERMINISTIC_SLACK * max(1.0, abs(rc.h)):
                tight[rc.id] = math.inf if deterministic else LAMBDA_MAX
            else:
                violated.append(rc.id)
            continue
        ratio = (rc.h - mean) / std
        ratios.append(ratio)
        if not VP.admits(ratio):
            violated.append(rc.id)
        else:
            tight[rc.id] = min(ratio, LAMBDA_MAX)
    return tight, ratios, stds, violated


def lambda_step(
    rows: list[ReformulatedConstraint],
    U: np.ndarray,
    alpha: float,
    policy: str = "uniform-relax",
) -> RiskAllocation:
    """Retighten multipliers for a fixed input, then optionally relax.

    Raises AllocationInfeasible when the input cannot be certified: a row
    margin fails outright, a tight multiplier falls below VP.floor, or the
    tightened risks already exceed the budget.
    """
    tight, _, _, violated = tighten(rows, U)
    alloc = RiskAllocation(alpha, tight)
    risk_sum = alloc.risk_sum
    if violated:
        raise AllocationInfeasible(f"rows cannot be certified at this input: {', '.join(violated)}")
    if risk_sum > alpha * (1.0 + 1e-12):
        raise AllocationInfeasible(f"tightened risk sum {risk_sum:.6g} exceeds budget {alpha:.6g}")
    if policy == "tight" or risk_sum == 0.0:
        return alloc

    scale = alpha / risk_sum
    if scale <= 1.0:
        return alloc
    relaxed = {
        rid: lam if math.isinf(lam) else VP.lam(min(VP.risk(lam) * scale, VP.risk_cap)) for rid, lam in tight.items()
    }
    return RiskAllocation(alpha, relaxed)


# ---------------------------------------------------------------------------
# Input step
# ---------------------------------------------------------------------------


def _cone_row(rc: ReformulatedConstraint, lam: float, extra=(), deviation_only: bool = False) -> SocRow:
    """The row E(U) + lam * Std(U) <= h as a cone row.

    ``extra`` holds the mean coefficients of variables placed after the
    input (risk descent's epigraph columns); the deviation map gets zero
    rows for them. ``deviation_only`` drops the mean and the bound, leaving
    lam * Std(U) + extra' x <= 0. A
    structurally deterministic row takes multiplier 0: its deviation is
    identically zero, so the multiplier is moot, and normalising it keeps
    the program a pure function of the row.
    """
    m = rc.moments
    extra = np.asarray(extra, dtype=float)
    a = np.zeros_like(m.a) if deviation_only else m.a
    return SocRow(
        a=np.concatenate([a, extra]),
        b=0.0 if deviation_only else m.b,
        lam=0.0 if m.structurally_deterministic else lam,
        L=np.vstack([m.L, np.zeros((extra.size, m.L.shape[1]))]),
        v=m.v,
        s=m.s,
        h=0.0 if deviation_only else rc.h,
    )


def build_input_program(
    spec: SystemSpec,
    rows: list[ReformulatedConstraint],
    lambdas: RiskAllocation,
    cost: Cost,
) -> ConicProgram:
    """Fixed-multiplier input subproblem: cost over the input polytope plus
    one cone row E + lam * ||norm form|| <= h per constraint."""
    P, c = cost.stacked()
    A_u, b_u = spec.stacked_polytope()
    soc = []
    for rc in rows:
        lam = lambdas.lam(rc.id)
        if math.isinf(lam) and not rc.moments.structurally_deterministic:
            raise DomainError(f"row {rc.id}: infinite multiplier on a random row")
        soc.append(_cone_row(rc, lam))
    return ConicProgram(P=P, c=c, A_u=A_u, b_u=b_u, soc=tuple(soc))


def u_step(
    spec: SystemSpec,
    rows: list[ReformulatedConstraint],
    lambdas: RiskAllocation,
    cost: Cost,
    opts: SolverOptions | None = None,
) -> SolverOutcome:
    """Solve the fixed-multiplier input subproblem."""
    return conic.solve(build_input_program(spec, rows, lambdas, cost), opts)


# ---------------------------------------------------------------------------
# Feasibility restoration
# ---------------------------------------------------------------------------


def _risk_descent_program(spec, rows, ratios, weights, opts):
    """One convex risk-descent subproblem.

    Minimise sum_i w_i (E_i(U) + t_i * Std_i(U)) over the polytope
    intersected with the floor-multiplier rows; epigraph variables carry the
    deviation of rows whose Std depends on the input.
    """
    d = spec.input_dim
    A_u, b_u = spec.stacked_polytope()
    epis = [i for i, rc in enumerate(rows) if rc.moments.L.size > 0]
    dim = d + len(epis)
    pos = {i: slot for slot, i in enumerate(epis)}

    c = np.zeros(dim)
    for i, rc in enumerate(rows):
        c[:d] += weights[i] * rc.moments.a
        if i in pos:
            c[d + pos[i]] = weights[i] * ratios[i]

    A_ext = np.hstack([A_u, np.zeros((A_u.shape[0], len(epis)))])
    soc = []
    for i, rc in enumerate(rows):
        soc.append(_cone_row(rc, VP.floor, extra=np.zeros(len(epis))))
        if i in pos:
            # ||(L' U + v ; sqrt(s))|| <= tau_i
            tau = np.zeros(len(epis))
            tau[pos[i]] = -1.0
            soc.append(_cone_row(rc, 1.0, extra=tau, deviation_only=True))
    program = ConicProgram(P=np.zeros((dim, dim)), c=c, A_u=A_ext, b_u=b_u, soc=tuple(soc))
    return conic.solve(program, opts)


def _tight_risk(rows, U, alpha) -> tuple[float, list, list]:
    """(total tightened risk, ratios, stds) at U; the risk is math.inf when
    a row cannot be certified."""
    tight, ratios, stds, violated = tighten(rows, U)
    return (math.inf if violated else RiskAllocation(alpha, tight).risk_sum), ratios, stds


def _restore_allocation(spec, rows, alpha, U: np.ndarray, config: AcsConfig) -> tuple[RiskAllocation, str]:
    """Search for a certifiable allocation when uniform-risk init fails,
    starting from U, the root relaxation's input.

    Returns (allocation, note) or raises AllocationInfeasible with the best
    risk found. The risk descent is exact when row deviations do not depend
    on the input (margins affine) and a documented local heuristic
    otherwise.
    """
    d = spec.input_dim

    # Descend the tightened total risk to (a local) minimum before handing
    # over, so the relaxed allocation starts with maximal surplus budget.
    risk, ratios, stds = _tight_risk(rows, U, alpha)
    for rounds in range(1, _RESTORATION_ROUNDS + 1):
        clipped = [0.0 if math.isinf(t) else max(t, VP.floor) for t in ratios]
        weights = [
            0.0 if math.isinf(ratio) else VP.slope(t) / std
            for ratio, t, std in zip(ratios, clipped, stds)
        ]
        top = max(weights, default=0.0)
        if top <= 0.0:
            break
        sub = _risk_descent_program(spec, rows, clipped, [w / top for w in weights], config.solver)
        if sub.status != STATUS_OPTIMAL or sub.x is None:
            break
        U_new = sub.x[:d].copy()
        risk_new, ratios, stds = _tight_risk(rows, U_new, alpha)
        if not risk_new < risk - max(1e-12, 1e-9 * alpha):
            break
        risk, U = risk_new, U_new

    if risk > alpha:
        raise AllocationInfeasible(f"minimal certifiable risk found is {risk:.6g} > budget {alpha:.6g}")
    allocation = lambda_step(rows, U, alpha, policy=config.lambda_step_policy)
    note = f"restoration: uniform-risk start infeasible; recovered allocation in {rounds} descent round(s)"
    return allocation, note


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


def run(
    spec: SystemSpec,
    jcc: JointChanceConstraint,
    cost: Cost,
    config: AcsConfig | None = None,
) -> SolveReport:
    """Alternate input and multiplier steps until the objective settles.

    The caller attests the modelling assumptions (entry independence and
    marginal unimodality of every row); nothing here can verify them. The
    returned allocation is the one that produced the returned input, so the
    pair passes the feasibility check as-is and re-solving from it is a
    fixed point. The report's ``inputs`` stay None; ``vpcc.cli`` sets them to
    the config it solved.
    """
    config = config or AcsConfig()
    start = time.perf_counter()
    rows = build_reformulation(spec, jcc)
    random_ids = [rc.id for rc in rows if not rc.moments.structurally_deterministic]
    alloc = init_lambdas(jcc)
    trace: list[dict] = []
    notes: list[str] = []

    def finish(status, U=None, alloc_used=None, extra_note=None):
        if extra_note:
            notes.append(extra_note)
        report = SolveReport(
            method="proposed",
            status=status,
            alpha=jcc.alpha,
            trace=trace,
            notes=notes,
            wall_time_ms=(time.perf_counter() - start) * 1e3,
        )
        if U is not None:
            report.U = np.asarray(U).reshape(spec.horizon, spec.m).tolist()
            report.objective = cost.value(U)
            report.objective_per_step = cost.per_step_values(U)
        if alloc_used is not None:
            report.lambdas = dict(alloc_used.lambdas)
            report.risks = alloc_used.risks
            report.risk_sum = alloc_used.risk_sum
            if U is not None:
                report.feasibility = check_feasibility(rows, U, alloc_used).to_dict()
        return report

    def record(phase, iteration, outcome, step_start, objective=None, alloc=None):
        lambdas = None if alloc is None else {k: (v if math.isfinite(v) else "inf") for k, v in alloc.lambdas.items()}
        trace.append(
            {
                "iteration": iteration,
                "phase": phase,
                "objective": objective,
                "risk_sum": None if alloc is None else alloc.risk_sum,
                "lambdas": lambdas,
                "inner_status": outcome.status,
                "inner_iterations": outcome.iterations,
                "wall_time_ms": (time.perf_counter() - step_start) * 1e3,
            }
        )

    prev_objective = None
    best: tuple[float, np.ndarray, RiskAllocation] | None = None
    for iteration in range(1, config.max_outer_iters + 1):
        step_start = time.perf_counter()
        # No warm start: the solve must be a pure function of the program so
        # restarting from the reported allocation reproduces the input exactly.
        outcome = u_step(spec, rows, alloc, cost, config.solver)
        if outcome.status == STATUS_INFEASIBLE and iteration == 1 and config.restoration:
            # Restoration does not consume an outer iteration. It starts from
            # the root relaxation: every admissible row risk is at most alpha,
            # so no admissible multiplier is below lam, and an infeasible
            # relaxation proves the problem infeasible. Any other status that
            # is not optimal proves nothing and is reported as it is.
            lam = _multiplier(jcc.alpha)
            root = u_step(spec, rows, RiskAllocation(jcc.alpha, {rc.id: lam for rc in rows}), cost, config.solver)
            if root.status != STATUS_OPTIMAL:
                record("restoration", iteration, outcome, step_start)
                status = report_status(root.status)
                return finish(
                    status,
                    extra_note=f"{status}: root relaxation, every row at multiplier {lam:.6g} (no admissible"
                    f" multiplier is smaller), ended {root.status}: {root.diagnostic}",
                )
            try:
                alloc, note = _restore_allocation(spec, rows, jcc.alpha, root.x, config)
            except AllocationInfeasible as exc:
                record("restoration", iteration, outcome, step_start)
                return finish(STATUS_INFEASIBLE, extra_note=f"infeasible: {exc}")
            notes.append(note)
            step_start = time.perf_counter()
            outcome = u_step(spec, rows, alloc, cost, config.solver)
        if outcome.status != STATUS_OPTIMAL:
            if outcome.status != STATUS_INFEASIBLE:
                status, note = report_status(outcome.status), f"inner solver returned {outcome.status}"
            elif best is not None:
                status, note = STATUS_ERROR, f"input step failed at iteration {iteration}"
            else:
                status, note = STATUS_INFEASIBLE, f"infeasible at iteration {iteration}"
            return finish(status, *(best[1:] if best else ()), extra_note=f"{note}: {outcome.diagnostic}")

        U = outcome.x
        objective = cost.value(U)
        record("acs", iteration, outcome, step_start, objective, alloc)
        if best is None or objective <= best[0]:
            best = (objective, U.copy(), alloc)

        try:
            alloc_next = lambda_step(rows, U, jcc.alpha, policy=config.lambda_step_policy)
        except AllocationInfeasible as exc:
            return finish(STATUS_ERROR, U, alloc, extra_note=f"allocation step failed: {exc}")

        if prev_objective is not None and abs(objective - prev_objective) <= config.convergence_rel_tol * max(1.0, abs(prev_objective)):
            return finish(STATUS_OPTIMAL, U, alloc)
        if all(alloc_next.lam(i) == alloc.lam(i) for i in random_ids):
            # For fixed spec, rows and cost the input subproblem depends only
            # on these multipliers, so the next input step would reproduce U
            # exactly.
            return finish(STATUS_OPTIMAL, U, alloc)
        prev_objective = objective
        alloc = alloc_next

    notes.append("outer iteration limit reached; returning best feasible iterate")
    return finish(STATUS_ITERATION_LIMIT, best[1], best[2])
