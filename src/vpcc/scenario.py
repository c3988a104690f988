"""Scenario baseline: impose the constraints on sampled trajectories.

Draw N_S independent realisations of the horizon's state matrices, require
every constraint row on every sampled trajectory (each such row is affine
in the stacked input once the matrices are fixed), and solve the single
resulting convex program, which keeps the tightest row per coefficient
vector and so has the feasible set of all sampled rows. With

    N_S >= (2 / alpha) (ln(1 / beta) + 2)

samples, any solution satisfies the chance constraint at level alpha with
confidence 1 - beta. The sample count uses the ceiling of the bound; when
the ceiling differs from the floor the report notes both values, since the
bound is often quoted rounded down. The ``+ 2`` is Calafiore and Campi's
decision dimension d = N * m (IEEE TAC 2006) at its two-bus value N = 1,
m = 2; any larger d needs more samples than this bound gives, and the report
then notes d and the count that ``(2/alpha)(ln(1/beta) + d)`` requires.

Scenarios are drawn in Monte-Carlo certification's batches, by the stream
rule stated in ``vpcc.stochastics``: one draw plan of the whole horizon is
filled per batch, and each entry is transformed across the batch at once, so
scenario s of a seed is trajectory s of an MC run on that seed.

Rows that no sample changes are built once. The state map's x0 and input
parts are each one array shared by every scenario until a random entry of
A(t) meets a nonzero row of it (the rule MC certification applies to its
state), and a step whose coefficients are still shared adds one row per
constraint, with its smallest right-hand side over the sample. The two-bus
case (N = 1) so hands its sort 2 shared rows where it would otherwise sort
one per scenario and constraint; the kept program, its rows and their order
are the same either way.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import conic
from .acs import Cost
from .conic import ConicProgram
from .errors import DomainError
from .moments import SystemSpec
from .report import STATUS_OPTIMAL, SolveReport, report_status
from .stochastics import DrawPlan, batch_streams


@dataclass(frozen=True)
class ScenarioConfig:
    """Sampling options; the violation level comes from the row set solved."""

    beta: float = 0.001
    sample_count: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise DomainError(f"beta must lie in (0, 1), got {self.beta!r}", "beta")
        if self.sample_count is not None and self.sample_count < 1:
            raise DomainError("explicit sample_count must be >= 1", "sample_count")


def required_samples(alpha: float, beta: float, d: int = 2) -> int:
    """Smallest integer satisfying N_S >= (2/alpha)(ln(1/beta) + d), for
    decision dimension d (2 in the two-bus case).

    alpha = 1 is admitted for the bare formula even though a RowSet keeps
    its violation level strictly inside (0, 1).
    """
    if not (0.0 < alpha <= 1.0) or not (0.0 < beta < 1.0):
        raise DomainError("need 0 < alpha <= 1 and 0 < beta < 1")
    return int(math.ceil((2.0 / alpha) * (math.log(1.0 / beta) + d)))


def sample_count_note(alpha: float, beta: float) -> str:
    bound = (2.0 / alpha) * (math.log(1.0 / beta) + 2.0)
    ceiled = int(math.ceil(bound))
    floored = int(math.floor(bound))
    if ceiled != floored:
        return (
            f"sample bound (2/alpha)(ln(1/beta)+2) = {bound:.6f}; using ceil = {ceiled} "
            f"(rounding down would give {floored})"
        )
    return f"sample bound (2/alpha)(ln(1/beta)+2) = {bound:.6f} is integral; using {ceiled}"


def sample_state_matrices(spec: SystemSpec, seed: int, count: int) -> np.ndarray:
    """(count, N, n, n) realisations drawn batch by batch by the stream rule
    of ``vpcc.stochastics``: one whole-horizon plan fill per batch and one
    transform per random entry and batch."""
    out = np.empty((count, spec.horizon, spec.n, spec.n))
    out[:] = [model.mean_matrix for model in spec.a_models]
    plan = DrawPlan.of(spec.a_models)
    start = 0
    for rng, size in batch_streams(seed, count):
        draws = plan.fill(rng, np.empty((plan.width, size)))
        batch = out[start : start + size]
        for t, i, j, dist, first in plan.entries:
            batch[:, t, i, j] = dist.transform(draws[first : first + len(dist.draws)])
        start += size
    return out


def _scenario_rows(spec: SystemSpec, matrices: np.ndarray, rows) -> list[tuple[np.ndarray, np.ndarray]]:
    """Affine constraint rows in the stacked input: one (coefficients, rhs)
    block per step that has rows, rhs (count, r) and coefficients (count, r, d),
    or (r, d) when every scenario shares them.

    Per scenario the state is x(k) = Phi_k x0 + R_k U with
    Phi_k = A(k-1) Phi_{k-1} and R_k = A(k-1) R_{k-1} + (injection of B into
    the u(k-1) block), so each constraint row pulls one row out of R_k. Phi
    and R each stay one array shared by every scenario, advanced by A(t)'s
    mean matrix, until a random entry of A(t) meets a nonzero row of it:
    till then that entry only multiplies zeros, and every scenario's product
    is the mean's. From there the scenarios advance together as stacked
    matrix products, whose per-scenario BLAS calls are the ones a single
    scenario would make. A shared block equals every scenario's rows, so
    the program kept from the blocks is the one kept from every sampled
    row. A row outside steps 1..N is refused.
    """
    n, m, N = spec.n, spec.m, spec.horizon
    count = matrices.shape[0]

    def advance(part, t):
        """A(t) part, over the mean matrix while every scenario shares it."""
        model = spec.a_models[t]
        if part.ndim == 3 or model.random_mask[:, part.any(axis=1)].any():
            return matrices[:, t] @ part
        return model.mean_matrix @ part

    phi, reach = spec.x0[:, None], np.zeros((n, N * m))
    blocks = []
    t = 0
    for k, G, h in spec.rows_by_step(rows):
        for t in range(t, k):
            phi, reach = advance(phi, t), advance(reach, t)
            reach[..., t * m : (t + 1) * m] += spec.B
        t = k
        blocks.append((G @ reach, np.broadcast_to(h - (G @ phi)[..., 0], (count, len(h)))))
    return blocks


def _distinct_rows(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``np.unique(A, axis=0)``, each with its smallest right-hand
    side in ``b``: for equal a and b1 <= b2, {a'x <= b1} lies inside
    {a'x <= b2}, so the feasible set is unchanged. One lexsort, b the last key."""
    order = np.lexsort((b, *A.T[::-1]))
    A, b = A[order], b[order]
    keep = np.ones(A.shape[0], dtype=bool)
    keep[1:] = (A[1:] != A[:-1]).any(axis=1)
    return A[keep], b[keep]


def solve_scenario(
    spec: SystemSpec,
    jcc,
    cost: Cost,
    sc: ScenarioConfig,
    solver_opts: conic.SolverOptions | None = None,
) -> SolveReport:
    """Sample, assemble, solve; the report's wall time covers all three.

    ``jcc`` needs ``rows`` and ``alpha``; a row outside steps 1..N is
    refused, and its alpha alone sets the sample count and the reported
    level. Identical seeds give bitwise identical constraint matrices and
    hence identical solutions. The program keeps the tightest row per
    coefficient vector; the feasible set is unchanged; no tolerance-based
    pruning, since the guarantee counts samples. A block of coefficients
    every scenario shares enters as one row per constraint with its
    smallest right-hand side, which is the row the sort would keep of its
    copies, so the program is the one built from every sampled row. The
    report's ``inputs`` stay None; ``vpcc.cli`` sets them to the config it
    solved.
    """
    start = time.perf_counter()
    alpha = float(jcc.alpha)
    n_s = sc.sample_count if sc.sample_count is not None else required_samples(alpha, sc.beta)
    notes = [sample_count_note(alpha, sc.beta)] if sc.sample_count is None else []
    if spec.input_dim > 2:
        notes.append(
            f"decision dimension d = N*m = {spec.input_dim}: (2/alpha)(ln(1/beta)+d) requires "
            f"{required_samples(alpha, sc.beta, spec.input_dim)} samples; {n_s} were drawn"
        )

    matrices = sample_state_matrices(spec, sc.rng_seed, n_s)
    blocks = _scenario_rows(spec, matrices, jcc.rows)
    coef = [c.reshape(-1, spec.input_dim) for c, _ in blocks]
    rhs = [r.min(axis=0) if c.ndim == 2 else r.reshape(-1) for c, r in blocks]
    A_poly, b_poly = spec.stacked_polytope()
    A_all, b_all = _distinct_rows(np.vstack([*coef, A_poly]), np.concatenate([*rhs, b_poly]))

    P, c = cost.stacked()
    program = ConicProgram(P=P, c=c, A_u=A_all, b_u=b_all)
    outcome = conic.solve(program, solver_opts)

    report = SolveReport(
        method="scenario",
        status=report_status(outcome.status),
        alpha=alpha,
        sample_count=n_s,
        seed=sc.rng_seed,
        notes=notes,
        wall_time_ms=(time.perf_counter() - start) * 1e3,
    )
    if outcome.x is not None and outcome.status == STATUS_OPTIMAL:
        report.U = outcome.x.reshape(spec.horizon, spec.m).tolist()
        report.objective = cost.value(outcome.x)
        report.objective_per_step = cost.per_step_values(outcome.x)
    elif outcome.diagnostic:
        report.notes.append(outcome.diagnostic)
    return report
