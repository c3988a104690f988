"""Deterministic reformulation of joint chance constraints.

A joint requirement P(all G_ik x(k) <= h_ik) >= 1 - alpha is split row-wise
with Boole's inequality and each row's tail is bounded with the one-sided
Vysochanskij-Petunin inequality: for a unimodal variate and lam > sqrt(5/3),

    P(x - E[x] >= lam * Std[x]) <= 4 / (9 (lam^2 + 1)).

Enforcing E + lam * Std <= h per row and sum of the per-row bounds <= alpha
therefore certifies the joint constraint. The bound's domain forces
alpha < 1/6, and the mapping between a row-risk budget omega and its
multiplier is the closed form lam = sqrt(4 / (9 omega) - 1).

Marginal unimodality of every row is an assumption the caller attests to;
it is deliberately never inferred here, since verifying unimodality through
products of random matrices is hard and a silent guess would be unsound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError
from .moments import ConstraintMoments, SystemSpec, constraint_moments

LAMBDA_FLOOR = math.sqrt(5.0 / 3.0)
LAMBDA_MARGIN = 1e-9  # the floor is an exclusive bound; stay this far above it
LAMBDA_MAX = 1e6  # cap for tight multipliers; vp_bound(1e6) ~ 4.4e-13
STD_ZERO = 1e-12  # a row deviation at or below this counts as vanished
ALPHA_MAX = 1.0 / 6.0


def vp_bound(lam: float) -> float:
    """One-sided Vysochanskij-Petunin tail bound 4 / (9 (lam^2 + 1)).

    Valid only strictly above sqrt(5/3); at the boundary the bound equals
    1/6, which is why risk budgets must satisfy alpha < 1/6.
    """
    if not lam >= LAMBDA_FLOOR + LAMBDA_MARGIN:
        raise DomainError(
            f"multiplier must exceed sqrt(5/3) = {LAMBDA_FLOOR:.12f} (margin {LAMBDA_MARGIN:g}); got {lam!r}"
        )
    if math.isinf(lam):
        return 0.0
    return 4.0 / (9.0 * (lam * lam + 1.0))


def risk_to_lambda(omega: float) -> float:
    """Inverse of ``vp_bound``: lam = sqrt(4 / (9 omega) - 1)."""
    if not (0.0 < omega < ALPHA_MAX):
        raise DomainError(f"row risk must lie in (0, 1/6), got {omega!r}")
    lam = math.sqrt(4.0 / (9.0 * omega) - 1.0)
    if lam < LAMBDA_FLOOR + LAMBDA_MARGIN:
        raise DomainError(
            f"row risk {omega!r} is too close to 1/6; the implied multiplier {lam!r} "
            f"falls below the exclusive floor sqrt(5/3)"
        )
    return lam


# ---------------------------------------------------------------------------
# Constraint containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintRow:
    """One linear state inequality G x(k) <= h at time step k >= 1."""

    G: np.ndarray
    h: float
    k: int
    id: str

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        G.setflags(write=False)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", float(self.h))
        if self.k < 1:
            raise DomainError(f"constraint rows start at time step 1, got k={self.k}")


@dataclass(frozen=True)
class RowSet:
    """Rows plus a joint violation budget; any alpha in (0, 1) is allowed.

    This is the container the scenario baseline and Monte-Carlo certification
    accept. The reformulation itself needs the stricter JointChanceConstraint.
    """

    rows: tuple
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise DomainError("need at least one constraint row")
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")


@dataclass(frozen=True)
class JointChanceConstraint(RowSet):
    """RowSet with alpha restricted to the tail bound's domain (0, 1/6)."""

    def __post_init__(self):
        super().__post_init__()
        if self.alpha >= ALPHA_MAX:
            raise DomainError(
                f"alpha = {self.alpha!r} is not allowed: the one-sided tail bound requires "
                f"multipliers above sqrt(5/3), i.e. alpha < 1/6"
            )


@dataclass(frozen=True)
class RiskAllocation:
    """Per-row multipliers plus the joint budget they must share.

    ``lambdas`` maps row id to a multiplier; math.inf marks rows whose
    margin is deterministic, which carry zero risk. Row risks follow from
    the tail bound and must sum to at most alpha.
    """

    alpha: float
    lambdas: dict

    def __post_init__(self):
        object.__setattr__(self, "lambdas", dict(self.lambdas))

    def lam(self, row_id: str) -> float:
        return self.lambdas[row_id]

    def risk(self, row_id: str) -> float:
        lam = self.lambdas[row_id]
        return 0.0 if math.isinf(lam) else vp_bound(lam)

    @property
    def risks(self) -> dict:
        return {rid: self.risk(rid) for rid in self.lambdas}

    @property
    def risk_sum(self) -> float:
        return sum(self.risks.values())

    def valid(self, tol: float = 0.0) -> bool:
        floors = all(
            math.isinf(lam) or lam >= LAMBDA_FLOOR + LAMBDA_MARGIN for lam in self.lambdas.values()
        )
        return floors and self.risk_sum <= self.alpha + tol


@dataclass(frozen=True)
class ReformulatedConstraint:
    """A row together with its input-dependent mean and deviation."""

    row: ConstraintRow
    moments: ConstraintMoments

    @property
    def id(self) -> str:
        return self.row.id

    @property
    def h(self) -> float:
        return self.row.h

    def mean(self, U: np.ndarray) -> float:
        return self.moments.mean(U)

    def std(self, U: np.ndarray) -> float:
        return self.moments.norm_std(U)

    def slack(self, U: np.ndarray, lam: float) -> float:
        """h - E(U) - lam * Std(U); deterministic rows ignore the multiplier."""
        std = self.std(U)
        if std == 0.0 or math.isinf(lam):
            return self.row.h - self.mean(U)
        return self.row.h - self.mean(U) - lam * std


def build_reformulation(spec: SystemSpec, jcc: RowSet) -> list[ReformulatedConstraint]:
    """Attach exact moments to every row of the joint constraint.

    The resulting system { E_i + lam_i * Std_i <= h_i for all rows,
    sum of vp_bound(lam_i) <= alpha } conservatively enforces the joint
    chance constraint for any multipliers above the floor, provided the
    caller attests marginal unimodality of every row.
    """
    out = []
    for row in jcc.rows:
        out.append(ReformulatedConstraint(row, constraint_moments(spec, row.G, row.k)))
    return out


# ---------------------------------------------------------------------------
# Feasibility check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityReport:
    """Row slacks and risk accounting for a candidate (U, lambdas) pair."""

    slacks: dict
    min_slack: float
    risk_sum: float
    alpha: float
    lambdas_ok: bool
    slacks_ok: bool
    risk_ok: bool
    tol: float

    @property
    def feasible(self) -> bool:
        return self.lambdas_ok and self.slacks_ok and self.risk_ok

    def to_dict(self) -> dict:
        return {**asdict(self), "feasible": self.feasible}


def check_feasibility(
    rows: list[ReformulatedConstraint],
    U: np.ndarray,
    lambdas: RiskAllocation,
    tol: float = 1e-6,
) -> FeasibilityReport:
    """Verify E + lam * Std <= h per row and the risk-budget sum, within tol.

    The verdict is also invalid when any finite multiplier sits below the
    exclusive floor sqrt(5/3), since the tail bound says nothing there.
    """
    if tol < 0:
        raise DomainError("tolerance must be nonnegative")
    slacks = {}
    lambdas_ok = True
    risk_sum = 0.0
    for rc in rows:
        lam = lambdas.lam(rc.id)
        std = rc.std(U)
        if math.isinf(lam):
            if std > STD_ZERO:
                lambdas_ok = False
        elif not lam >= LAMBDA_FLOOR + LAMBDA_MARGIN:
            lambdas_ok = False
        else:
            risk_sum += vp_bound(lam)
        slacks[rc.id] = rc.slack(U, lam)
    min_slack = min(slacks.values())
    scale = max(1.0, max(abs(rc.h) for rc in rows))
    slacks_ok = min_slack >= -tol * scale
    risk_ok = risk_sum <= lambdas.alpha + tol
    return FeasibilityReport(
        slacks=slacks,
        min_slack=min_slack,
        risk_sum=risk_sum,
        alpha=lambdas.alpha,
        lambdas_ok=lambdas_ok,
        slacks_ok=slacks_ok,
        risk_ok=risk_ok,
        tol=tol,
    )
