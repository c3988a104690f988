"""Deterministic reformulation of joint chance constraints.

A joint requirement P(all G_ik x(k) <= h_ik) >= 1 - alpha is split row-wise
with Boole's inequality and each row's tail is bounded with the one-sided
Vysochanskij-Petunin inequality: for a unimodal variate and lam > sqrt(5/3),

    P(x - E[x] >= lam * Std[x]) <= 4 / (9 (lam^2 + 1)).

Enforcing E + lam * Std <= h per row and sum of the per-row bounds <= alpha
therefore certifies the joint constraint. The record ``VP`` (a ``TailBound``)
is the one statement of this bound that the other modules read: the risk of
a multiplier, its inverse lam = sqrt(4 / (9 omega) - 1), the risk's slope,
the admissible floor, and the budget cap alpha < 1/6 the bound's domain
forces.

Marginal unimodality of every row is an assumption the caller attests to;
it is deliberately never inferred here, since verifying unimodality through
products of random matrices is hard and a silent guess would be unsound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError
from .moments import ConstraintMoments, SystemSpec, constraint_moments

LAMBDA_FLOOR = math.sqrt(5.0 / 3.0)
LAMBDA_MAX = 1e6  # cap for tight multipliers; VP.risk(1e6) ~ 4.4e-13
STD_ZERO = 1e-12  # a row deviation at or below this counts as vanished


@dataclass(frozen=True)
class TailBound:
    """One-sided tail bound P(x - E[x] >= lam * Std[x]) <= num / (den (lam^2 + 1)).

    The bound holds strictly above the multiplier ``edge`` (``edge_text`` in
    messages), so finite multipliers start a margin above it at ``floor``,
    where the row risk reaches ``risk_cap``; math.inf carries zero risk.
    Joint budgets must stay below ``alpha_max`` (``alpha_text``).
    """

    num: float
    den: float
    edge: float
    edge_text: str
    floor: float
    alpha_max: float
    alpha_text: str
    risk_cap: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "risk_cap", self.risk(self.floor))

    def admits(self, lam: float) -> bool:
        """math.inf or at least the floor; NaN is not admitted."""
        return lam >= self.floor

    def risk(self, lam: float) -> float:
        """The row risk of an admitted multiplier; math.inf gives exactly 0.0."""
        if not self.admits(lam):
            raise DomainError(
                f"multiplier must exceed {self.edge_text} = {self.edge:.12f} (margin {self.floor - self.edge:g}); got {lam!r}"
            )
        return self.num / (self.den * (lam * lam + 1.0))

    def lam(self, risk: float) -> float:
        """Inverse of ``risk``: lam = sqrt(num / (den risk) - 1)."""
        if not (0.0 < risk < self.alpha_max):
            raise DomainError(f"row risk must lie in (0, {self.alpha_text}), got {risk!r}")
        lam = math.sqrt(self.num / (self.den * risk) - 1.0)
        if lam < self.floor:
            raise DomainError(
                f"row risk {risk!r} is too close to {self.alpha_text}; the implied multiplier {lam!r} "
                f"falls below the exclusive floor {self.edge_text}"
            )
        return lam

    def slope(self, lam: float) -> float:
        """-d risk / d lam at a finite multiplier."""
        return 2.0 * self.num * lam / (self.den * (lam * lam + 1.0) ** 2)


# One-sided Vysochanskij-Petunin: at the edge the bound equals 1/6, which is
# why joint budgets must satisfy alpha < 1/6. The floor stays 1e-9 above the
# exclusive edge.
VP = TailBound(4.0, 9.0, LAMBDA_FLOOR, "sqrt(5/3)", LAMBDA_FLOOR + 1e-9, 1.0 / 6.0, "1/6")
vp_bound = VP.risk
risk_to_lambda = VP.lam


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
    """RowSet with alpha restricted to the tail bound's domain (0, VP.alpha_max)."""

    def __post_init__(self):
        super().__post_init__()
        if self.alpha >= VP.alpha_max:
            raise DomainError(
                f"alpha = {self.alpha!r} is not allowed: the one-sided tail bound requires "
                f"multipliers above {VP.edge_text}, i.e. alpha < {VP.alpha_text}"
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
        return VP.risk(self.lambdas[row_id])

    @property
    def risks(self) -> dict:
        return {rid: self.risk(rid) for rid in self.lambdas}

    @property
    def risk_sum(self) -> float:
        return sum(self.risks.values())

    def valid(self, tol: float = 0.0) -> bool:
        return all(map(VP.admits, self.lambdas.values())) and self.risk_sum <= self.alpha + tol


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
    sum of VP.risk(lam_i) <= alpha } conservatively enforces the joint
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

    The verdict is also invalid when any multiplier is one ``VP`` does not
    admit, since the tail bound says nothing there.
    """
    if tol < 0:
        raise DomainError("tolerance must be nonnegative")
    slacks = {}
    lambdas_ok = True
    risk_sum = 0.0
    for rc in rows:
        lam = lambdas.lam(rc.id)
        std = rc.std(U)
        if not VP.admits(lam) or (math.isinf(lam) and std > STD_ZERO):
            lambdas_ok = False
        else:
            risk_sum += VP.risk(lam)
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
