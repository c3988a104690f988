"""Tail-bound arithmetic, risk allocations and the feasibility check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vpcc
from vpcc.errors import DomainError
from vpcc.reformulate import (
    LAMBDA_FLOOR,
    VP,
    JointChanceConstraint,
    RiskAllocation,
    RowSet,
    build_reformulation,
    check_feasibility,
    risk_to_lambda,
    vp_bound,
)
from vpcc.stochastics import mc_certify

from conftest import deterministic_spec, scalar_iid_spec


class TestVpBound:
    def test_boundary_limit_is_one_sixth(self):
        from fractions import Fraction

        # Exact rational evaluation of the formula at lambda^2 = 5/3.
        exact = Fraction(4, 1) / (9 * (Fraction(5, 3) + 1))
        assert exact == Fraction(1, 6)
        assert vp_bound(LAMBDA_FLOOR + 1e-9) == pytest.approx(1.0 / 6.0, abs=1e-8)

    def test_reference_values(self):
        assert vp_bound(2.0) == pytest.approx(4.0 / 45.0, rel=1e-15)
        assert vp_bound(6.59118) == pytest.approx(0.01, abs=1e-5)
        assert vp_bound(math.inf) == 0.0

    def test_at_and_below_floor_rejected(self):
        for lam in (LAMBDA_FLOOR, LAMBDA_FLOOR - 0.1, 0.0, -1.0):
            with pytest.raises(DomainError):
                vp_bound(lam)

    def test_strictly_decreasing_and_convex(self):
        grid = np.linspace(LAMBDA_FLOOR + 1e-6, 40.0, 2000)
        vals = np.array([vp_bound(l) for l in grid])
        assert np.all(np.diff(vals) < 0)
        assert np.all(np.diff(vals, 2) > 0)  # second differences positive


class TestRiskToLambda:
    def test_reference_values(self):
        assert risk_to_lambda(4.0 / 45.0) == pytest.approx(2.0, rel=1e-14)
        assert risk_to_lambda(0.01) == pytest.approx(math.sqrt(4.0 / 0.09 - 1.0), rel=1e-14)
        assert risk_to_lambda(0.01) == pytest.approx(6.5912, abs=1e-4)

    def test_near_boundary_approaches_floor(self):
        assert risk_to_lambda(1.0 / 6.0 - 1e-6) == pytest.approx(LAMBDA_FLOOR, abs=1e-5)

    def test_domain(self):
        for omega in (0.0, -0.1, 1.0 / 6.0, 0.5):
            with pytest.raises(DomainError):
                risk_to_lambda(omega)

    def test_round_trip_grid(self):
        grid = np.linspace(LAMBDA_FLOOR + 1e-6, 60.0, 1000)
        for lam in grid:
            assert risk_to_lambda(vp_bound(lam)) == pytest.approx(lam, rel=1e-12)

    @given(st.floats(min_value=LAMBDA_FLOOR + 1e-6, max_value=1e3))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, lam):
        assert risk_to_lambda(vp_bound(lam)) == pytest.approx(lam, rel=1e-12)

    @given(st.floats(min_value=1e-9, max_value=1.0 / 6.0 - 1e-9))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_from_risk(self, omega):
        assert vp_bound(risk_to_lambda(omega)) == pytest.approx(omega, rel=1e-12)


class TestTailBound:
    GRID = np.geomspace(VP.floor, 1e3, 400)

    def test_slope_is_the_hand_derived_weight(self):
        for t in self.GRID.tolist():
            assert VP.slope(t) == 8.0 * t / (9.0 * (t * t + 1.0) ** 2)

    def test_slope_matches_central_difference(self):
        for lam in self.GRID[1:]:
            h = 1e-5 * lam
            diff = (VP.risk(lam - h) - VP.risk(lam + h)) / (2.0 * h)
            assert VP.slope(lam) == pytest.approx(diff, rel=1e-7)

    def test_floor_and_cap_are_inverse(self):
        assert VP.floor == LAMBDA_FLOOR + 1e-9
        assert VP.risk_cap == VP.risk(VP.floor)
        assert VP.lam(VP.risk_cap) == VP.floor

    def test_infinite_multiplier_carries_no_risk(self):
        assert VP.risk(math.inf) == 0.0
        assert VP.admits(math.inf)

    def test_admits(self):
        assert VP.admits(VP.floor)
        for lam in (LAMBDA_FLOOR, math.nan, -math.inf, 1.0):
            assert not VP.admits(lam)


class TestContainers:
    def test_alpha_above_one_sixth_rejected(self):
        row = vpcc.ConstraintRow(G=np.array([1.0]), h=1.0, k=1, id="r")
        with pytest.raises(DomainError, match="sqrt\\(5/3\\)"):
            JointChanceConstraint((row,), 1.0 / 6.0)
        with pytest.raises(DomainError):
            JointChanceConstraint((row,), 0.3)
        # The plain row container accepts the same level.
        assert RowSet((row,), 0.3).alpha == 0.3

    def test_risk_allocation_accounting(self):
        alloc = RiskAllocation(0.16, {"a": 2.0, "b": math.inf})
        assert alloc.risk("a") == pytest.approx(4.0 / 45.0)
        assert alloc.risk("b") == 0.0
        assert alloc.risk_sum == pytest.approx(4.0 / 45.0)
        assert alloc.valid()
        assert not RiskAllocation(0.05, {"a": 2.0}).valid()  # 4/45 > 0.05
        assert not RiskAllocation(0.16, {"a": 1.0}).valid()  # below floor


class TestBuildReformulation:
    def test_deterministic_rows_reduce_to_nominal(self):
        A = np.array([[0.5, 0.0], [0.2, 0.7]])
        spec = deterministic_spec(A, np.eye(2), np.array([1.0, -1.0]), horizon=2)
        jcc = JointChanceConstraint(
            (
                vpcc.ConstraintRow(G=np.array([1.0, 0.0]), h=4.0, k=1, id="r1"),
                vpcc.ConstraintRow(G=np.array([1.0, 1.0]), h=4.0, k=2, id="r2"),
            ),
            0.1,
        )
        rows = build_reformulation(spec, jcc)
        U = np.array([0.1, 0.2, -0.3, 0.4])
        for rc in rows:
            assert rc.std(U) == 0.0
            assert rc.moments.structurally_deterministic
            # multiplier is irrelevant for the slack of deterministic rows
            assert rc.slack(U, 2.0) == rc.slack(U, math.inf)

    def test_scalar_example_certifies(self):
        # mean 2, variance 6 at U = (1, 0): 2 + 2 sqrt(6) <= 10
        spec = scalar_iid_spec(horizon=2)
        jcc = JointChanceConstraint(
            (vpcc.ConstraintRow(G=np.array([1.0]), h=10.0, k=2, id="end"),), 0.1
        )
        rows = build_reformulation(spec, jcc)
        U = np.array([1.0, 0.0])
        assert rows[0].mean(U) == pytest.approx(2.0)
        assert rows[0].std(U) == pytest.approx(math.sqrt(6.0))
        assert rows[0].slack(U, 2.0) == pytest.approx(10.0 - 2.0 - 2.0 * math.sqrt(6.0))
        assert rows[0].slack(U, 2.0) > 0

    def test_two_bus_balance_values(self, two_bus_spec, two_bus_cfg):
        rows = build_reformulation(two_bus_spec, two_bus_cfg.jcc())
        balance = next(r for r in rows if r.id.startswith("balance"))
        c_w, c_l = 0.813, 1600.0
        U = np.zeros(2)
        assert balance.mean(U) == pytest.approx(0.5 * c_l - 118.9188 * c_w, abs=1e-3)
        var = balance.std(U) ** 2
        beta_var_exact = 2500.0 / (1e4 * 101.0)  # 0.0024752..., often quoted as 0.0025
        assert var == pytest.approx(204.6946 * c_w**2 + beta_var_exact * c_l**2, rel=1e-5)
        assert var == pytest.approx(204.6946 * c_w**2 + 0.0025 * c_l**2, rel=0.011)


class TestCheckFeasibility:
    def _rows(self, two_bus_spec, two_bus_cfg):
        return build_reformulation(two_bus_spec, two_bus_cfg.jcc())

    def test_feasible_point(self, two_bus_spec, two_bus_cfg):
        rows = self._rows(two_bus_spec, two_bus_cfg)
        alloc = RiskAllocation(0.16, {r.id: 2.2 for r in rows})
        report = check_feasibility(rows, np.array([600.0, 350.0]), alloc, tol=1e-6)
        assert report.feasible
        assert report.risk_sum <= 0.16
        assert min(report.slacks.values()) == report.min_slack >= 0

    def test_slack_violation(self, two_bus_spec, two_bus_cfg):
        rows = self._rows(two_bus_spec, two_bus_cfg)
        alloc = RiskAllocation(0.16, {r.id: 2.2 for r in rows})
        report = check_feasibility(rows, np.array([60.0, 60.0]), alloc, tol=1e-6)
        assert not report.feasible and not report.slacks_ok

    def test_floor_violation_invalidates(self, two_bus_spec, two_bus_cfg):
        rows = self._rows(two_bus_spec, two_bus_cfg)
        alloc = RiskAllocation(0.16, {rows[0].id: 1.0, rows[1].id: 2.2})
        report = check_feasibility(rows, np.array([600.0, 350.0]), alloc, tol=1e-6)
        assert not report.lambdas_ok and not report.feasible

    def test_budget_violation(self, two_bus_spec, two_bus_cfg):
        rows = self._rows(two_bus_spec, two_bus_cfg)
        alloc = RiskAllocation(0.16, {r.id: LAMBDA_FLOOR + 1e-6 for r in rows})
        report = check_feasibility(rows, np.array([600.0, 600.0]), alloc, tol=1e-6)
        assert not report.risk_ok  # two rows at ~1/6 each

    def test_accepted_pair_passes_mc_certification(self, two_bus_spec, two_bus_cfg):
        """Any (U, lambdas) the checker accepts must satisfy the joint chance
        constraint; verified by simulation with a 99% upper confidence bound."""
        jcc = two_bus_cfg.jcc()
        rows = build_reformulation(two_bus_spec, jcc)
        U = np.array([600.0, 320.0])
        tight = {
            r.id: min((r.h - r.mean(U)) / r.std(U), 1e6) for r in rows
        }
        alloc = RiskAllocation(0.16, tight)
        report = check_feasibility(rows, U, alloc, tol=1e-6)
        assert report.feasible
        cert = mc_certify(two_bus_spec, jcc, U, samples=10**5, seed=21)
        assert cert.upper_ci_99 <= jcc.alpha

    def test_bad_tolerance(self, two_bus_spec, two_bus_cfg):
        rows = self._rows(two_bus_spec, two_bus_cfg)
        alloc = RiskAllocation(0.16, {r.id: 2.2 for r in rows})
        with pytest.raises(DomainError):
            check_feasibility(rows, np.zeros(2), alloc, tol=-1.0)
