"""Alternating convex search: allocation steps, convergence, fixed points."""

import dataclasses
import math

import numpy as np
import pytest

import vpcc
from vpcc import conic
from vpcc.acs import AcsConfig, Cost, init_lambdas, lambda_step, run, tighten, u_step
from vpcc.errors import AllocationInfeasible, DomainError
from vpcc.reformulate import LAMBDA_FLOOR, LAMBDA_MAX, VP, JointChanceConstraint, build_reformulation, vp_bound

from conftest import deterministic_spec, scalar_iid_spec


def scalar_jcc(h=10.0, alpha=0.1, k=2):
    return JointChanceConstraint(
        (vpcc.ConstraintRow(G=np.array([1.0]), h=h, k=k, id="end"),), alpha
    )


def scalar_cost(horizon=2):
    return Cost.repeated(np.array([[1.0]]), np.array([0.0]), horizon)


class TestInitLambdas:
    def test_uniform_two_rows(self):
        rows = (
            vpcc.ConstraintRow(G=np.array([1.0]), h=1.0, k=1, id="a"),
            vpcc.ConstraintRow(G=np.array([1.0]), h=2.0, k=1, id="b"),
        )
        alloc = init_lambdas(JointChanceConstraint(rows, 0.16))
        # omega = 0.08 each, lam = sqrt(4 / (9 * 0.08) - 1) = sqrt(41)/3
        expected = math.sqrt(4.0 / 0.72 - 1.0)
        assert expected == pytest.approx(math.sqrt(41.0) / 3.0, rel=1e-15)
        for lam in alloc.lambdas.values():
            assert lam == pytest.approx(expected, rel=1e-14)
        assert alloc.risk_sum == pytest.approx(0.16, rel=1e-12)

    def test_uniform_five_rows(self):
        rows = tuple(
            vpcc.ConstraintRow(G=np.array([1.0]), h=1.0, k=1, id=f"r{i}") for i in range(5)
        )
        alloc = init_lambdas(JointChanceConstraint(rows, 0.05))
        for lam in alloc.lambdas.values():
            assert lam == pytest.approx(6.5912, abs=1e-4)

    def test_single_row_near_boundary(self):
        rows = (vpcc.ConstraintRow(G=np.array([1.0]), h=1.0, k=1, id="r"),)
        alloc = init_lambdas(JointChanceConstraint(rows, 1.0 / 6.0 - 1e-7))
        assert alloc.lambdas["r"] == pytest.approx(LAMBDA_FLOOR, abs=1e-6)

    def test_single_row_above_risk_cap(self):
        """A budget between VP.risk_cap and 1/6 starts at the floor; the
        multiplier of the whole budget would fall below it."""
        rows = (vpcc.ConstraintRow(G=np.array([1.0]), h=1.0, k=1, id="r"),)
        alpha = 1.0 / 6.0 - 1e-11
        assert VP.risk_cap < alpha
        alloc = init_lambdas(JointChanceConstraint(rows, alpha))
        assert alloc.lambdas == {"r": VP.floor}

    def test_one_row_two_bus_above_risk_cap_solves(self, two_bus_cfg):
        data = two_bus_cfg.to_dict()
        data["constraints"]["rows"] = [row for row in data["constraints"]["rows"] if row["id"] == "line-rating"]
        data["constraints"]["alpha"] = 1.0 / 6.0 - 1e-11
        cfg = vpcc.parse_config(data)
        report = run(cfg.system_spec(), cfg.jcc(), cfg.cost(), cfg.acs_config())
        assert report.status == "optimal"
        assert report.feasibility["feasible"]


class TestLambdaStep:
    def _rows(self):
        spec = scalar_iid_spec(horizon=2)
        return spec, build_reformulation(spec, scalar_jcc())

    def test_tight_value_from_moments(self):
        # E = 2, Std = sqrt(6), h = 10: tight lam = 8 / sqrt(6), risk 4/105
        spec, rows = self._rows()
        U = np.array([1.0, 0.0])
        alloc = lambda_step(rows, U, alpha=0.1, policy="tight")
        lam = alloc.lambdas["end"]
        assert lam == pytest.approx(8.0 / math.sqrt(6.0), rel=1e-12)
        assert lam == pytest.approx(3.2660, abs=1e-4)
        assert alloc.risk("end") == pytest.approx(4.0 / 105.0, rel=1e-12)

    def test_uniform_relax_scales_to_budget(self):
        spec, rows = self._rows()
        U = np.array([1.0, 0.0])
        alloc = lambda_step(rows, U, alpha=0.1, policy="uniform-relax")
        assert alloc.risk_sum == pytest.approx(0.1, rel=1e-9)
        assert alloc.lambdas["end"] < 8.0 / math.sqrt(6.0)
        # relaxing never breaks the margin inequality
        assert rows[0].slack(U, alloc.lambdas["end"]) >= 0

    def test_deterministic_rows_get_sentinel(self):
        spec = deterministic_spec(np.eye(1) * 0.5, np.eye(1), np.array([1.0]), horizon=1)
        rows = build_reformulation(
            spec,
            JointChanceConstraint(
                (vpcc.ConstraintRow(G=np.array([1.0]), h=3.0, k=1, id="r"),), 0.1
            ),
        )
        alloc = lambda_step(rows, np.array([0.0]), alpha=0.1)
        assert math.isinf(alloc.lambdas["r"])
        assert alloc.risk_sum == 0.0

    def test_deterministic_violated_row_raises(self):
        spec = deterministic_spec(np.eye(1) * 0.5, np.eye(1), np.array([1.0]), horizon=1)
        rows = build_reformulation(
            spec,
            JointChanceConstraint(
                (vpcc.ConstraintRow(G=np.array([1.0]), h=0.1, k=1, id="r"),), 0.1
            ),
        )
        with pytest.raises(AllocationInfeasible):
            lambda_step(rows, np.array([2.0]), alpha=0.1)

    def test_tight_below_floor_raises(self):
        spec, rows = self._rows()
        # h = 2 + sqrt(6) * 1.0 makes the tight ratio 1.0 < sqrt(5/3)
        rows = build_reformulation(spec, scalar_jcc(h=2.0 + math.sqrt(6.0)))
        with pytest.raises(AllocationInfeasible):
            lambda_step(rows, np.array([1.0, 0.0]), alpha=0.1)

    def test_budget_exceeded_raises(self):
        spec, rows = self._rows()
        # tight risk 4/105 = 0.038 > alpha
        with pytest.raises(AllocationInfeasible):
            lambda_step(rows, np.array([1.0, 0.0]), alpha=0.01)

    def test_vanishing_std_on_random_row_gets_cap(self):
        # From x0 = 0, x(2) = a(1) u(0) + u(1): a random row whose Std is 0 at u(0) = 0.
        spec = dataclasses.replace(scalar_iid_spec(horizon=2), x0=np.array([0.0]))
        rows = build_reformulation(spec, scalar_jcc())
        assert not rows[0].moments.structurally_deterministic
        U = np.array([0.0, 1.0])
        assert rows[0].std(U) == 0.0
        alloc = lambda_step(rows, U, alpha=0.1, policy="tight")
        assert alloc.lambdas["end"] == LAMBDA_MAX
        assert alloc.risk_sum == vp_bound(LAMBDA_MAX)
        tight, ratios, stds, violated = tighten(rows, U)
        assert tight == {"end": LAMBDA_MAX}
        assert ratios == [math.inf] and stds == [0.0] and violated == []


class TestUStep:
    def test_deterministic_reduces_to_nominal_qp(self):
        A = np.array([[1.0, 0.1], [0.0, 1.0]])
        B = np.eye(2)
        spec = deterministic_spec(A, B, np.array([1.0, 0.0]), horizon=1, box=5.0)
        jcc = JointChanceConstraint(
            (vpcc.ConstraintRow(G=np.array([1.0, 0.0]), h=100.0, k=1, id="r"),), 0.1
        )
        rows = build_reformulation(spec, jcc)
        cost = Cost.repeated(np.eye(2), np.array([1.0, 1.0]), 1)
        out = u_step(spec, rows, init_lambdas(jcc), cost)
        assert out.status == conic.STATUS_OPTIMAL
        # unconstrained optimum of u'u + 1'u is -0.5 per coordinate
        assert out.x == pytest.approx([-0.5, -0.5], abs=1e-5)

    def test_two_bus_feasible_within_bounds(self, two_bus_cfg):
        spec = two_bus_cfg.system_spec()
        jcc = two_bus_cfg.jcc()
        rows = build_reformulation(spec, jcc)
        out = u_step(spec, rows, init_lambdas(jcc), two_bus_cfg.cost())
        assert out.status == conic.STATUS_OPTIMAL
        assert np.all(out.x >= 60.0 - 1e-6) and np.all(out.x <= 600.0 + 1e-6)

    def test_two_bus_high_safety_infeasible(self, two_bus_cfg):
        cfg = two_bus_cfg.with_alpha(0.01)
        spec = cfg.system_spec()
        jcc = cfg.jcc()
        rows = build_reformulation(spec, jcc)
        out = u_step(spec, rows, init_lambdas(jcc), cfg.cost())
        assert out.status == conic.STATUS_INFEASIBLE


class TestRun:
    def test_deterministic_converges_in_one_outer_iteration(self):
        A = np.array([[0.5]])
        spec = deterministic_spec(A, np.eye(1), np.array([1.0]), horizon=2, box=4.0)
        jcc = JointChanceConstraint(
            (vpcc.ConstraintRow(G=np.array([1.0]), h=3.0, k=2, id="r"),), 0.1
        )
        cost = Cost.repeated(np.eye(1), np.array([2.0]), 2)
        report = run(spec, jcc, cost)
        assert report.status == "optimal"
        assert len(report.trace) == 1
        # nominal QP optimum: u = -1 per step (unconstrained min of u^2 + 2u)
        assert np.asarray(report.U).ravel() == pytest.approx([-1.0, -1.0], abs=1e-5)

    def test_two_bus_baseline_run(self, two_bus_cfg):
        report = run(
            two_bus_cfg.system_spec(), two_bus_cfg.jcc(), two_bus_cfg.cost(), two_bus_cfg.acs_config()
        )
        assert report.status == "optimal"
        assert report.feasibility["feasible"]
        assert report.risk_sum <= 0.16 + 1e-9
        # every iterate stayed within the budget with admissible multipliers
        for entry in report.trace:
            assert entry["risk_sum"] <= 0.16 + 1e-9
            for lam in entry["lambdas"].values():
                assert lam == "inf" or lam >= LAMBDA_FLOOR
        u = np.asarray(report.U).ravel()
        assert np.all(u >= 60.0 - 1e-6) and np.all(u <= 600.0 + 1e-6)

    def test_objective_trace_non_increasing(self, two_bus_cfg):
        for one_minus in (0.84, 0.92, 0.98):
            cfg = two_bus_cfg.with_alpha(round(1.0 - one_minus, 12))
            report = run(cfg.system_spec(), cfg.jcc(), cfg.cost(), cfg.acs_config())
            assert report.status == "optimal"
            objs = [t["objective"] for t in report.trace if t["objective"] is not None]
            tol = 10.0 * 1e-6
            for earlier, later in zip(objs, objs[1:]):
                assert later <= earlier + tol * max(1.0, abs(earlier))

    def test_restart_from_reported_allocation_reproduces_input(self, two_bus_cfg):
        spec = two_bus_cfg.system_spec()
        jcc = two_bus_cfg.jcc()
        report = run(spec, jcc, two_bus_cfg.cost(), two_bus_cfg.acs_config())
        rows = build_reformulation(spec, jcc)
        lambdas = {k: float(v) for k, v in report.lambdas.items()}
        alloc = vpcc.RiskAllocation(jcc.alpha, lambdas)
        again = u_step(spec, rows, alloc, two_bus_cfg.cost())
        assert again.status == conic.STATUS_OPTIMAL
        assert np.asarray(report.U).ravel() == pytest.approx(again.x, abs=1e-6)

    def test_time_invariant_case_has_identical_steps(self, two_bus_cfg):
        """With identical per-step moments and costs the optimal inputs agree
        across the horizon."""
        data = two_bus_cfg.to_dict()
        data["system"]["horizon"] = 3
        cfg = vpcc.parse_config(data)
        report = run(cfg.system_spec(), cfg.jcc(), cfg.cost(), cfg.acs_config())
        assert report.status == "optimal"
        U = np.asarray(report.U)
        drift = np.abs(U - U[0]).max()
        assert drift <= 1e-4

    def test_infeasible_budget_reports_infeasible(self, two_bus_cfg):
        cfg = two_bus_cfg.with_alpha(0.01)
        report = run(cfg.system_spec(), cfg.jcc(), cfg.cost(), cfg.acs_config())
        assert report.status == "infeasible"
        assert any("budget" in note or "infeasible" in note for note in report.notes)

    def test_restoration_recovers_tight_budget(self, two_bus_cfg):
        cfg = two_bus_cfg.with_alpha(0.02)
        report = run(cfg.system_spec(), cfg.jcc(), cfg.cost(), cfg.acs_config())
        assert report.status == "optimal"
        assert any("restoration" in note for note in report.notes)
        assert report.feasibility["feasible"]

    def test_restoration_disabled_propagates_infeasible(self, two_bus_cfg):
        cfg = two_bus_cfg.with_alpha(0.02)
        config = AcsConfig(restoration=False)
        report = run(cfg.system_spec(), cfg.jcc(), cfg.cost(), config)
        assert report.status == "infeasible"

    def test_inner_numerical_failure_after_best_iterate_is_error(self, two_bus_cfg, monkeypatch):
        """An input step that fails numerically after a feasible iterate ends
        "error" with that iterate; no iteration cap was hit."""
        steps = []

        def failing_second_step(*args, **kwargs):
            if not steps:
                steps.append(u_step(*args, **kwargs))
                return steps[0]
            return conic.SolverOutcome(
                status="numerical_failure",
                x=None,
                objective=None,
                primal_residual=math.inf,
                dual_residual=math.inf,
                gap=math.inf,
                iterations=3,
                wall_time_ms=0.0,
                diagnostic="phase 2: test diagnostic",
            )

        monkeypatch.setattr(vpcc.acs, "u_step", failing_second_step)
        report = run(
            two_bus_cfg.system_spec(), two_bus_cfg.jcc(), two_bus_cfg.cost(), two_bus_cfg.acs_config()
        )
        assert report.status == "error"
        assert [entry["iteration"] for entry in report.trace] == [1]
        assert np.asarray(report.U).ravel().tolist() == steps[0].x.tolist()
        assert any("numerical_failure" in note and "phase 2: test diagnostic" in note for note in report.notes)

    def test_mc_certification_of_solution(self, two_bus_cfg):
        spec = two_bus_cfg.system_spec()
        jcc = two_bus_cfg.jcc()
        report = run(spec, jcc, two_bus_cfg.cost(), two_bus_cfg.acs_config())
        cert = vpcc.mc_certify(spec, jcc, np.asarray(report.U).ravel(), 10**5, seed=31)
        assert cert.upper_ci_99 <= jcc.alpha


def root_relaxation(cfg):
    """The input step with every row at VP.lam(alpha). Every admissible row
    risk is at most alpha, so no admissible multiplier is smaller."""
    spec, jcc = cfg.system_spec(), cfg.jcc()
    rows = build_reformulation(spec, jcc)
    lam = VP.lam(min(jcc.alpha, VP.risk_cap))
    return u_step(spec, rows, vpcc.RiskAllocation(jcc.alpha, {rc.id: lam for rc in rows}), cfg.cost())


class TestRootRelaxation:
    @pytest.mark.parametrize("one_minus", (0.84, 0.86, 0.88, 0.9, 0.92, 0.94, 0.96, 0.98))
    def test_bounds_two_bus_objective(self, two_bus_cfg, one_minus):
        cfg = two_bus_cfg.with_alpha(round(1.0 - one_minus, 12))
        report = run(cfg.system_spec(), cfg.jcc(), cfg.cost(), cfg.acs_config())
        assert report.status == "optimal"
        root = root_relaxation(cfg)
        assert root.status == conic.STATUS_OPTIMAL
        tol = cfg.acs_config().solver.tol
        assert cfg.cost().value(root.x) <= report.objective + tol * max(1.0, abs(report.objective))

    def test_two_bus_099_relaxation_proves_infeasible(self, two_bus_cfg):
        cfg = two_bus_cfg.with_alpha(0.01)
        assert root_relaxation(cfg).status == conic.STATUS_INFEASIBLE
        report = run(cfg.system_spec(), cfg.jcc(), cfg.cost(), cfg.acs_config())
        assert report.status == "infeasible"
        (note,) = report.notes
        assert note.startswith(f"infeasible: root relaxation, every row at multiplier {VP.lam(0.01):.6g} ")
        assert "ended infeasible" in note and "phase-1 bound sigma - s'z" in note

    @pytest.mark.parametrize("status, reported", [("iteration_limit", "iteration_limit"), ("numerical_failure", "error")])
    @pytest.mark.parametrize("alpha", [0.01, 0.02])
    def test_unsolved_relaxation_is_no_verdict(self, two_bus_cfg, monkeypatch, status, reported, alpha):
        """A relaxation that ends neither optimal nor infeasible proves
        nothing, so the run reports the solver's status, never infeasible."""
        cfg = two_bus_cfg.with_alpha(alpha)
        solve, programs = conic.solve, []

        def unsolved_relaxation(program, opts=None):
            programs.append(program)
            if len(programs) == 1:
                return solve(program, opts)
            return conic.SolverOutcome(
                status=status,
                x=None,
                objective=None,
                primal_residual=math.inf,
                dual_residual=math.inf,
                gap=math.inf,
                iterations=7,
                wall_time_ms=0.0,
                diagnostic="test diagnostic",
            )

        monkeypatch.setattr(conic, "solve", unsolved_relaxation)
        report = run(cfg.system_spec(), cfg.jcc(), cfg.cost(), cfg.acs_config())
        assert len(programs) == 2
        assert {row.lam for row in programs[1].soc} == {VP.lam(alpha)}
        assert report.status == reported
        assert report.U is None and report.lambdas is None
        assert [entry["phase"] for entry in report.trace] == ["restoration"]
        assert any(status in note and "test diagnostic" in note for note in report.notes)


class TestConfigValidation:
    def test_bad_policies(self):
        with pytest.raises(DomainError):
            AcsConfig(lambda_step_policy="magic")
        with pytest.raises(DomainError):
            AcsConfig(convergence_rel_tol=0.0)

    @pytest.mark.parametrize("field", ["convergence_rel_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance(self, field, value):
        with pytest.raises(DomainError, match="finite"):
            AcsConfig(**{field: value})

    def test_cost_validation(self):
        with pytest.raises(DomainError):
            Cost((np.eye(2),), (np.zeros(3),))
