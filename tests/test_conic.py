"""In-repo solver: contracts, determinism, serialisation, oracle and cross-validation."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import vpcc
from vpcc import acs, conic
from vpcc.acs import Cost
from vpcc.conic import ConicProgram, SocRow, SolverOptions, solve
from vpcc.errors import DomainError
from vpcc.scenario import ScenarioConfig, solve_scenario

from conic_oracle import PointBarrier, oracle_solve, oracle_solve_step
from cvxpy_oracle import solve_reference


def no_lin(d):
    return dict(A_u=np.zeros((0, d)), b_u=np.zeros(0))


def box_rows(d, lo, hi):
    return np.vstack([np.eye(d), -np.eye(d)]), np.concatenate([np.full(d, hi), -np.full(d, lo)])


def random_cone_row(rng: np.random.Generator, u0: np.ndarray, p: int) -> SocRow:
    """A cone row with p deviation columns and a margin of -0.2 to -1.5 at u0."""
    d = u0.shape[0]
    L = rng.uniform(-1, 1, (d, p))
    v = rng.uniform(-1, 1, p)
    s = float(rng.uniform(0, 0.5))
    a = rng.uniform(-1, 1, d)
    b = float(rng.uniform(-1, 1))
    lam = float(rng.uniform(1.4, 6.0))
    dev = math.sqrt(float((L.T @ u0 + v) @ (L.T @ u0 + v)) + s)
    h = float(a @ u0 + b + lam * dev + rng.uniform(0.2, 1.5))
    return SocRow(a=a, b=b, lam=lam, L=L, v=v, s=s, h=h)


def random_feasible_program(rng: np.random.Generator) -> ConicProgram:
    """A fixed-multiplier subproblem with a known strictly feasible point."""
    d = int(rng.integers(2, 6))
    M = rng.uniform(-1, 1, (d, d))
    P = M @ M.T + 0.1 * np.eye(d)
    c = rng.uniform(-2, 2, d)
    A_u, b_u = box_rows(d, -3.0, 3.0)
    u0 = rng.uniform(-1.5, 1.5, d)
    soc = [random_cone_row(rng, u0, int(rng.integers(1, 4))) for _ in range(int(rng.integers(1, 4)))]
    return ConicProgram(P=P, c=c, A_u=A_u, b_u=b_u, soc=tuple(soc))


def segment_edge_programs(rng: np.random.Generator) -> list[ConicProgram]:
    """Layouts at the edges of the barrier's per-cone segment sums: cones and
    no linear rows; degenerate cones (lam = 0, zero L) among genuine ones;
    cones with a single deviation column. Each is strictly feasible at u0."""
    d = 3
    M = rng.uniform(-1, 1, (d, d))
    P = M @ M.T + 0.1 * np.eye(d)
    c = rng.uniform(-2, 2, d)
    A_u, b_u = box_rows(d, -3.0, 3.0)
    u0 = rng.uniform(-1.5, 1.5, d)
    wide, narrow, flat = (random_cone_row(rng, u0, p) for p in (3, 1, 2))
    no_map = replace(flat, L=np.zeros((d, 2)), h=float(flat.a @ u0 + flat.b + flat.lam * flat.deviation(u0) + 0.5))
    return [
        ConicProgram(P=P, c=c, soc=(wide, narrow), **no_lin(d)),
        ConicProgram(P=P, c=c, A_u=A_u, b_u=b_u, soc=(replace(flat, lam=0.0), wide, no_map, narrow)),
        ConicProgram(P=P, c=c, A_u=A_u, b_u=b_u, soc=(narrow, random_cone_row(rng, u0, 1))),
    ]


class TestBasics:
    def test_unconstrained_quadratic(self):
        d = 4
        out = solve(ConicProgram(P=np.eye(d), c=-np.ones(d), **no_lin(d)))
        assert out.status == conic.STATUS_OPTIMAL
        assert out.x == pytest.approx(np.ones(d), abs=1e-9)
        assert out.objective == pytest.approx(-d / 2.0)

    def test_unconstrained_reports_stationarity_residual(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((4, 4))
        prog = ConicProgram(P=M @ M.T + np.eye(4), c=rng.standard_normal(4), **no_lin(4))
        out = solve(prog)
        assert out.status == conic.STATUS_OPTIMAL
        assert out.dual_residual == float(np.abs(prog.P @ out.x + prog.c).max())
        assert out.dual_residual > 0.0  # measured, not a placeholder

    def test_constant_soc_infeasible(self):
        # 0*u + 0 + 2*||(; sqrt(1))|| <= 1 reads 2 <= 1
        row = SocRow(a=np.zeros(1), b=0.0, lam=2.0, L=np.zeros((1, 0)), v=np.zeros(0), s=1.0, h=1.0)
        out = solve(ConicProgram(P=np.zeros((1, 1)), c=np.ones(1), soc=(row,), **no_lin(1)))
        assert out.status == conic.STATUS_INFEASIBLE
        assert "soc[0]" in out.diagnostic

    def test_infeasible_box(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([-1.0, -1.0])  # u <= -1 and u >= 1
        out = solve(ConicProgram(P=np.zeros((1, 1)), c=np.ones(1), A_u=A, b_u=b))
        assert out.status == conic.STATUS_INFEASIBLE
        assert "linear" in out.diagnostic

    def test_degenerate_soc_becomes_affine(self):
        # lam ||(; sqrt(s))|| constant offset: u <= h - lam sqrt(s) = 1; with
        # L = 0 the offset is lam ||(v ; sqrt(s))||: u <= 2 - 1 * 3 = -1
        no_cols = SocRow(a=np.ones(1), b=0.0, lam=2.0, L=np.zeros((1, 0)), v=np.zeros(0), s=4.0, h=5.0)
        zero_map = SocRow(a=np.ones(1), b=0.0, lam=1.0, L=np.zeros((1, 1)), v=np.array([3.0]), s=0.0, h=2.0)
        A_u, b_u = box_rows(1, -10.0, 10.0)
        for row, bound in ((no_cols, 1.0), (zero_map, -1.0)):
            out = solve(ConicProgram(P=np.zeros((1, 1)), c=-np.ones(1), A_u=A_u, b_u=b_u, soc=(row,)))
            assert out.status == conic.STATUS_OPTIMAL
            assert out.x[0] == pytest.approx(bound, abs=1e-5)

    def test_validation_errors(self):
        with pytest.raises(DomainError):
            ConicProgram(P=np.array([[0.0, 1.0], [0.0, 0.0]]), c=np.zeros(2), **no_lin(2))
        with pytest.raises(DomainError):
            ConicProgram(P=-np.eye(2), c=np.zeros(2), **no_lin(2))
        with pytest.raises(DomainError):
            SocRow(a=np.zeros(2), b=0.0, lam=-1.0, L=np.zeros((2, 0)), v=np.zeros(0), s=0.0, h=1.0)
        with pytest.raises(DomainError):
            SolverOptions(tol=0.0)


class TestOptimalContracts:
    def test_strict_feasibility_and_gap(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            prog = random_feasible_program(rng)
            out = solve(prog)
            assert out.status == conic.STATUS_OPTIMAL
            margins, _ = prog.margins(out.x)
            # Exact double-arithmetic re-evaluation: slack >= -10 * tol.
            assert margins.max() <= 10 * 1e-6
            assert out.gap <= 1e-6 * max(1.0, abs(out.objective))
            assert out.primal_residual == 0.0

    def test_objective_not_worse_than_feasible_probes(self):
        rng = np.random.default_rng(1)
        prog = random_feasible_program(rng)
        out = solve(prog)
        assert out.status == conic.STATUS_OPTIMAL
        probes = 0
        while probes < 25:
            candidate = rng.uniform(-3, 3, prog.d)
            margins, _ = prog.margins(candidate)
            if margins.max() <= 0:
                probes += 1
                tol = 1e-6 * max(1.0, abs(prog.objective(candidate)))
                assert out.objective <= prog.objective(candidate) + tol

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(2)
        prog = random_feasible_program(rng)
        one = solve(prog)
        two = solve(prog)
        assert one.status == two.status
        assert one.x.tobytes() == two.x.tobytes()
        assert one.objective == two.objective
        assert one.iterations == two.iterations


class TestPhase1NearZeroMargin:
    """Phase 1 ends with its margin within tolerance of zero, short of
    -feas_margin, at a point whose direct margins are all negative. Both
    programs are ACS input steps once declared infeasible there."""

    @pytest.mark.parametrize("name", ["phase1_p18-n4N5", "phase1_p57-n5N6"])
    def test_goes_on_to_optimal(self, name):
        data = json.loads((Path(__file__).parent / "fixtures" / f"{name}.json").read_text())
        prog = ConicProgram.from_dict(data["program"])
        hint = None if data["x_hint"] is None else np.array(data["x_hint"])
        out = solve(prog, SolverOptions(**data["options"]), hint)
        assert out.status == conic.STATUS_OPTIMAL
        assert prog.margin_values(out.x).max() < 0.0


class TestSerialisation:
    def test_json_round_trip(self):
        rng = np.random.default_rng(3)
        prog = random_feasible_program(rng)
        clone = ConicProgram.from_json(prog.to_json())
        assert np.array_equal(clone.P, prog.P)
        assert np.array_equal(clone.c, prog.c)
        assert np.array_equal(clone.A_u, prog.A_u)
        assert len(clone.soc) == len(prog.soc)
        for a, b in zip(clone.soc, prog.soc):
            assert np.array_equal(a.L, b.L) and a.lam == b.lam and a.h == b.h
        # identical solves on both sides of the round trip
        assert solve(clone).x == pytest.approx(solve(prog).x, abs=0.0)

    def test_schema_field_names(self):
        rng = np.random.default_rng(4)
        data = random_feasible_program(rng).to_dict()
        assert set(data) == {"P", "c", "constant", "A_u", "b_u", "soc"}
        assert set(data["soc"][0]) == {"a", "b", "lambda", "L", "v", "s", "h"}


class TestCrossValidation:
    """Against ``solve_reference``, which needs cvxpy."""

    @pytest.fixture(autouse=True)
    def _needs_cvxpy(self):
        pytest.importorskip("cvxpy")

    def test_random_programs_match_reference(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            prog = random_feasible_program(rng)
            mine = solve(prog)
            ref = solve_reference(prog)
            assert mine.status == conic.STATUS_OPTIMAL
            assert ref.status == conic.STATUS_OPTIMAL
            assert mine.objective == pytest.approx(ref.objective, rel=1e-4, abs=1e-6)

    def test_two_bus_input_step_slice(self, two_bus_cfg):
        """The fixed-multiplier two-bus input subproblem (a box QP slice)
        against the independent reference solver."""
        spec = two_bus_cfg.system_spec()
        jcc = two_bus_cfg.jcc()
        rows = vpcc.build_reformulation(spec, jcc)
        alloc = acs.init_lambdas(jcc)
        prog = acs.build_input_program(spec, rows, alloc, two_bus_cfg.cost())
        mine = solve(prog)
        ref = solve_reference(prog)
        assert mine.status == conic.STATUS_OPTIMAL
        assert mine.objective == pytest.approx(ref.objective, rel=1e-4)

    def test_reference_detects_infeasible(self):
        row = SocRow(a=np.zeros(1), b=0.0, lam=2.0, L=np.zeros((1, 0)), v=np.zeros(0), s=1.0, h=1.0)
        prog = ConicProgram(P=np.zeros((1, 1)), c=np.ones(1), soc=(row,), **no_lin(1))
        assert solve_reference(prog).status == conic.STATUS_INFEASIBLE


def random_linear_program(rng: np.random.Generator, rows: int, d: int, quadratic: bool = True) -> ConicProgram:
    """Scenario-shaped: many random rows around a strictly feasible point, inside a box."""
    M = rng.uniform(-1, 1, (d, d // 2 + 1))
    P = M @ M.T if quadratic else np.zeros((d, d))
    A = rng.standard_normal((rows, d))
    b = A @ rng.uniform(-1, 1, d) + rng.uniform(0.01, 1.0, rows)
    A_box, b_box = box_rows(d, -3.0, 3.0)
    return ConicProgram(P=P, c=rng.uniform(-5, 5, d), A_u=np.vstack([A, A_box]), b_u=np.concatenate([b, b_box]))


def captured_scenario_program(monkeypatch, cfg, cost, sc: ScenarioConfig) -> ConicProgram:
    """The one program ``solve_scenario`` hands to ``conic.solve``."""
    programs = []
    inner = conic.solve

    def record(program, opts=None, x_hint=None):
        programs.append(program)
        return inner(program, opts, x_hint=x_hint)

    monkeypatch.setattr(conic, "solve", record)
    solve_scenario(cfg.system_spec(), cfg.row_set(), cost, sc)
    monkeypatch.undo()
    (prog,) = programs
    return prog


LINEAR_ROW_SIZES = [(5, 2, True), (200, 6, True), (2000, 12, True), (2000, 4, False), (10000, 6, True)]


class TestAgainstOracle:
    """Against ``tests/conic_oracle.py``: the point-wise line search with LU steps."""

    @staticmethod
    def assert_agree(prog, opts=SolverOptions()):
        mine = solve(prog, opts)
        ref = oracle_solve(prog, opts)
        assert mine.status == ref.status
        # Same Newton directions; round-off in the line search may shift a step or two.
        assert mine.iterations <= ref.iterations + 5
        if ref.status == conic.STATUS_OPTIMAL:
            assert abs(mine.objective - ref.objective) <= opts.tol * max(1.0, abs(ref.objective))
            assert prog.margins(mine.x)[0].max() < 0.0
        return mine

    @pytest.mark.parametrize("rows, d, quadratic", LINEAR_ROW_SIZES)
    def test_linear_rows(self, rows, d, quadratic):
        rng = np.random.default_rng(rows + d)
        for _ in range(2):
            assert self.assert_agree(random_linear_program(rng, rows, d, quadratic)).status == conic.STATUS_OPTIMAL

    def test_cone_rows(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            assert self.assert_agree(random_feasible_program(rng)).status == conic.STATUS_OPTIMAL

    def test_barrier_derivatives_match_pointwise(self):
        rng = np.random.default_rng(7)
        for prog in [random_feasible_program(rng) for _ in range(8)] + segment_edge_programs(rng):
            x = solve(prog, SolverOptions(tol=0.1)).x  # off the boundary, where slacks are well conditioned
            canon = conic._canonical(prog)
            barrier = conic._Barrier(*canon)
            slacks = barrier.slacks(x)
            val, grad, hess = PointBarrier(*canon).value_grad_hess(x)
            mine_grad, mine_hess = barrier.grad_hess(slacks)
            assert barrier.value(slacks) == pytest.approx(val, rel=1e-12)
            assert np.allclose(mine_grad, grad, rtol=1e-9, atol=1e-9 * np.abs(grad).max())
            assert np.allclose(mine_hess, hess, rtol=1e-9, atol=1e-9 * np.abs(hess).max())

    def test_infeasible_box(self):
        rng = np.random.default_rng(6)
        prog = random_linear_program(rng, 300, 3)
        A = np.vstack([prog.A_u, [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]])
        b = np.concatenate([prog.b_u, [-1.0, -1.0]])  # u_0 <= -1 and u_0 >= 1
        out = self.assert_agree(ConicProgram(P=prog.P, c=prog.c, A_u=A, b_u=b))
        assert out.status == conic.STATUS_INFEASIBLE

    def test_two_bus_scenario_program(self, two_bus_cfg, monkeypatch):
        cfg = two_bus_cfg.with_alpha(0.01)
        prog = captured_scenario_program(monkeypatch, cfg, cfg.cost(), cfg.scenario_config(seed=3))
        assert prog.A_u.shape[0] > 1000
        assert self.assert_agree(prog).status == conic.STATUS_OPTIMAL


def linear_barrier(cls, A: np.ndarray, b: np.ndarray) -> conic._Barrier:
    """A ``_Barrier`` (or subclass) over the linear rows A x <= b alone."""
    return cls(A, b, A.shape[0], np.zeros(0, dtype=np.intp), np.zeros(0))


class TestPhase1Lift:
    def test_sigma_bounds_every_margin(self, monkeypatch):
        """The barrier phase 1 builds over (x, sigma) calls a point strictly
        feasible exactly when sigma is above every margin of x."""
        built = []
        inner = conic._Barrier

        def capture(*args):
            built.append(inner(*args))
            return built[-1]

        monkeypatch.setattr(conic, "_Barrier", capture)
        rng = np.random.default_rng(11)
        for prog in [random_feasible_program(rng) for _ in range(6)] + segment_edge_programs(rng):
            hint = rng.uniform(-20, 20, prog.d)
            while prog.margin_values(hint).max() < 0.0:  # phase 1 runs only from an infeasible hint
                hint = rng.uniform(-20, 20, prog.d)
            built.clear()
            solve(prog, x_hint=hint)
            lifted = built[0]
            assert lifted.rows.shape[1] == prog.d + 1
            for _ in range(40):
                x = rng.uniform(-5, 5, prog.d)
                gmax = prog.margin_values(x).max()
                sigma = gmax + rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 1.0) * 10.0 ** rng.integers(0, 3)
                assert lifted.feasible(lifted.slacks(np.append(x, sigma))) == (sigma > gmax)


class TestNewtonStep:
    def test_indefinite_escalates_ridge(self):
        H = np.diag([1.0, -1e-9])
        rhs = np.array([1.0, 2.0])
        step = conic._solve_step(H, rhs)
        # Ridges 1e-14 ... 1e-10 leave H indefinite; 1e-8 is the first that works.
        assert step is not None
        assert np.allclose((H + 1e-8 * np.eye(2)) @ step, rhs, rtol=1e-12, atol=0.0)
        assert step == pytest.approx(oracle_solve_step(H, rhs), rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite(self, bad):
        H = np.array([[bad, 0.0], [0.0, 1.0]])
        assert conic._solve_step(H, np.ones(2)) is None
        barrier = linear_barrier(conic._Barrier, np.eye(2), np.ones(2))
        budget = conic._Budget(10)
        _, _, flag = conic._center(H, np.zeros(2), barrier, np.full(2, 0.5), 1.0, budget)
        assert flag == "numfail" and budget.spent == 0
        assert "non-finite entries" in budget.diagnostic

    def test_accepted_points_are_checked_directly(self):
        """A trial the moved slacks call feasible is accepted only if the
        direct product agrees; a cut seen only by the direct product shows it."""

        class HiddenCut(conic._Barrier):
            def slacks(self, x):
                out = super().slacks(x)
                if x[0] > 0.5:
                    out[0] = -1.0
                return out

        barrier = linear_barrier(HiddenCut, np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        accepted = []
        budget = conic._Budget(100)
        x, slacks, _ = conic._center(
            np.zeros((1, 1)), -np.ones(1), barrier, np.zeros(1), 10.0, budget, early_exit=accepted.append
        )
        assert accepted and max(pt[0] for pt in accepted) <= 0.5
        assert x[0] <= 0.5 and np.array_equal(slacks, barrier.slacks(x))


def origin_feasible_lp(rng: np.random.Generator, rows: int = 200, d: int = 6) -> ConicProgram:
    """Random rows with positive right-hand sides, so x = 0 is strictly feasible."""
    A = rng.standard_normal((rows, d))
    return ConicProgram(P=np.zeros((d, d)), c=rng.uniform(-5, 5, d), A_u=A, b_u=rng.uniform(0.1, 1.0, rows))


class TestPrimalDual:
    """Phase 2 of programs whose rows are all linear: the primal-dual path."""

    def test_accepted_iterates_are_checked_directly(self):
        """A step the ratio test allows is accepted only if the direct product
        agrees; a cut seen only by the direct product shows it."""

        class HiddenCut(conic._Barrier):
            def slacks(self, x):
                out = super().slacks(x)
                self.proposed.append(x[0])
                if x[0] > 0.5:
                    out[0] = -1.0
                return out

        prog = ConicProgram(P=np.zeros((1, 1)), c=-np.ones(1), A_u=np.array([[1.0], [-1.0]]), b_u=np.ones(2))
        barrier = linear_barrier(HiddenCut, prog.A_u, prog.b_u)
        barrier.proposed = []
        budget = conic._Budget(30)
        x, flag, gap, _ = conic._primal_dual(prog, barrier, np.zeros(1), 1.0, budget, 1e-6)
        assert max(barrier.proposed) > 0.5  # the cut was reached
        assert flag == "budget" and budget.spent == 30
        assert 0.0 < x[0] <= 0.5 and gap > 0.1  # optimal only beyond the cut

    def test_budget_gives_iteration_limit(self):
        prog = origin_feasible_lp(np.random.default_rng(9))
        assert solve(prog).status == conic.STATUS_OPTIMAL
        out = solve(prog, SolverOptions(max_iter=4))  # x = 0 is strictly feasible: phase 1 takes no step
        assert out.status == conic.STATUS_ITERATION_LIMIT and out.iterations == 4
        assert out.diagnostic == "iteration budget exhausted in phase 2"
        assert prog.margin_values(out.x).max() < 0.0
        assert 1e-6 * max(1.0, abs(out.objective)) < out.gap < math.inf

    def test_small_gap_alone_does_not_stop(self):
        """Started at t = 1e12, s'z = m / t is already below tol, but z is far
        from dual feasible: the path goes on until the dual residual is below
        its bound too."""
        prog = origin_feasible_lp(np.random.default_rng(10))
        budget = conic._Budget(500)
        tol = SolverOptions().tol
        barrier = linear_barrier(conic._Barrier, prog.A_u, prog.b_u)
        x, flag, gap, dual = conic._primal_dual(prog, barrier, np.zeros(prog.d), 1e12, budget, tol)
        assert flag == "optimal" and budget.spent > 0
        assert dual <= tol * max(1.0, float(np.abs(prog.c).max()))
        ref = solve(prog).objective
        assert abs(prog.objective(x) - ref) <= tol * max(1.0, abs(ref))

    def test_non_finite_newton_system(self):
        # Slack 1e-160 at the start: z / s = 1 / (t s^2) overflows.
        A, b = np.array([[1.0], [-1.0]]), np.array([1.0, 1e-160])
        prog = ConicProgram(P=np.zeros((1, 1)), c=np.ones(1), A_u=A, b_u=b)
        with np.errstate(over="ignore"):
            out = solve(prog)
        assert out.status == conic.STATUS_NUMERICAL_FAILURE
        assert out.diagnostic.startswith("phase 2:") and "non-finite entries" in out.diagnostic
        assert out.iterations == 0

    @pytest.mark.parametrize("rows, d, quadratic", LINEAR_ROW_SIZES)
    def test_optimal_certificate(self, rows, d, quadratic):
        """On "optimal": s'z <= tol max(1, |f|), ||Px + c + A'z||_inf <= tol max(1, ||Px + c||_inf)."""
        rng = np.random.default_rng(rows + d + 1)
        tol = SolverOptions().tol
        for _ in range(2):
            prog = random_linear_program(rng, rows, d, quadratic)
            out = solve(prog)
            assert out.status == conic.STATUS_OPTIMAL
            assert 0.0 < out.gap <= tol * max(1.0, abs(out.objective))
            assert out.dual_residual <= tol * max(1.0, float(np.abs(prog.P @ out.x + prog.c).max()))
            assert prog.margin_values(out.x).max() < 0.0


class TestAgainstHighs:
    """P = 0 programs against scipy's HiGHS LP solver, to ``tol`` relative."""

    @staticmethod
    def assert_agree(prog, opts=SolverOptions()):
        mine = solve(prog, opts)
        ref = linprog(prog.c, A_ub=prog.A_u, b_ub=prog.b_u, bounds=(None, None), method="highs")
        if ref.status == 2:
            assert mine.status == conic.STATUS_INFEASIBLE
            return mine
        assert ref.status == 0 and mine.status == conic.STATUS_OPTIMAL
        assert abs(mine.objective - ref.fun) <= opts.tol * max(1.0, abs(ref.fun))
        return mine

    @pytest.mark.parametrize("rows, d", [(5, 2), (60, 3), (300, 5), (2000, 4), (2000, 12)])
    def test_random_linear_programs(self, rows, d):
        rng = np.random.default_rng(rows * d)
        for _ in range(3):
            self.assert_agree(random_linear_program(rng, rows, d, quadratic=False))

    def test_scenario_lp(self, two_bus_cfg, monkeypatch):
        linear = Cost((np.zeros((2, 2)),), two_bus_cfg.cost().linear)
        prog = captured_scenario_program(monkeypatch, two_bus_cfg, linear, ScenarioConfig(alpha=0.01, rng_seed=3))
        assert not prog.P.any() and prog.A_u.shape[0] > 1000
        self.assert_agree(prog)

    def test_infeasible_box(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([-1.0, -1.0])  # u <= -1 and u >= 1
        self.assert_agree(ConicProgram(P=np.zeros((1, 1)), c=np.ones(1), A_u=A, b_u=b))
