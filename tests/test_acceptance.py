"""Acceptance gate: every release criterion, each printing one PASS line.

 1. Two-bus moment regression against the closed-form factors.
 2. Closed-form moments equal exhaustive enumeration on 25 random systems.
 3. Tail-bound boundary value and round-trip identity.
 4. Scenario sample counts, with the rounding discrepancy documented.
 5. Sweep feasibility pattern: proposed feasible except at 1-alpha = 0.99.
 6. Monte-Carlo certification of every proposed sweep solution.
 7. Cost and solve-time trends between the two methods.
 8. Search sanity: monotone objective traces, step-invariant solutions.
 9. In-repo conic solver against an independent reference solver.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import vpcc
from vpcc import acs, conic
from vpcc.reformulate import LAMBDA_FLOOR
from vpcc.scenario import (
    ScenarioConfig,
    required_samples,
    sample_count_note,
    sample_state_matrices,
    solve_scenario,
)
from vpcc.stochastics import mc_certify

from conftest import sampled_rows
from enum_oracle import enumerate_margin, random_finite_system

GRID = [0.84, 0.86, 0.88, 0.90, 0.92, 0.94, 0.96, 0.98, 0.99]


def report_line(num: int, text: str):
    print(f"[criterion {num}] PASS: {text}")


@pytest.fixture(scope="module")
def sweep_results(two_bus_cfg):
    """One full sweep of both methods over GRID, reused by criteria 5-8."""
    start = time.perf_counter()
    results = {}
    for idx, point in enumerate(GRID):
        cfg = two_bus_cfg.with_alpha(round(1.0 - point, 12))
        spec = cfg.system_spec()
        proposed = acs.run(spec, cfg.jcc(), cfg.cost(), cfg.acs_config())
        scen = solve_scenario(spec, cfg.row_set(), cfg.cost(), cfg.scenario_config(seed=idx))
        results[point] = {"cfg": cfg, "spec": spec, "proposed": proposed, "scenario": scen}
    results["wall_s"] = time.perf_counter() - start
    return results


class TestCriterion1:
    def test_two_bus_moment_regression(self, two_bus_spec):
        start = time.perf_counter()
        c_w, c_l = 0.813, 1600.0
        line = vpcc.constraint_moments(two_bus_spec, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), 1)
        balance = vpcc.constraint_moments(
            two_bus_spec, np.array([-1.0, -1.0, 0.0, -1.0, 0.0, 1.0]), 1
        )
        mean_factor = line.b / c_w
        var_factor = line.r / c_w**2
        beta_factor = (balance.r - line.r) / c_l**2
        elapsed = time.perf_counter() - start

        assert mean_factor == pytest.approx(118.9188, abs=1e-3)
        assert var_factor == pytest.approx(204.6946, abs=0.05)
        assert beta_factor == pytest.approx(2500.0 / (1e4 * 101.0), rel=1e-9)
        assert abs(beta_factor - 0.0025) < 5e-5  # the commonly quoted rounding
        assert elapsed < 1.0
        report_line(
            1,
            f"mean factor {mean_factor:.4f}, var factor {var_factor:.4f}, "
            f"beta variance exact {beta_factor:.7f} (quoted rounded 0.0025), {elapsed * 1e3:.0f} ms",
        )


class TestCriterion2:
    def test_enumeration_equivalence_25_systems(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20240814)
        checked = 0
        for _ in range(25):
            spec, G, k, U = random_finite_system(rng)
            m = vpcc.constraint_moments(spec, G, k)
            mean_e, var_e = enumerate_margin(spec, G, k, U)
            assert m.mean(U) == pytest.approx(mean_e, rel=1e-10, abs=1e-10)
            assert m.variance(U) == pytest.approx(var_e, rel=1e-10, abs=1e-10)
            checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 25
        assert elapsed < 30.0
        report_line(2, f"25 randomized finite-support systems matched enumeration in {elapsed:.1f} s")


class TestCriterion3:
    def test_boundary_and_round_trip(self):
        exact = Fraction(4, 1) / (9 * (Fraction(5, 3) + 1))
        assert exact == Fraction(1, 6)
        assert vpcc.vp_bound(LAMBDA_FLOOR + 1e-9) == pytest.approx(1.0 / 6.0, abs=1e-8)
        with pytest.raises(vpcc.DomainError):
            vpcc.vp_bound(LAMBDA_FLOOR)  # the floor itself is excluded

        grid = np.linspace(LAMBDA_FLOOR + 1e-6, 80.0, 1000)
        worst = 0.0
        for lam in grid:
            back = vpcc.risk_to_lambda(vpcc.vp_bound(lam))
            worst = max(worst, abs(back - lam) / lam)
        assert worst <= 1e-12
        report_line(3, f"boundary value 1/6 exact; worst round-trip error {worst:.2e} over 1000 points")


class TestCriterion4:
    def test_sample_counts(self):
        assert required_samples(0.16, 0.001) == 112
        assert required_samples(0.01, 0.001) == 1782
        note = sample_count_note(0.01, 0.001)
        assert "1782" in note and "1781" in note
        report_line(4, f"counts 112 and 1782; note: {note}")


class TestCriterion5:
    def test_feasibility_pattern(self, sweep_results):
        for point in GRID:
            proposed = sweep_results[point]["proposed"]
            scen = sweep_results[point]["scenario"]
            if point == 0.99:
                assert proposed.status == "infeasible", f"expected infeasible at {point}"
            else:
                assert proposed.status == "optimal", f"expected feasible at {point}"
                assert proposed.feasibility["feasible"]
            assert scen.status == "optimal", f"scenario must stay feasible at {point}"
        assert sweep_results["wall_s"] < 600.0
        report_line(
            5,
            f"proposed feasible at 1-alpha in [0.84, 0.98], infeasible at 0.99; "
            f"scenario feasible everywhere ({sweep_results['wall_s']:.1f} s)",
        )


class TestCriterion6:
    def test_mc_certification_of_sweep_solutions(self, sweep_results):
        bounds, used = [], []
        for point in GRID:
            if point == 0.99:
                continue
            entry = sweep_results[point]
            proposed = entry["proposed"]
            cert = mc_certify(
                entry["spec"],
                entry["cfg"].jcc(),
                np.asarray(proposed.U).ravel(),
                samples=10**5,
                seed=1000 + int(point * 100),
            )
            assert cert.upper_ci_99 <= entry["cfg"].alpha, (
                f"violation bound {cert.upper_ci_99:.4f} exceeds {entry['cfg'].alpha} at {point}"
            )
            bounds.append(cert.upper_ci_99)
            used.append(cert.samples_used)
        report_line(
            6,
            f"99% upper violation bounds within budget at every feasible point "
            f"(max bound {max(bounds):.4f}); budget 1e5 samples each, at most {max(used)} drawn",
        )


class TestCriterion7:
    def test_cost_trend(self, sweep_results, two_bus_cfg):
        proposed_084 = sweep_results[0.84]["proposed"].objective
        proposed_098 = sweep_results[0.98]["proposed"].objective
        scen_costs = {0.84: [], 0.98: []}
        for point in (0.84, 0.98):
            cfg = two_bus_cfg.with_alpha(round(1.0 - point, 12))
            spec = cfg.system_spec()
            for seed in range(5):
                rep = solve_scenario(spec, cfg.row_set(), cfg.cost(), cfg.scenario_config(seed=seed))
                assert rep.status == "optimal"
                scen_costs[point].append(rep.objective)
        scen_084 = float(np.median(scen_costs[0.84]))
        scen_098 = float(np.median(scen_costs[0.98]))
        assert proposed_084 < scen_084, "proposed must be cheaper at the low-safety end"
        assert proposed_098 > scen_098, "conservatism must show at the high-safety end"
        report_line(
            7,
            f"cost trend: proposed {proposed_084:.0f} < scenario {scen_084:.0f} at 0.84; "
            f"proposed {proposed_098:.0f} > scenario {scen_098:.0f} at 0.98",
        )

    def test_solve_time_trend(self, two_bus_cfg):
        """Proposed solve times stay within 10x across the sweep (median of 3
        repeats per point; the solver is deterministic, the clock is not).
        Scenario work grows with the sample count: for each of 5 seeds the
        0.99-equivalent count samples at least 5x the distinct rows
        (coefficients and right-hand side) of the 0.84-equivalent count, and
        its time exceeds the smaller count's (medians over the 5 seeds of
        the median of 3 repeats per seed and count)."""
        proposed_times = []
        for point in GRID[:-1]:
            cfg = two_bus_cfg.with_alpha(round(1.0 - point, 12))
            spec = cfg.system_spec()
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                rep = acs.run(spec, cfg.jcc(), cfg.cost(), cfg.acs_config())
                times.append(time.perf_counter() - t0)
                assert rep.status == "optimal"
            proposed_times.append(float(np.median(times)))
        spread = max(proposed_times) / min(proposed_times)
        assert spread < 10.0, f"proposed time spread {spread:.1f}x"

        spec = two_bus_cfg.system_spec()
        rows = two_bus_cfg.row_set()
        cost = two_bus_cfg.cost()
        small, large = [], []
        for seed in range(5):
            distinct = {}
            for count, medians in ((112, small), (1782, large)):
                coef, rhs = sampled_rows(spec, sample_state_matrices(spec, seed, count), rows.rows)
                distinct[count] = len(np.unique(np.column_stack((coef, rhs)), axis=0))
                times = []
                for _ in range(3):
                    t0 = time.perf_counter()
                    solve_scenario(spec, rows, cost, ScenarioConfig(sample_count=count, rng_seed=seed))
                    times.append(time.perf_counter() - t0)
                medians.append(float(np.median(times)))
            assert distinct[1782] >= 5 * distinct[112], f"seed {seed}: distinct sampled rows {distinct}"
        ratio = float(np.median(large)) / float(np.median(small))
        assert ratio > 1.0, f"scenario time ratio {ratio:.2f}x"
        report_line(
            7,
            f"time trend: proposed spread {spread:.1f}x (< 10x); scenario 1782 samples give "
            f"{distinct[1782]} distinct sampled rows against {distinct[112]} at 112 (>= 5x), "
            f"in {ratio:.1f}x the time (> 1x)",
        )


class TestCriterion8:
    def test_objective_traces_non_increasing(self, sweep_results):
        tol = 10.0 * 1e-6
        for point in GRID[:-1]:
            trace = sweep_results[point]["proposed"].trace
            objs = [t["objective"] for t in trace if t["objective"] is not None]
            for earlier, later in zip(objs, objs[1:]):
                assert later <= earlier + tol * max(1.0, abs(earlier)), f"trace rose at {point}"
        report_line(8, "objective traces non-increasing at every feasible sweep point")

    def test_step_invariant_controller(self, sweep_results, two_bus_cfg):
        # Sweep solutions (horizon 1) trivially satisfy this; the horizon-3
        # variant exercises it for real.
        for point in GRID[:-1]:
            U = np.asarray(sweep_results[point]["proposed"].U)
            assert np.abs(U - U[0]).max() <= 1e-4
        data = two_bus_cfg.to_dict()
        data["system"]["horizon"] = 3
        cfg = vpcc.parse_config(data)
        rep = acs.run(cfg.system_spec(), cfg.jcc(), cfg.cost(), cfg.acs_config())
        assert rep.status == "optimal"
        U = np.asarray(rep.U)
        drift = np.abs(U - U[0]).max()
        assert drift <= 1e-4
        report_line(8, f"identical per-step inputs; horizon-3 drift {drift:.2e} <= 1e-4")


class TestCriterion9:
    def test_cross_solver_agreement(self):
        pytest.importorskip("cvxpy")
        from cvxpy_oracle import solve_reference
        from test_conic import random_feasible_program

        rng = np.random.default_rng(777)
        worst = 0.0
        for _ in range(10):
            prog = random_feasible_program(rng)
            mine = conic.solve(prog)
            ref = solve_reference(prog)
            assert mine.status == conic.STATUS_OPTIMAL and ref.status == conic.STATUS_OPTIMAL
            rel = abs(mine.objective - ref.objective) / max(1.0, abs(ref.objective))
            worst = max(worst, rel)
            assert rel <= 1e-4
        report_line(9, f"10 random fixed-multiplier subproblems; worst relative gap {worst:.2e}")

    def test_agreement_with_barrier_oracle(self):
        """The same check against the log-barrier reference in ``tests/conic_oracle.py``."""
        from conic_oracle import oracle_solve
        from test_conic import random_feasible_program

        rng = np.random.default_rng(777)
        worst = 0.0
        for _ in range(10):
            prog = random_feasible_program(rng)
            mine = conic.solve(prog)
            ref = oracle_solve(prog)
            assert mine.status == conic.STATUS_OPTIMAL and ref.status == conic.STATUS_OPTIMAL
            rel = abs(mine.objective - ref.objective) / max(1.0, abs(ref.objective))
            worst = max(worst, rel)
            assert rel <= 1e-4
        report_line(9, f"10 random fixed-multiplier subproblems against the barrier oracle; worst relative gap {worst:.2e}")
