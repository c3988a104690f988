"""Scenario baseline: sample counts, reproducibility, behavioural trends."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vpcc
from vpcc import conic, scenario
from vpcc.acs import Cost
from vpcc.errors import DomainError, SamplerMissing
from vpcc.moments import RandomMatrixModel, SystemSpec
from vpcc.reformulate import RowSet
from vpcc.scenario import (
    ScenarioConfig,
    _distinct_rows,
    required_samples,
    sample_count_note,
    sample_state_matrices,
    solve_scenario,
)
from vpcc.stochastics import finite_support
from conftest import (
    deterministic_spec,
    mixed_family_spec,
    sampled_rows,
    scalar_iid_spec,
    two_point_spec,
    unordered_rows,
    unreduced_scenario_program,
)
from mc_oracle import sample_batch
from scenario_oracle import oracle_rows, oracle_state_matrices, oracle_tightest_rows


def mixed_family_rows() -> list:
    return [
        vpcc.ConstraintRow(G=np.array([1.0, 0.0, 0.0]), h=4.0, k=1, id="a"),
        vpcc.ConstraintRow(G=np.array([0.5, -1.0, 2.0]), h=7.0, k=1, id="b"),
        vpcc.ConstraintRow(G=np.array([0.0, 1.0, 1.0]), h=-3.0, k=3, id="c"),
    ]


class TestRequiredSamples:
    def test_reference_counts(self):
        assert required_samples(0.16, 0.001) == 112
        assert required_samples(0.01, 0.001) == 1782

    def test_decision_dimension(self):
        # (2/0.05)(ln(1000) + 12) = 756.3
        assert required_samples(0.05, 0.001, d=12) == 757
        assert required_samples(0.05, 0.001, d=2) == required_samples(0.05, 0.001) == 357

    def test_synthetic_exact(self):
        # alpha = 1, beta = e^-1: (2/1)(1 + 2) = 6 exactly
        assert required_samples(1.0, math.exp(-1.0)) == 6

    def test_note_documents_floor_discrepancy(self):
        note = sample_count_note(0.01, 0.001)
        assert "1782" in note and "1781" in note

    def test_domain(self):
        with pytest.raises(DomainError):
            required_samples(0.0, 0.001)
        with pytest.raises(DomainError):
            required_samples(0.1, 1.0)
        with pytest.raises(DomainError):
            ScenarioConfig(sample_count=0)


class TestSampling:
    def test_counter_based_reproducibility(self, two_bus_spec):
        for spec in (two_bus_spec, mixed_family_spec()):
            a = sample_state_matrices(spec, seed=5, count=8)
            b = sample_state_matrices(spec, seed=5, count=8)
            assert np.array_equal(a, b)
            # batch b has the same size in every draw that fills it, so a
            # draw of whole batches is a prefix of every longer draw
            full = sample_state_matrices(spec, seed=5, count=4096)
            for extra in (1, 7):
                assert np.array_equal(sample_state_matrices(spec, seed=5, count=4096 + extra)[:4096], full)

    def test_sampler_missing(self):
        spec = SystemSpec(
            horizon=1,
            a_models=(RandomMatrixModel([[1.0]], [[1.0]], ((0, 0, None),)),),
            B=np.array([[1.0]]),
            x0=np.array([1.0]),
            A_u=np.array([[1.0], [-1.0]]),
            b_u=np.array([5.0, 5.0]),
        )
        with pytest.raises(SamplerMissing):
            sample_state_matrices(spec, seed=0, count=2)


class TestAgainstOracle:
    """The batched sampler and row assembly against the per-scenario loop."""

    @pytest.mark.parametrize("count", [0, 1, 2, 57])
    def test_mixed_families_bit_identical(self, count):
        """Every family and power, then two-point entries only, whose draws
        are one run of fifteen uniforms over the horizon."""
        for spec in (mixed_family_spec(), two_point_spec()):
            assert np.array_equal(sample_state_matrices(spec, 3, count), oracle_state_matrices(spec, 3, count))

    def test_two_bus_bit_identical(self, two_bus_spec):
        assert np.array_equal(sample_state_matrices(two_bus_spec, 11, 112), oracle_state_matrices(two_bus_spec, 11, 112))

    def test_scenarios_are_mc_trajectories(self, two_bus_spec):
        """A draw across two batches, against MC's reference sampler on each
        batch's stream: scenario s is trajectory s of an MC run."""
        for spec in (mixed_family_spec(), two_bus_spec):
            matrices = sample_state_matrices(spec, 3, 4096 + 5)
            first = 0
            for b, size in enumerate((4096, 5)):
                rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(b,)))
                for t, model in enumerate(spec.a_models):
                    assert np.array_equal(matrices[first : first + size, t], sample_batch(model, rng, size))
                first += size

    @pytest.mark.parametrize("count", [1, 57])
    def test_rows(self, count):
        spec = mixed_family_spec()
        matrices = sample_state_matrices(spec, 5, count)
        coef, rhs = sampled_rows(spec, matrices, mixed_family_rows())
        ref_coef, ref_rhs = oracle_rows(spec, matrices, mixed_family_rows())
        assert coef.shape == (3 * count, spec.input_dim)
        assert np.array_equal(coef, ref_coef)
        assert np.allclose(rhs, ref_rhs, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("count", [1, 57])
    def test_rows_out_of_step_order(self, count):
        spec = mixed_family_spec()
        matrices = sample_state_matrices(spec, 5, count)
        coef, rhs = sampled_rows(spec, matrices, unordered_rows())
        ref_coef, ref_rhs = oracle_rows(spec, matrices, unordered_rows())
        assert coef.shape == (3 * count, spec.input_dim)
        assert np.array_equal(coef, ref_coef)
        assert np.array_equal(rhs, ref_rhs)

    def test_two_bus_rows(self, two_bus_cfg):
        spec = two_bus_cfg.system_spec()
        rows = two_bus_cfg.constraint_rows()
        matrices = sample_state_matrices(spec, 2, 112)
        coef, rhs = sampled_rows(spec, matrices, rows)
        ref_coef, ref_rhs = oracle_rows(spec, matrices, rows)
        assert np.array_equal(coef, ref_coef)
        assert np.allclose(rhs, ref_rhs, rtol=1e-12, atol=0.0)


class TestDistinctRows:
    """The tightest row per coefficient vector against a dict oracle: same rows, same order."""

    @staticmethod
    def assert_matches_oracle(A, b):
        kept_A, kept_b = _distinct_rows(A, b)
        want_A, want_b = oracle_tightest_rows(A, b)
        assert np.array_equal(kept_A, want_A) and np.array_equal(kept_b, want_b)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_rows_with_duplicates(self, seed):
        rng = np.random.default_rng(seed)
        for rows, width in [(1, 3), (40, 2), (500, 4), (3000, 13)]:
            base = np.round(rng.standard_normal((rows, width)), int(rng.integers(0, 3)))
            stacked = np.vstack([base, base[rng.integers(0, rows, rows // 2 + 1)]])
            stacked = stacked[rng.permutation(stacked.shape[0])]
            self.assert_matches_oracle(stacked[:, :-1], stacked[:, -1])

    def test_equal_coefficients_keep_smallest_rhs(self):
        A = np.array([[1.0, -2.0], [0.5, 3.0], [1.0, -2.0], [1.0, -2.0]])
        b = np.array([3.0, 7.0, -1.5, 0.25])
        kept_A, kept_b = _distinct_rows(A, b)
        assert np.array_equal(kept_A, [[0.5, 3.0], [1.0, -2.0]])
        assert np.array_equal(kept_b, [7.0, -1.5])

    @pytest.mark.parametrize("case", ["two_bus", "mixed_family"])
    def test_scenario_rows(self, case, two_bus_cfg):
        if case == "two_bus":
            spec, rows = two_bus_cfg.system_spec(), two_bus_cfg.constraint_rows()
        else:
            spec, rows = mixed_family_spec(), mixed_family_rows()
        coef, rhs = sampled_rows(spec, sample_state_matrices(spec, 4, 300), rows)
        A_poly, b_poly = spec.stacked_polytope()
        A, b = np.vstack([coef, A_poly]), np.concatenate([rhs, b_poly])
        self.assert_matches_oracle(np.vstack([A, A[::3]]), np.concatenate([b, b[::3]]))  # with every third row twice


# Entries of the sharing cases: zeros most often, so a random entry can sit in
# a column whose state row is still zero, or meet a nonzero one. Every value,
# drawn or fixed, is a short dyadic fraction, so every product and sum is
# exact and the batched rows equal the oracle's bit for bit, whatever order
# BLAS adds in.
LEVELS = (0.0, 0.0, 0.0, -0.5, 0.25, 1.0)
RANDOM_ENTRIES = (
    finite_support([0.5, 1.5], [0.5, 0.5]),
    finite_support([-1.0, 0.25, 2.0], [0.25, 0.5, 0.25]),
    finite_support([0.75, 1.25], [0.5, 0.5], power=2),
)


@st.composite
def sharing_cases(draw):
    """A small spec whose B reaches some state rows and not others, up to two
    random entries per step in columns of each kind, x0 with zero entries,
    and rows at any step in any order."""
    n, horizon, m = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    reached = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
    B = np.zeros((n, m))
    for i in reached:
        B[i] = draw(st.lists(st.sampled_from((-1.5, 0.5, 2.0)), min_size=m, max_size=m))
    models = []
    for _ in range(horizon):
        grid = draw(st.lists(st.lists(st.sampled_from(LEVELS), min_size=n, max_size=n), min_size=n, max_size=n))
        for columns in (reached, sorted(set(range(n)) - set(reached))):
            for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(columns)), max_size=2)):
                grid[i][j] = draw(st.sampled_from(RANDOM_ENTRIES))
        models.append(RandomMatrixModel.from_grid(grid))
    x0 = np.array(draw(st.lists(st.sampled_from((0.0, 0.0, 1.0, -2.0)), min_size=n, max_size=n)))
    level = st.sampled_from((-1.0, 0.0, 0.5, 1.0))
    rows = []
    for q in range(draw(st.integers(1, 4))):
        G = np.array(draw(st.lists(level, min_size=n, max_size=n)))
        rows.append(vpcc.ConstraintRow(G=G, h=draw(level), k=draw(st.integers(1, horizon)), id=f"r{q}"))
    box = np.vstack([np.eye(m), -np.eye(m)]), np.full(2 * m, 5.0)
    return SystemSpec(horizon=horizon, a_models=tuple(models), B=B, x0=x0, A_u=box[0], b_u=box[1]), rows


class TestSharedRows:
    """Rows that no sample changes are built once, and the program is still
    the tightest of every sampled row."""

    @given(case=sharing_cases(), count=st.sampled_from((1, 57, 4096 + 5)), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_program_is_the_tightest_of_every_sampled_row(self, case, count, seed):
        spec, rows = case
        programs = []
        inner = conic.solve

        def record(program, opts=None, x_hint=None):
            programs.append(program)
            return inner(program, opts, x_hint=x_hint)

        cost = Cost.repeated(np.eye(spec.m), np.zeros(spec.m), spec.horizon)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(conic, "solve", record)
            solve_scenario(spec, RowSet(tuple(rows), 0.05), cost, ScenarioConfig(sample_count=count, rng_seed=seed))
        (program,) = programs
        coef, rhs = oracle_rows(spec, sample_state_matrices(spec, seed, count), rows)
        A_poly, b_poly = spec.stacked_polytope()
        want_A, want_b = oracle_tightest_rows(np.vstack([coef, A_poly]), np.concatenate([rhs, b_poly]))
        assert np.array_equal(program.A_u, want_A)
        assert np.array_equal(program.b_u, want_b)

    def test_two_bus_sorts_shared_rows(self, two_bus_cfg, monkeypatch):
        """A 0.99 cell hands the sort its 2 shared constraint rows and the 4
        polytope rows, not one row per scenario and constraint (3568)."""
        sizes = []
        inner = scenario._distinct_rows

        def record(A, b):
            sizes.append(A.shape[0])
            return inner(A, b)

        monkeypatch.setattr(scenario, "_distinct_rows", record)
        cfg = two_bus_cfg.with_alpha(0.01)
        report = solve_scenario(cfg.system_spec(), cfg.row_set(), cfg.cost(), cfg.scenario_config(seed=3))
        assert report.sample_count == 1782 and sizes == [6]


class TestUnreducedEquivalence:
    """``solve_scenario`` against ``conic.solve`` on every sampled row and the
    polytope: the same optimum to the solver's ``tol``, relative, and a ``U``
    strictly inside every one of those rows."""

    @staticmethod
    def assert_equivalent(spec, rows, cost, sc):
        report = solve_scenario(spec, rows, cost, sc)
        prog = unreduced_scenario_program(spec, rows, cost, sc)
        full = conic.solve(prog)
        assert report.status == full.status == "optimal"
        ref = cost.value(full.x)
        assert abs(report.objective - ref) <= conic.SolverOptions().tol * max(1.0, abs(ref))
        assert (prog.A_u @ np.asarray(report.U).ravel() < prog.b_u).all()

    @pytest.mark.parametrize("alpha", [0.01, 0.16])
    def test_two_bus(self, alpha, two_bus_cfg):
        cfg = two_bus_cfg.with_alpha(alpha)
        for seed in range(3):
            self.assert_equivalent(cfg.system_spec(), cfg.row_set(), cfg.cost(), cfg.scenario_config(seed=seed))

    @pytest.mark.parametrize("linear", [0.0, -10.0])
    def test_mixed_family(self, linear):
        rows = RowSet(tuple(mixed_family_rows()), 0.05)
        cost = Cost.repeated(np.eye(2), np.full(2, linear), 3)
        for seed in range(3):
            self.assert_equivalent(mixed_family_spec(), rows, cost, ScenarioConfig(rng_seed=seed))


class TestSolveScenario:
    def test_level_comes_from_the_row_set(self, two_bus_cfg):
        spec, rows, cost = two_bus_cfg.system_spec(), two_bus_cfg.constraint_rows(), two_bus_cfg.cost()
        for alpha, count in ((0.16, 112), (0.01, 1782)):
            report = solve_scenario(spec, RowSet(rows, alpha), cost, ScenarioConfig(rng_seed=3))
            assert (report.alpha, report.sample_count) == (alpha, count)

    def test_row_past_the_horizon_raises(self, two_bus_cfg):
        spec, (row, *_) = two_bus_cfg.system_spec(), two_bus_cfg.constraint_rows()
        late = RowSet((vpcc.ConstraintRow(G=row.G, h=row.h, k=2, id="late@k2"),), 0.16)
        with pytest.raises(DomainError, match=r"outside time steps 1\.\.1: late@k2"):
            solve_scenario(spec, late, two_bus_cfg.cost(), ScenarioConfig(rng_seed=3))

    def test_deterministic_spec_equals_nominal_qp(self):
        A = np.array([[0.5]])
        spec = deterministic_spec(A, np.eye(1), np.array([1.0]), horizon=1, box=4.0)
        rows = RowSet((vpcc.ConstraintRow(G=np.array([1.0]), h=100.0, k=1, id="r"),), 0.2)
        cost = Cost.repeated(np.eye(1), np.array([2.0]), 1)
        report = solve_scenario(spec, rows, cost, ScenarioConfig(sample_count=25, rng_seed=1))
        assert report.status == "optimal"
        # all samples identical: the nominal QP optimum u = -1
        assert np.asarray(report.U).ravel() == pytest.approx([-1.0], abs=1e-5)

    def test_two_bus_feasible_and_reproducible(self, two_bus_cfg):
        spec = two_bus_cfg.system_spec()
        rows = two_bus_cfg.row_set()
        sc = two_bus_cfg.scenario_config(seed=11)
        one = solve_scenario(spec, rows, two_bus_cfg.cost(), sc)
        two = solve_scenario(spec, rows, two_bus_cfg.cost(), sc)
        assert one.status == "optimal"
        assert one.sample_count == 112
        assert one.U == two.U
        assert one.objective == two.objective
        u = np.asarray(one.U).ravel()
        assert np.all(u >= 60.0 - 1e-6) and np.all(u <= 600.0 + 1e-6)

    def test_two_bus_high_safety_remains_feasible(self, two_bus_cfg):
        cfg = two_bus_cfg.with_alpha(0.01)
        report = solve_scenario(
            cfg.system_spec(), cfg.row_set(), cfg.cost(), cfg.scenario_config(seed=3)
        )
        assert report.status == "optimal"
        assert report.sample_count == 1782
        assert any("1781" in note for note in report.notes)

    def test_report_notes_decision_dimension(self, two_bus_cfg):
        two_bus = solve_scenario(
            two_bus_cfg.system_spec(), two_bus_cfg.row_set(), two_bus_cfg.cost(), two_bus_cfg.scenario_config(seed=3)
        )
        assert not any("decision dimension" in note for note in two_bus.notes)
        spec = mixed_family_spec()
        rows = RowSet(tuple(mixed_family_rows()), 0.05)
        cost = Cost.repeated(np.eye(2), np.zeros(2), 3)
        report = solve_scenario(spec, rows, cost, ScenarioConfig())
        assert report.sample_count == 357
        (note,) = [note for note in report.notes if "decision dimension" in note]
        # (2/0.05)(ln(1000) + 6) = 516.3
        assert "d = N*m = 6" in note and "requires 517 samples" in note and "357 were drawn" in note

    def test_objective_trend_in_sample_count(self, two_bus_cfg):
        """More scenarios can only shrink the feasible set, so the median
        objective over seeds is non-decreasing in the sample count."""
        spec = two_bus_cfg.system_spec()
        rows = two_bus_cfg.row_set()
        cost = two_bus_cfg.cost()
        medians = []
        for count in (20, 112, 400):
            objs = []
            for seed in range(20):
                sc = ScenarioConfig(sample_count=count, rng_seed=seed)
                rep = solve_scenario(spec, rows, cost, sc)
                assert rep.status == "optimal"
                objs.append(rep.objective)
            medians.append(float(np.median(objs)))
        assert medians[0] <= medians[1] <= medians[2]

    def test_more_samples_only_tightens_fixed_seed(self, two_bus_cfg):
        """With a fixed seed the first N scenarios are a prefix, so the
        objective is monotone in the count outright."""
        spec = two_bus_cfg.system_spec()
        rows = two_bus_cfg.row_set()
        cost = two_bus_cfg.cost()
        objs = []
        for count in (20, 112, 400):
            rep = solve_scenario(spec, rows, cost, ScenarioConfig(sample_count=count, rng_seed=7))
            objs.append(rep.objective)
        assert objs[0] <= objs[1] + 1e-6 and objs[1] <= objs[2] + 1e-6

    def test_scalar_chain_with_horizon(self):
        spec = scalar_iid_spec(horizon=2)
        rows = RowSet((vpcc.ConstraintRow(G=np.array([1.0]), h=6.0, k=2, id="end"),), 0.2)
        cost = Cost.repeated(np.eye(1), np.array([-2.0]), 2)
        report = solve_scenario(spec, rows, cost, ScenarioConfig(sample_count=64, rng_seed=5))
        assert report.status == "optimal"
        # every sampled trajectory respects the bound at the solution
        mats = sample_state_matrices(spec, seed=5, count=64)
        U = np.asarray(report.U)
        for s in range(64):
            x = spec.x0.copy()
            for t in range(2):
                x = mats[s, t] @ x + spec.B @ U[t]
            assert float(x[0]) <= 6.0 + 1e-5
