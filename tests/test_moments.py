"""Moment propagation against independent enumeration and simulation oracles."""

import numpy as np
import pytest

from vpcc.errors import DomainError, NotPSD
from vpcc.reformulate import ConstraintRow
from vpcc.moments import (
    RandomMatrixModel,
    SystemSpec,
    _finalize_moments,
    constraint_moments,
    quad_form_mean,
)
from vpcc.stochastics import beta_dist, constant, finite_support, weibull

from conftest import coin_entry, deterministic_spec, scalar_iid_spec
from enum_oracle import enumerate_margin, mc_margin, random_finite_system
from moments_oracle import (
    column_covariance,
    oracle_constraint_moments,
    product_mean,
    product_vector_variance,
    stacked_column_selector,
)


def coin_model(n: int = 1) -> RandomMatrixModel:
    return RandomMatrixModel.from_grid([[coin_entry() for _ in range(n)] for _ in range(n)])


def pm_model() -> RandomMatrixModel:
    """2x2 matrix of independent +-1 entries: mean 0, variance 1."""
    entry = finite_support([-1.0, 1.0], [0.5, 0.5])
    return RandomMatrixModel.from_grid([[entry, entry], [entry, entry]])


def moments_only(mean: float, variance: float) -> RandomMatrixModel:
    """1x1 random matrix known only by its mean and variance."""
    return RandomMatrixModel([[mean]], [[variance]], ((0, 0, None),))


class TestProductMean:
    def test_single_deterministic(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(product_mean([RandomMatrixModel.deterministic(A)]), A)

    def test_two_unit_scalars(self):
        model = moments_only(1.0, 1.0)
        assert product_mean([model, model]) == pytest.approx(np.array([[1.0]]))

    def test_coin_product_mean_is_one(self):
        # support {0, 2} uniform per factor: outcomes {0, 0, 0, 4}, mean 1
        assert product_mean([coin_model(), coin_model()])[0, 0] == pytest.approx(1.0)

    def test_descending_order(self):
        A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
        A1 = np.array([[2.0, 0.0], [0.0, 3.0]])
        models = [RandomMatrixModel.deterministic(A0), RandomMatrixModel.deterministic(A1)]
        assert np.allclose(product_mean(models), A1 @ A0)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            product_mean([coin_model(1), coin_model(2)])
        with pytest.raises(DomainError):
            product_mean([])


class TestProductVectorVariance:
    def test_deterministic_is_zero(self):
        model = RandomMatrixModel.deterministic(np.array([[1.0, 0.5], [0.0, 2.0]]))
        out = product_vector_variance([model, model], np.array([1.0, -1.0]))
        assert np.allclose(out, 0.0)

    def test_single_scalar(self):
        assert product_vector_variance([coin_model()], np.array([1.0]))[0, 0] == pytest.approx(1.0)

    def test_two_iid_scalars(self):
        # Var(a1 a0) with mean 1, variance 1 factors: (1+1)^2 - 1 = 3
        out = product_vector_variance([coin_model(), coin_model()], np.array([1.0]))
        assert out[0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_matches_enumeration_on_random_products(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            spec, G, k, _ = random_finite_system(rng)
            closed = float(G @ product_vector_variance(spec.a_models[:k], spec.x0) @ G)
            mean_e, var_e = enumerate_margin(spec, G, k, np.zeros(spec.input_dim))
            assert closed == pytest.approx(var_e, rel=1e-10, abs=1e-10)


class TestQuadFormMean:
    def test_deterministic(self):
        Z = np.array([[1.0, 2.0], [0.0, 1.0]])
        S = np.array([[2.0, 1.0], [1.0, 3.0]])
        out = quad_form_mean(RandomMatrixModel.deterministic(Z), S)
        assert np.allclose(out, Z.T @ S @ Z)

    def test_scalar(self):
        model = moments_only(2.0, 0.25)
        assert quad_form_mean(model, np.array([[1.0]]))[0, 0] == pytest.approx(4.25)

    def test_centered_unit_entries(self):
        out = quad_form_mean(pm_model(), np.eye(2))
        assert np.allclose(out, 2.0 * np.eye(2), atol=1e-12)

    def test_against_enumeration(self):
        # E[Z' S Z] entry by entry over the 16 sign patterns of a +-1 matrix
        S = np.array([[1.0, 0.5], [0.5, 2.0]])
        total = np.zeros((2, 2))
        for bits in range(16):
            Z = np.array(
                [
                    [1.0 if bits & 1 else -1.0, 1.0 if bits & 2 else -1.0],
                    [1.0 if bits & 4 else -1.0, 1.0 if bits & 8 else -1.0],
                ]
            )
            total += Z.T @ S @ Z / 16.0
        assert np.allclose(quad_form_mean(pm_model(), S), total, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            quad_form_mean(pm_model(), np.eye(3))


class TestColumnCovariance:
    def test_disjoint_deterministic(self):
        model = RandomMatrixModel.deterministic(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = column_covariance([model, model], 0, 1, 0, 1)
        assert np.allclose(out, 0.0)

    def test_self_covariance_equals_variance(self):
        rng = np.random.default_rng(3)
        spec, _, k, _ = random_finite_system(rng)
        models = spec.a_models[:k]
        n = spec.n
        for a in range(k):
            for j in range(n):
                cov = column_covariance(models, a, a, j, j)
                var = product_vector_variance(models[a:], np.eye(n)[j])
                assert np.allclose(cov, var, atol=1e-12)

    def test_shared_factor_scalar(self):
        # Cov(a1 a0, a1) = E[a1^2] E[a0] - 1 = 1 for coin entries
        out = column_covariance([coin_model(), coin_model()], 0, 1, 0, 0)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_in_argument_order(self):
        rng = np.random.default_rng(11)
        spec, _, k, _ = random_finite_system(rng)
        models = spec.a_models[:k]
        n = spec.n
        for a in range(k):
            for b in range(k):
                for j in range(n):
                    for mm in range(n):
                        one = column_covariance(models, a, b, j, mm)
                        two = column_covariance(models, b, a, mm, j)
                        assert np.allclose(one, two.T, atol=1e-12)

    def test_index_errors(self):
        with pytest.raises(DomainError):
            column_covariance([coin_model()], 0, 1, 0, 0)
        with pytest.raises(DomainError):
            column_covariance([coin_model()], 0, 0, 0, 1)


class TestStackedColumnSelector:
    def test_against_brute_force_stacking(self):
        """The selector must reproduce a brute-force build of the stacked
        block row [prod A(k..1), prod A(k..2), ..., A(k), I, 0, ...]."""
        rng = np.random.default_rng(17)
        n, N = 2, 4
        mats = [rng.uniform(-1, 1, (n, n)) for _ in range(N)]
        for k in range(N):
            blocks = []
            for block in range(N):
                if block + 1 <= k:
                    prod = np.eye(n)
                    for t in range(block + 1, k + 1):
                        prod = mats[t] @ prod
                    blocks.append(prod)
                elif block == k:
                    blocks.append(np.eye(n))
                else:
                    blocks.append(np.zeros((n, n)))
            stacked = np.hstack(blocks)
            for j in range(n * N):
                sel = stacked_column_selector(n, N, k, j)
                if sel[0] == "product":
                    start, off = sel[1], sel[2]
                    prod = np.eye(n)
                    for t in range(start, k + 1):
                        prod = mats[t] @ prod
                    expected = prod[:, off]
                elif sel[0] == "identity":
                    expected = np.eye(n)[:, sel[1]]
                else:
                    expected = np.zeros(n)
                assert np.allclose(stacked[:, j], expected)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            stacked_column_selector(2, 3, 1, 6)


class TestRowsByStep:
    def test_steps_ascend_and_rows_keep_their_order(self):
        spec = deterministic_spec(np.eye(2), np.eye(2), np.zeros(2), horizon=3)
        rows = [
            ConstraintRow(G=np.array([1.0, 0.0]), h=1.0, k=3, id="a"),
            ConstraintRow(G=np.array([0.0, 1.0]), h=2.0, k=1, id="b"),
            ConstraintRow(G=np.array([1.0, 1.0]), h=3.0, k=3, id="c"),
        ]
        (k1, G1, h1), (k3, G3, h3) = spec.rows_by_step(rows)
        assert (k1, G1.tolist(), h1.tolist()) == (1, [[0.0, 1.0]], [2.0])
        assert (k3, G3.tolist(), h3.tolist()) == (3, [[1.0, 0.0], [1.0, 1.0]], [1.0, 3.0])

    def test_rows_past_the_horizon_are_named(self):
        spec = deterministic_spec(np.eye(2), np.eye(2), np.zeros(2), horizon=3)
        rows = [ConstraintRow(G=np.ones(2), h=1.0, k=k, id=f"r{k}") for k in (4, 3, 7)]
        with pytest.raises(DomainError, match=r"outside time steps 1\.\.3: r4, r7$"):
            spec.rows_by_step(rows)


class TestConstraintMoments:
    def test_deterministic_reduces_to_nominal(self):
        A = np.array([[0.9, 0.1], [0.0, 0.8]])
        B = np.array([[1.0, 0.0], [0.0, 1.0]])
        spec = deterministic_spec(A, B, np.array([1.0, 2.0]), horizon=2)
        G = np.array([1.0, -1.0])
        m = constraint_moments(spec, G, 2)
        assert m.Q == pytest.approx(np.zeros((4, 4)))
        assert m.q == pytest.approx(np.zeros(4))
        assert m.r == 0.0
        U = np.array([0.3, -0.2, 0.5, 0.1])
        x = A @ (A @ spec.x0 + B @ U[:2]) + B @ U[2:]
        assert m.mean(U) == pytest.approx(float(G @ x), rel=1e-12)
        assert m.variance(U) == 0.0

    def test_scalar_chain_mean_and_variance(self):
        # x(2) = a1 a0 + a1 u0 + u1 at U = (1, 0): outcomes {0, 0, 2, 6}
        spec = scalar_iid_spec(horizon=2)
        m = constraint_moments(spec, np.array([1.0]), 2)
        U = np.array([1.0, 0.0])
        assert m.mean(U) == pytest.approx(2.0, abs=1e-12)
        assert m.variance(U) == pytest.approx(6.0, abs=1e-12)
        mean_e, var_e = enumerate_margin(spec, np.array([1.0]), 2, U)
        assert mean_e == pytest.approx(2.0)
        assert var_e == pytest.approx(6.0)

    def test_two_bus_line_rating_row(self, two_bus_spec):
        m = constraint_moments(two_bus_spec, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), 1)
        c_w = 0.813
        assert m.b / c_w == pytest.approx(118.9188, abs=1e-3)
        assert np.allclose(m.a, [1.0, 0.0])  # picks u_1 of the step before
        assert m.r / c_w**2 == pytest.approx(204.6946, abs=0.05)
        assert np.abs(m.Q).max() == 0.0 and np.abs(m.q).max() == 0.0

    def test_two_bus_balance_row(self, two_bus_spec):
        m = constraint_moments(two_bus_spec, np.array([-1.0, -1.0, 0.0, -1.0, 0.0, 1.0]), 1)
        c_w, c_l = 0.813, 1600.0
        assert m.b == pytest.approx(0.5 * c_l - 118.9188 * c_w, abs=1e-3 * c_w)
        assert np.allclose(m.a, [-1.0, -1.0])
        beta_var = 2500.0 / (1e4 * 101.0)
        gamma_var = m.r - beta_var * c_l**2
        assert gamma_var / c_w**2 == pytest.approx(204.6946, abs=0.05)

    def test_two_bus_moments_time_invariant(self, two_bus_cfg):
        # The case study collapses products, so every step sees identical
        # moments with the input coefficient shifted to u(k-1).
        cfg3 = two_bus_cfg.to_dict()
        cfg3["system"]["horizon"] = 3
        import vpcc

        spec3 = vpcc.parse_config(cfg3).system_spec()
        G = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        ref = constraint_moments(spec3, G, 1)
        for k in (2, 3):
            m = constraint_moments(spec3, G, k)
            assert m.b == pytest.approx(ref.b, rel=1e-12)
            assert m.r == pytest.approx(ref.r, rel=1e-12)
            coeff = np.asarray(m.a).reshape(3, 2)
            assert coeff[k - 1] == pytest.approx([1.0, 0.0])
            assert np.abs(np.delete(coeff, k - 1, axis=0)).max() == 0.0

    def test_mean_consistent_with_product_mean(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            spec, G, k, _ = random_finite_system(rng)
            m = constraint_moments(spec, G, k)
            x0_term = float(G @ product_mean(spec.a_models[:k]) @ spec.x0)
            assert m.mean(np.zeros(spec.input_dim)) == pytest.approx(x0_term, rel=1e-12, abs=1e-12)

    def test_time_index_bounds(self, two_bus_spec):
        with pytest.raises(DomainError):
            constraint_moments(two_bus_spec, np.zeros(6), 0)
        with pytest.raises(DomainError):
            constraint_moments(two_bus_spec, np.zeros(6), 2)


def mixed_family_system(rng: np.random.Generator, n: int, N: int, m: int = 2):
    """A system whose entries mix Weibull, Beta, constant and plain values."""

    def cell():
        u = rng.random()
        if u < 0.3:
            return weibull(rng.uniform(0.5, 2.0), rng.uniform(1.5, 3.0), int(rng.integers(1, 3)))
        if u < 0.6:
            return beta_dist(rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0))
        if u < 0.8:
            return constant(rng.uniform(-0.5, 0.5))
        return float(rng.uniform(-0.5, 0.5))

    models = tuple(RandomMatrixModel.from_grid([[cell() for _ in range(n)] for _ in range(n)]) for _ in range(N))
    spec = SystemSpec(
        horizon=N,
        a_models=models,
        B=rng.uniform(-1.0, 1.0, (n, m)),
        x0=rng.uniform(-1.0, 1.0, n),
        A_u=np.vstack([np.eye(m), -np.eye(m)]),
        b_u=np.full(2 * m, 1.0),
    )
    return spec, rng.uniform(-1.0, 1.0, n)


class TestAgainstOracle:
    """The backward recursion against the stacked-column assembly."""

    @staticmethod
    def assert_close(spec, G, k):
        # The oracle leaves round-off of about 1e-19 in structurally zero
        # entries, so each polynomial is compared relative to its largest
        # coefficient (and at least 1), not entry by entry.
        new = constraint_moments(spec, G, k)
        ref = oracle_constraint_moments(spec, G, k)
        for fields in (("a", "b"), ("Q", "q", "r")):
            scale = max(1.0, *(np.abs(getattr(ref, f)).max(initial=0.0) for f in fields))
            for f in fields:
                np.testing.assert_allclose(getattr(new, f), getattr(ref, f), rtol=1e-12, atol=1e-12 * scale, err_msg=f)

    def test_random_finite_systems(self):
        rng = np.random.default_rng(2210)
        for _ in range(200):
            spec, G, k, _ = random_finite_system(rng)
            self.assert_close(spec, G, k)

    @pytest.mark.parametrize("n,N", [(1, 3), (2, 4), (3, 6), (4, 8), (6, 12)])
    def test_mixed_family_systems(self, n, N):
        spec, G = mixed_family_system(np.random.default_rng(10 * n + N), n, N)
        for k in sorted({1, max(1, N // 2), N}):
            self.assert_close(spec, G, k)

    def test_two_bus_rows_bitwise(self, two_bus_spec):
        for G in ([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], [-1.0, -1.0, 0.0, -1.0, 0.0, 1.0]):
            new = constraint_moments(two_bus_spec, np.array(G), 1)
            ref = oracle_constraint_moments(two_bus_spec, np.array(G), 1)
            assert new.a.tobytes() == ref.a.tobytes()
            assert (new.b, new.r) == (ref.b, ref.r)


class TestEnumerationEquivalence:
    def test_closed_forms_match_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            spec, G, k, U = random_finite_system(rng)
            m = constraint_moments(spec, G, k)
            mean_e, var_e = enumerate_margin(spec, G, k, U)
            assert m.mean(U) == pytest.approx(mean_e, rel=1e-10, abs=1e-10)
            assert m.variance(U) == pytest.approx(var_e, rel=1e-10, abs=1e-10)

    def test_closed_forms_match_simulation(self):
        rng = np.random.default_rng(99)
        spec, G, k, U = random_finite_system(rng)
        m = constraint_moments(spec, G, k)
        mean_mc, var_mc, se_mean, se_var = mc_margin(spec, G, k, U, 10**6, seed=1)
        assert abs(m.mean(U) - mean_mc) < 4 * se_mean + 1e-12
        assert abs(m.variance(U) - var_mc) < 4 * se_var + 1e-12

    def test_two_bus_against_simulation(self, two_bus_spec):
        G = np.array([-1.0, -1.0, 0.0, -1.0, 0.0, 1.0])
        U = np.array([600.0, 200.0])
        m = constraint_moments(two_bus_spec, G, 1)
        mean_mc, var_mc, se_mean, se_var = mc_margin(two_bus_spec, G, 1, U, 10**6, seed=2)
        assert abs(m.mean(U) - mean_mc) < 4 * se_mean
        assert abs(m.variance(U) - var_mc) < 4 * se_var


class TestNormForm:
    def test_reproduces_quadratic_on_probes(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 4:
            spec, G, k, _ = random_finite_system(rng)
            m = constraint_moments(spec, G, k)
            if m.structurally_deterministic:
                continue
            checked += 1
            for _ in range(100):
                U = rng.uniform(-2, 2, spec.input_dim)
                quad = m.variance(U)
                norm = m.norm_variance(U)
                assert norm == pytest.approx(quad, rel=1e-8, abs=1e-8)

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(13)
        spec, G, k, _ = random_finite_system(rng)
        one = constraint_moments(spec, G, k)
        two = constraint_moments(spec, G, k)
        assert one.Q.tobytes() == two.Q.tobytes()
        assert one.q.tobytes() == two.q.tobytes()
        assert one.a.tobytes() == two.a.tobytes()
        assert (one.b, one.r, one.s) == (two.b, two.r, two.s)


class TestPsdRepair:
    def test_round_off_negative_eigenvalue_clamps(self):
        Q = np.diag([1.0, -0.5e-9])
        m = _finalize_moments(np.zeros(2), 0.0, Q, np.zeros(2), 1.0)
        assert np.linalg.eigvalsh(m.Q).min() >= 0.0
        assert m.L.shape == (2, 1)

    def test_round_off_eigenvalues_give_no_norm_columns(self):
        w = np.array([1.0, 2.0, -1.0])
        noise = np.random.default_rng(4).normal(0.0, 1e-17, (3, 3))
        Q = np.outer(w, w) + 0.5 * (noise + noise.T)
        q = 0.3 * w
        m = _finalize_moments(np.zeros(3), 0.0, Q, q, 1.0)
        assert m.L.shape == (3, 1)
        rng = np.random.default_rng(5)
        for _ in range(20):
            U = rng.uniform(-2, 2, 3)
            assert m.norm_variance(U) == pytest.approx(m.variance(U), rel=1e-12, abs=1e-12)

    def test_genuinely_indefinite_raises(self):
        with pytest.raises(NotPSD):
            _finalize_moments(np.zeros(2), 0.0, np.diag([1.0, -1e-6]), np.zeros(2), 1.0)

    def test_cross_term_outside_range_raises(self):
        with pytest.raises(NotPSD):
            _finalize_moments(np.zeros(2), 0.0, np.zeros((2, 2)), np.array([1.0, 0.0]), 1.0)
