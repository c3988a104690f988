"""Distribution toolbox: closed-form moments, samplers, certification."""

import math

import numpy as np
import pytest
from scipy import special

import vpcc
from vpcc.errors import DomainError, MomentUndefined, SamplerMissing
from vpcc.moments import RandomMatrixModel, SystemSpec
from vpcc.scenario import sample_state_matrices
from vpcc.stochastics import (
    _MC_BATCH,
    _MC_FIRST_BATCH,
    DistributionSpec,
    _batch_sizes,
    batch_streams,
    beta_dist,
    clopper_pearson_upper,
    constant,
    finite_support,
    look_levels,
    mc_certify,
    sample,
    sequential_verdict,
    weibull,
)

from conftest import deterministic_spec, mixed_family_spec, two_point_spec, unordered_rows
from mc_oracle import oracle_batch_violations, oracle_clopper_pearson_upper, oracle_mc_certify


class TestRawMoments:
    def test_beta_mean(self):
        assert beta_dist(50, 50).raw_moment(1) == pytest.approx(0.5, abs=1e-15)

    def test_weibull_cubed_mean_is_gamma_value(self):
        # E[(gamma^3)] = 125 * Gamma(1.1) for scale 5, shape 30
        dist = weibull(5, 30, power=3)
        assert dist.raw_moment(1) == pytest.approx(125.0 * special.gamma(1.1), rel=1e-14)
        assert dist.raw_moment(1) == pytest.approx(118.9188, abs=1e-3)

    def test_weibull_cubed_variance(self):
        dist = weibull(5, 30, power=3)
        var = dist.variance
        expected = 5.0**6 * special.gamma(1.2) - (125.0 * special.gamma(1.1)) ** 2
        assert var == pytest.approx(expected, rel=1e-12)
        assert var == pytest.approx(204.6946, abs=0.05)

    def test_beta_variance_vs_closed_form(self):
        # a b / ((a+b)^2 (a+b+1)) = 2500 / (10^4 * 101)
        assert beta_dist(50, 50).variance == pytest.approx(2500.0 / (1e4 * 101.0), rel=1e-12)

    def test_finite_support_moments(self):
        dist = finite_support([0.0, 2.0], [0.5, 0.5])
        assert dist.raw_moment(1) == 1.0
        assert dist.raw_moment(2) == 2.0
        assert dist.variance == 1.0

    def test_transform_powers_compose(self):
        dist = finite_support([1.0, 3.0], [0.25, 0.75], power=2)
        # E[x^2] with x = base^2 is E[base^4]
        assert dist.raw_moment(2) == pytest.approx(0.25 * 1 + 0.75 * 3**4)

    def test_constant_moments(self):
        assert constant(2.0).raw_moment(3) == 8.0
        assert constant(2.0).variance == 0.0

    def test_bad_moment_order(self):
        with pytest.raises(MomentUndefined):
            weibull(5, 30).raw_moment(0)

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            weibull(-1, 2)
        with pytest.raises(DomainError):
            finite_support([1.0, 2.0], [0.6, 0.6])
        with pytest.raises(DomainError):
            DistributionSpec("weibull", (5.0, 30.0), power=4)

    @pytest.mark.parametrize("params", [("a", 1.0), (math.nan, 1.0), (1.0, math.inf), (True, 1.0)], ids=["string", "nan", "inf", "bool"])
    def test_parameter_not_a_finite_number(self, params):
        with pytest.raises(DomainError, match="weibull takes 2 finite numbers: scale, shape"):
            DistributionSpec("weibull", params)

    @pytest.mark.parametrize(
        "make",
        [lambda: weibull(1e200, 30, power=3), lambda: finite_support([-1e200, 1e200], [0.5, 0.5]), lambda: weibull(5, 1e-3, power=3)],
        ids=["weibull-scale-overflow", "finite-values-overflow", "weibull-gamma-overflow"],
    )
    def test_mean_and_variance_must_be_finite(self, make):
        with pytest.raises(DomainError, match="needs a finite mean and variance"):
            make()


class TestSamplers:
    """Sample moments must agree with the closed forms within 4 standard errors."""

    @pytest.mark.parametrize(
        "dist",
        [
            weibull(5, 30),
            weibull(5, 30, power=3),
            beta_dist(50, 50),
            beta_dist(2, 5, power=2),
            finite_support([-1.0, 0.5, 2.0], [0.2, 0.5, 0.3]),
            finite_support([0.0, 2.0], [0.5, 0.5], power=3),
        ],
        ids=["weibull", "weibull-cubed", "beta", "beta-squared", "finite", "finite-cubed"],
    )
    def test_sample_mean_and_variance(self, dist):
        draws = sample(dist, 2024, 10**6)
        se_mean = draws.std() / math.sqrt(draws.size)
        assert draws.mean() == pytest.approx(dist.mean, abs=4 * se_mean + 1e-12)
        centred = draws - draws.mean()
        m2 = float((centred**2).mean())
        m4 = float((centred**4).mean())
        se_var = math.sqrt(max(m4 - m2 * m2, 0.0) / draws.size)
        assert draws.var() == pytest.approx(dist.variance, abs=4 * se_var + 1e-12)

    def test_weibull_mean_against_gamma(self):
        draws = sample(weibull(5, 30), 7, 10**6)
        target = 5.0 * special.gamma(31.0 / 30.0)
        se = draws.std() / 1000.0
        assert abs(draws.mean() - target) < 4 * se

    def test_beta_variance_against_closed_form(self):
        draws = sample(beta_dist(50, 50), 11, 10**6)
        target = 2500.0 / (1e4 * 101.0)
        centred = draws - draws.mean()
        m2 = float((centred**2).mean())
        m4 = float((centred**4).mean())
        se = math.sqrt(max(m4 - m2 * m2, 0.0) / draws.size)
        assert abs(draws.var() - target) < 4 * se

    def test_finite_support_index_matches_searchsorted(self):
        """Counting inner edges at or below u picks the value that
        ``searchsorted`` picks, also for draws placed exactly on the edges."""
        values, probs = [-1.0, 0.5, 2.0, 7.0], [0.1, 0.2, 0.3, 0.4]
        dist = finite_support(values, probs)
        edges = np.cumsum(probs)
        u = np.concatenate([np.random.default_rng(5).random(2000), edges, np.nextafter(edges, 0.0), [0.0, 1.0]])
        idx = np.minimum(np.searchsorted(edges, u, side="right"), len(values) - 1)
        assert np.array_equal(dist.transform(u[None, :]), np.asarray(values)[idx])

    def test_constant_sampler(self):
        assert np.all(sample(constant(3.5), 1, 100) == 3.5)

    def test_seed_determinism(self):
        a = sample(weibull(5, 30, power=3), 123, 1000)
        b = sample(weibull(5, 30, power=3), 123, 1000)
        assert np.array_equal(a, b)


class TestChildStreams:
    """``batch_streams``: batch b of a draw holds the b-th of ``_batch_sizes``
    and draws child stream b of the seed, numpy's
    ``default_rng(SeedSequence(seed, spawn_key=(b,)))``."""

    @staticmethod
    def draws(rng):
        return rng.random(7), rng.standard_gamma(50.0, 3)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 9])
    @pytest.mark.parametrize("count", [0, 1, 1782, 3 * _MC_FIRST_BATCH + 7])
    def test_matches_numpy_seeding(self, seed, count):
        streams = list(batch_streams(seed, count))
        assert [size for _, size in streams] == _batch_sizes(count)
        for b, (rng, _) in enumerate(streams):
            ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
            for got, want in zip(self.draws(rng), self.draws(ref)):
                assert np.array_equal(got, want), (seed, count, b)

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "1"])
    def test_bad_seed(self, seed):
        with pytest.raises(DomainError):
            batch_streams(seed, 1)
        with pytest.raises(DomainError):
            sample_state_matrices(mixed_family_spec(), seed, 2)
        with pytest.raises(DomainError):
            mc_certify(mixed_family_spec(), _mixed_rowset(), _MIXED_U, samples=2, seed=seed)


class TestClopperPearson:
    def test_zero_violations_closed_form(self):
        # Upper bound with v = 0 is 1 - 0.01^(1/n)
        n = 1000
        assert clopper_pearson_upper(0, n) == pytest.approx(1.0 - 0.01 ** (1.0 / n), rel=1e-10)

    def test_all_violations(self):
        assert clopper_pearson_upper(50, 50) == 1.0

    def test_monotone_in_violations(self):
        bounds = [clopper_pearson_upper(v, 200) for v in range(0, 201, 20)]
        assert all(b1 < b2 for b1, b2 in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("confidence", [0.95, 0.99])
    @pytest.mark.parametrize("samples", [100, 20000, 100000])
    def test_against_beta_ppf(self, samples, confidence):
        """``scipy.special.betaincinv`` against the retired ``scipy.stats.beta.ppf``
        in ``tests/mc_oracle.py``; at the bound the Beta CDF is the confidence."""
        interior = (2, 7, samples // 100, samples // 10, samples // 2, samples - 2)
        for v in sorted({0, 1, *interior, samples - 1}):
            upper = clopper_pearson_upper(v, samples, confidence)
            assert upper == pytest.approx(oracle_clopper_pearson_upper(v, samples, confidence), rel=1e-10)
            assert special.betainc(v + 1, samples - v, upper) == pytest.approx(confidence, rel=0, abs=1e-10)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.2, math.nan])
    def test_confidence_outside_unit_interval_raises(self, confidence):
        with pytest.raises(DomainError, match="confidence"):
            clopper_pearson_upper(2, 10, confidence)


class _NeedMore(Exception):
    """Raised by ``_then_stop`` when a verdict asks for a count past its path."""


def _then_stop(path):
    yield from path
    raise _NeedMore


def _pass_probability(sizes, p: float, alpha: float, confidence: float) -> float:
    """P(``sequential_verdict`` passes) when each trial violates independently
    with probability p: binomial pmf summed over every count path that passes.
    A look's verdict depends on the running count only, so the paths that
    reach a look undecided with equal running counts share their future, and
    each look keeps one representative path per running count."""
    passed = 0.0
    undecided = {0: (1.0, [])}  # running count -> (probability, a path to it)
    for size in sizes:
        pmf = [math.comb(size, c) * p**c * (1.0 - p) ** (size - c) for c in range(size + 1)]
        grown: dict[int, tuple[float, list]] = {}
        for total, (prob, path) in undecided.items():
            for c in range(size + 1):
                mass = grown.get(total + c, (0.0, None))[0]
                grown[total + c] = (mass + prob * pmf[c], path + [c])
        undecided = {}
        for total, (prob, path) in grown.items():
            try:
                upper = sequential_verdict(_then_stop(path), sizes, alpha, confidence)[3]
            except _NeedMore:
                undecided[total] = (prob, path)
                continue
            if upper <= alpha:
                passed += prob
    assert not undecided  # the last look decides every path
    return passed


class TestSequentialVerdict:
    @pytest.mark.parametrize("confidence", [0.9, 0.99])
    @pytest.mark.parametrize("samples", [1, 40, 500])
    def test_single_look_is_the_fixed_sample_test(self, samples, confidence):
        for alpha in (0.05, 0.3):
            for v in range(samples + 1):
                upper = clopper_pearson_upper(v, samples, confidence)
                assert sequential_verdict(iter([v]), [samples], alpha, confidence) == (
                    v,
                    samples,
                    (1.0 - confidence,),
                    upper,
                )

    @pytest.mark.parametrize("confidence", [0.9, 0.99])
    def test_levels_spend_the_budget(self, confidence):
        assert look_levels(1, confidence) == (1.0 - confidence,)
        for looks in range(2, 7):
            levels = look_levels(looks, confidence)
            assert len(levels) == looks and len(set(levels[:-1])) == 1
            assert sum(levels[:-1]) == pytest.approx(0.1 * (1.0 - confidence), rel=1e-12)
            assert sum(levels) == pytest.approx(1.0 - confidence, rel=1e-12)
        early, last = look_levels(4, 0.99)[-2:]
        assert 1.0 - early == pytest.approx(0.99967, abs=1e-5) and 1.0 - last == pytest.approx(0.991)
        early, last = look_levels(6, 0.99)[-2:]  # a 1e5-sample run
        assert 1.0 - early == pytest.approx(0.9998, abs=1e-12) and 1.0 - last == pytest.approx(0.991)

    @pytest.mark.parametrize("confidence", [0.9, 0.99])
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2, 0.3])
    def test_error_at_most_one_minus_confidence(self, alpha, confidence):
        """Three looks of 40 trials, looks after doubling batches, and the six
        looks of a 1e5 run scaled down by 128, at a true violation rate equal
        to alpha: the exact probability of passing is at most 1 - confidence."""
        for sizes in ([40, 40, 40], [40, 80, 160], [32, 64, 128, 256, 256, 45]):
            error = _pass_probability(sizes, alpha, alpha, confidence)
            assert 0.0 < error <= 1.0 - confidence, sizes
            assert _pass_probability(sizes, alpha / 4, alpha, confidence) > error, sizes  # not vacuous

    def test_pulls_no_count_after_the_deciding_look(self):
        # 0 of 40 gives a bound 0.173 at 99.95%: a pass at the first look.
        violations, used, levels, upper = sequential_verdict(_then_stop([0]), [40, 40, 40], 0.2)
        assert (violations, used, levels) == (0, 40, look_levels(3, 0.99)[:1])
        assert upper == pytest.approx(0.173, abs=1e-3)
        # 30 of 40 already exceeds 0.2 over all 120 trials at 99.1%: curtailed.
        violations, used, levels, upper = sequential_verdict(_then_stop([30]), [40, 40, 40], 0.2)
        assert (violations, used, len(levels)) == (30, 40, 1) and upper > 0.2
        with pytest.raises(_NeedMore):
            sequential_verdict(_then_stop([8]), [40, 40, 40], 0.2)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5])
    def test_confidence_outside_unit_interval_raises(self, confidence, two_bus_spec, two_bus_cfg):
        with pytest.raises(DomainError, match="confidence"):
            sequential_verdict(_then_stop([]), [40, 40], 0.2, confidence)
        with pytest.raises(DomainError, match="confidence"):
            mc_certify(two_bus_spec, two_bus_cfg.jcc(), np.array([600.0, 300.0]), 10**5, 0, confidence)


def _toy_rowset(h1: float, h2: float, alpha: float = 0.1):
    rows = (
        vpcc.ConstraintRow(G=np.array([1.0, 0.0]), h=h1, k=1, id="r1"),
        vpcc.ConstraintRow(G=np.array([0.0, 1.0]), h=h2, k=1, id="r2"),
    )
    return vpcc.RowSet(rows, alpha)


class TestMcCertify:
    def test_deterministic_feasible(self):
        spec = deterministic_spec(np.eye(2), np.eye(2), np.array([0.1, 0.2]), horizon=1)
        cert = mc_certify(spec, _toy_rowset(5.0, 5.0), np.zeros(2), samples=2000, seed=0)
        assert cert.violations == 0
        assert cert.upper_ci_99 < 0.1
        assert cert.passed

    def test_deterministic_infeasible(self):
        spec = deterministic_spec(np.eye(2), np.eye(2), np.array([0.1, 0.2]), horizon=1)
        cert = mc_certify(spec, _toy_rowset(0.05, 5.0), np.zeros(2), samples=500, seed=0)
        assert cert.empirical_violation == 1.0
        assert not cert.passed

    def test_seed_determinism(self, two_bus_spec, two_bus_cfg):
        jcc = two_bus_cfg.jcc()
        U = np.array([600.0, 300.0])
        one = mc_certify(two_bus_spec, jcc, U, samples=20000, seed=5)
        two = mc_certify(two_bus_spec, jcc, U, samples=20000, seed=5)
        assert one == two

    def test_loosening_bounds_never_increases_violation(self, two_bus_spec, two_bus_cfg):
        U = np.array([400.0, 300.0])
        base_rows = two_bus_cfg.constraint_rows()
        results = []
        for delta in (0.0, 50.0, 200.0):
            rows = tuple(
                vpcc.ConstraintRow(G=r.G, h=r.h + delta, k=r.k, id=r.id) for r in base_rows
            )
            cert = mc_certify(two_bus_spec, vpcc.RowSet(rows, 0.16), U, samples=20000, seed=9)
            results.append(cert.empirical_violation)
        assert results[0] >= results[1] >= results[2]

    def test_row_past_the_horizon_raises(self, two_bus_spec, two_bus_cfg):
        """At N = 1 a row at k = 2 names no state the trajectories reach."""
        row = two_bus_cfg.constraint_rows()[0]
        late = vpcc.RowSet((vpcc.ConstraintRow(G=row.G, h=row.h, k=2, id="late@k2"),), 0.16)
        with pytest.raises(DomainError, match=r"outside time steps 1\.\.1: late@k2"):
            mc_certify(two_bus_spec, late, np.array([600.0, 300.0]), samples=4096, seed=0)

    def test_batch_schedule(self):
        """Batches double from 4096 trajectories up to 32768; the last holds
        what is left."""
        assert _batch_sizes(1) == [1] and _batch_sizes(4096) == [4096]
        assert _batch_sizes(20000) == [4096, 8192, 7712]
        assert _batch_sizes(10**5) == [4096, 8192, 16384, 32768, 32768, 5792]

    def test_sampler_missing(self):
        spec = SystemSpec(
            horizon=1,
            a_models=(RandomMatrixModel([[1.0]], [[1.0]], ((0, 0, None),)),),
            B=np.array([[1.0]]),
            x0=np.array([1.0]),
            A_u=np.array([[1.0], [-1.0]]),
            b_u=np.array([5.0, 5.0]),
        )
        rows = (vpcc.ConstraintRow(G=np.array([1.0]), h=10.0, k=1, id="r"),)
        with pytest.raises(SamplerMissing):
            mc_certify(spec, vpcc.RowSet(rows, 0.1), np.zeros(1), samples=10, seed=0)


_MIXED_U = np.array([0.5, -0.5, 1.0, 0.2, -0.3, 0.4])


def _mixed_rowset() -> vpcc.RowSet:
    """Rows at k = 1, 2, 3, two of them at k = 1, each violated in 5-10% of
    trajectories of ``mixed_family_spec`` under ``_MIXED_U``."""
    rows = (
        vpcc.ConstraintRow(G=np.array([1.0, 0.0, 0.0]), h=1.3, k=1, id="k1a"),
        vpcc.ConstraintRow(G=np.array([0.5, -1.0, 2.0]), h=0.0, k=1, id="k1b"),
        vpcc.ConstraintRow(G=np.array([0.0, 1.0, 0.0]), h=0.85, k=2, id="k2"),
        vpcc.ConstraintRow(G=np.array([0.0, 1.0, 1.0]), h=2.3, k=3, id="k3"),
    )
    return vpcc.RowSet(rows, 0.25)


def _two_point_rowset() -> vpcc.RowSet:
    """One row per step, each violated in 5-15% of trajectories of
    ``two_point_spec`` under ``_MIXED_U``."""
    rows = (
        vpcc.ConstraintRow(G=np.array([1.0, 0.0, 0.0, 1.0]), h=1.75, k=1, id="k1"),
        vpcc.ConstraintRow(G=np.array([0.0, 1.0, -1.0, 0.0]), h=0.45, k=2, id="k2"),
        vpcc.ConstraintRow(G=np.array([0.5, 0.5, 0.5, 0.5]), h=2.9, k=3, id="k3"),
    )
    return vpcc.RowSet(rows, 0.25)


class TestAgainstOracle:
    """``mc_certify`` must count exactly the violations of the full-matrix
    reference in ``tests/mc_oracle.py``, which draws the same stream."""

    @pytest.mark.parametrize("U", [(600.0, 300.0), (500.0, 280.0), (400.0, 300.0)])
    def test_two_bus(self, two_bus_spec, two_bus_cfg, U):
        jcc = two_bus_cfg.jcc()
        for seed in range(5):
            fast = mc_certify(two_bus_spec, jcc, np.array(U), samples=10**5, seed=seed)
            slow = oracle_mc_certify(two_bus_spec, jcc, np.array(U), samples=10**5, seed=seed)
            assert fast == slow

    @pytest.mark.parametrize(
        "samples",
        [1, _MC_FIRST_BATCH, _MC_FIRST_BATCH + 1, 3 * _MC_FIRST_BATCH + 7, _MC_BATCH, _MC_BATCH + 1, 2 * _MC_BATCH + 7],
    )
    def test_mixed_families_across_batch_edges(self, samples):
        """Every family and power, then two-point entries only, whose steps
        each draw one merged run of five uniforms: the first batch, one
        trajectory past it and 7 into the third batch, then runs ending
        inside the fourth and the fifth batch."""
        for spec, jcc in ((mixed_family_spec(), _mixed_rowset()), (two_point_spec(), _two_point_rowset())):
            for seed in (3, 4):
                fast = mc_certify(spec, jcc, _MIXED_U, samples=samples, seed=seed)
                assert fast == oracle_mc_certify(spec, jcc, _MIXED_U, samples=samples, seed=seed)
            if samples > 1:
                assert 0 < fast.violations < samples

    def test_each_time_step_is_checked(self):
        spec = mixed_family_spec()
        for row in _mixed_rowset().rows:
            jcc = vpcc.RowSet((row,), 0.25)
            fast = mc_certify(spec, jcc, _MIXED_U, samples=5000, seed=11)
            assert fast == oracle_mc_certify(spec, jcc, _MIXED_U, samples=5000, seed=11)
            assert 0 < fast.violations < 5000

    def test_rows_out_of_step_order(self):
        spec, jcc = mixed_family_spec(), vpcc.RowSet(unordered_rows(), 0.25)
        for seed in (3, 4):
            fast = mc_certify(spec, jcc, _MIXED_U, samples=5000, seed=seed)
            assert fast == oracle_mc_certify(spec, jcc, _MIXED_U, samples=5000, seed=seed)
            assert 0 < fast.violations < 5000

    @pytest.mark.parametrize("h2, expected", [(5.0, 0), (0.1, 1000)])
    def test_fully_deterministic(self, h2, expected):
        spec = deterministic_spec(
            np.array([[0.9, 0.1], [0.0, 1.1]]), np.eye(2), np.array([0.1, 0.2]), horizon=2
        )
        rows = (
            vpcc.ConstraintRow(G=np.array([1.0, 0.0]), h=5.0, k=1, id="k1"),
            vpcc.ConstraintRow(G=np.array([0.0, 1.0]), h=h2, k=2, id="k2"),
        )
        jcc = vpcc.RowSet(rows, 0.1)
        U = np.array([0.1, 0.0, 0.0, 0.1])
        fast = mc_certify(spec, jcc, U, samples=1000, seed=2)
        assert fast == oracle_mc_certify(spec, jcc, U, samples=1000, seed=2)
        assert fast.violations == expected

    def test_multi_batch_run_reaches_its_last_look(self):
        """alpha is the bound of the full run at the last look's level, so no
        early look can curtail and the last look passes exactly at alpha."""
        spec, samples = mixed_family_spec(), 3 * _MC_FIRST_BATCH + 7
        for seed in (3, 4):
            counts = oracle_batch_violations(spec, _mixed_rowset(), _MIXED_U, samples, seed)
            alpha = oracle_clopper_pearson_upper(sum(counts), samples, 1.0 - look_levels(3, 0.99)[-1])
            jcc = vpcc.RowSet(_mixed_rowset().rows, alpha)
            fast = mc_certify(spec, jcc, _MIXED_U, samples=samples, seed=seed)
            assert fast == oracle_mc_certify(spec, jcc, _MIXED_U, samples=samples, seed=seed)
            assert (fast.samples_used, len(fast.levels), fast.violations) == (samples, 3, sum(counts))
            assert counts[-1] > 0 and fast.passed

    def test_curtailed_run(self):
        """Joint violations near 18% against alpha 0.05: after four of seven
        batches (61440 of 131072 trajectories), even a clean rest could not
        pass at the last look."""
        spec, jcc = mixed_family_spec(), vpcc.RowSet(_mixed_rowset().rows, 0.05)
        for seed in (3, 4):
            fast = mc_certify(spec, jcc, _MIXED_U, samples=4 * _MC_BATCH, seed=seed)
            assert fast == oracle_mc_certify(spec, jcc, _MIXED_U, samples=4 * _MC_BATCH, seed=seed)
            assert (fast.samples_used, len(fast.levels), fast.passed) == (15 * _MC_FIRST_BATCH, 4, False)
            assert clopper_pearson_upper(fast.violations, fast.samples, 1.0 - look_levels(7, 0.99)[-1]) > 0.05

    def test_violations_count_the_first_samples_used(self, two_bus_spec, two_bus_cfg):
        cases = [
            (two_bus_spec, two_bus_cfg.jcc(), np.array(U), 10**5, seed)
            for U in ((600.0, 300.0), (400.0, 300.0))
            for seed in range(3)
        ]
        cases.append((mixed_family_spec(), vpcc.RowSet(_mixed_rowset().rows, 0.05), _MIXED_U, 4 * _MC_BATCH, 3))
        for spec, jcc, inputs, samples, seed in cases:
            cert = mc_certify(spec, jcc, inputs, samples=samples, seed=seed)
            assert cert.samples_used < samples
            prefix = oracle_batch_violations(spec, jcc, inputs, cert.samples_used, seed)
            assert cert.violations == sum(prefix)
            assert cert.empirical_violation == cert.violations / cert.samples_used
