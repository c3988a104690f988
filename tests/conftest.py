import numpy as np
import pytest

import vpcc
from vpcc.conic import ConicProgram
from vpcc.moments import RandomMatrixModel, SystemSpec
from vpcc.scenario import _scenario_rows, required_samples, sample_state_matrices
from vpcc.stochastics import DistributionSpec, beta_dist, finite_support, weibull


@pytest.fixture(scope="session")
def two_bus_cfg():
    return vpcc.load_two_bus()


@pytest.fixture(scope="session")
def two_bus_spec(two_bus_cfg):
    return two_bus_cfg.system_spec()


def coin_entry() -> DistributionSpec:
    """Support {0, 2} with equal probability: mean 1, variance 1."""
    return finite_support([0.0, 2.0], [0.5, 0.5])


def scalar_iid_spec(horizon: int = 2) -> SystemSpec:
    """n = 1 chain x(t+1) = a(t) x(t) + u(t) with iid coin entries."""
    model = RandomMatrixModel.from_grid([[coin_entry()]])
    return SystemSpec(
        horizon=horizon,
        a_models=tuple(model for _ in range(horizon)),
        B=np.array([[1.0]]),
        x0=np.array([1.0]),
        A_u=np.array([[1.0], [-1.0]]),
        b_u=np.array([10.0, 10.0]),
    )


def deterministic_spec(A, B, x0, horizon, box=10.0) -> SystemSpec:
    A = np.asarray(A, dtype=float)
    m = np.asarray(B).shape[1]
    model = RandomMatrixModel.deterministic(A)
    return SystemSpec(
        horizon=horizon,
        a_models=tuple(model for _ in range(horizon)),
        B=B,
        x0=x0,
        A_u=np.vstack([np.eye(m), -np.eye(m)]),
        b_u=np.full(2 * m, box),
    )


def mixed_family_spec() -> SystemSpec:
    """n = 3 over 3 steps with every family and power, a beta entry between
    uniform entries of one step, and a random site at (1, 1) of step 0, mean
    0.49 and variance 0, whose dist is constant (it draws nothing)."""
    grids = [
        [
            [weibull(0.5, 30, power=3), beta_dist(2, 5), finite_support([0.1, 0.3], [0.4, 0.6])],
            [0.2, 0.49, weibull(0.4, 8)],
            [0.0, 0.1, beta_dist(50, 50, power=2)],
        ],
        [
            [finite_support([-0.2, 0.5, 0.9], [0.2, 0.3, 0.5], power=3), 0.1, 0.0],
            [beta_dist(3, 3, power=3), beta_dist(1.5, 4), weibull(0.9, 12, power=2)],
            [0.3, finite_support([0.4, 0.6], [0.5, 0.5], power=2), 0.5],
        ],
        [[0.9, 0.0, 0.1], [0.0, 0.8, 0.0], [0.1, 0.0, 0.7]],
    ]
    models = [RandomMatrixModel.from_grid(grid) for grid in grids]
    squared_constant = (1, 1, DistributionSpec("constant", (0.7,), 2))
    first = models[0]
    models[0] = RandomMatrixModel(first.mean_matrix, first.variance_matrix, tuple(sorted(first.sites + (squared_constant,))))
    return SystemSpec(
        horizon=3,
        a_models=tuple(models),
        B=np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 2.0]]),
        x0=np.array([1.0, -2.0, 3.0]),
        A_u=np.vstack([np.eye(2), -np.eye(2)]),
        b_u=np.full(4, 5.0),
    )


def unordered_rows() -> list:
    """Rows at k = 3, 1, 3 on ``mixed_family_spec``: step 2 has none, and the
    rows at k = 3 are apart."""
    return [
        vpcc.ConstraintRow(G=np.array([0.0, 1.0, 1.0]), h=2.3, k=3, id="k3a"),
        vpcc.ConstraintRow(G=np.array([1.0, 0.0, 0.0]), h=1.3, k=1, id="k1"),
        vpcc.ConstraintRow(G=np.array([0.5, -1.0, 2.0]), h=2.8, k=3, id="k3b"),
    ]


def two_point_spec() -> SystemSpec:
    """n = 4 over 3 steps whose random entries are all two-point, a (1 -+ spread)
    with equal probability, as in the synthetic benchmark systems: five per
    step, so each step's draws are one run of five uniforms."""
    rng = np.random.default_rng(21)
    models = []
    for _ in range(3):
        mean = rng.uniform(0.0, 0.5, (4, 4))
        spread = rng.uniform(0.1, 0.3)
        drawn = set(rng.permutation(16)[:5].tolist())
        grid = [
            [finite_support([a * (1 - spread), a * (1 + spread)], [0.5, 0.5]) if 4 * i + j in drawn else a for j, a in enumerate(row)]
            for i, row in enumerate(mean)
        ]
        models.append(RandomMatrixModel.from_grid(grid))
    return SystemSpec(
        horizon=3,
        a_models=tuple(models),
        B=np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 2.0], [1.0, 1.0]]),
        x0=np.array([1.0, 2.0, -1.0, 0.5]),
        A_u=np.vstack([np.eye(2), -np.eye(2)]),
        b_u=np.full(4, 5.0),
    )


def sampled_rows(spec: SystemSpec, matrices: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """Every sampled row of ``_scenario_rows``, scenario-major, with the
    blocks that all scenarios share broadcast over them."""
    count = matrices.shape[0]
    blocks = _scenario_rows(spec, matrices, rows)
    coef = np.concatenate([np.broadcast_to(c, (count, *c.shape[-2:])) for c, _ in blocks], axis=1)
    rhs = np.concatenate([r for _, r in blocks], axis=1)
    return coef.reshape(-1, spec.input_dim), rhs.reshape(-1)


def unreduced_scenario_program(spec: SystemSpec, jcc, cost, sc) -> ConicProgram:
    """Every row of the sample ``solve_scenario(spec, jcc, ..., sc)`` draws,
    then the stacked input polytope: its program before it keeps the tightest
    row per coefficient vector."""
    count = sc.sample_count if sc.sample_count is not None else required_samples(jcc.alpha, sc.beta)
    coef, rhs = sampled_rows(spec, sample_state_matrices(spec, sc.rng_seed, count), jcc.rows)
    A_poly, b_poly = spec.stacked_polytope()
    P, c = cost.stacked()
    return ConicProgram(P=P, c=c, A_u=np.vstack([coef, A_poly]), b_u=np.concatenate([rhs, b_poly]))
