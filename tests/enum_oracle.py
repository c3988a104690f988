"""Independent oracles for the moment machinery.

``enumerate_margin`` computes the mean and variance of G x(k) by exhausting
every combination of finite-support outcomes and propagating the dynamics
directly, with no shared code path with the closed forms it checks.
``mc_margin`` does the same by simulation. ``random_finite_system`` builds
small randomized systems whose entries all have finite support so the
enumeration stays exact.
"""

from __future__ import annotations

import numpy as np

from vpcc.moments import RandomMatrixModel, SystemSpec
from vpcc.stochastics import DistributionSpec, finite_support

from mc_oracle import sample_batch


def enumerate_margin(spec: SystemSpec, G, k: int, U) -> tuple[float, float]:
    """Exact (mean, variance) of G x(k) by exhaustive outcome enumeration."""
    G = np.asarray(G, dtype=float)
    U = np.asarray(U, dtype=float).reshape(spec.horizon, spec.m)
    models = spec.a_models[:k]
    n = spec.n

    random_cells = []
    for t, model in enumerate(models):
        for i, j, dist in model.sites:
            values, probs = dist.params
            vals = np.asarray(values, dtype=float) ** dist.power
            random_cells.append((t, i, j, vals, np.asarray(probs, dtype=float)))

    counts = [cell[3].size for cell in random_cells]
    total = int(np.prod(counts)) if counts else 1
    picks = np.unravel_index(np.arange(total), counts) if counts else ()

    mats = [np.repeat(model.mean_matrix[None, :, :], total, axis=0) for model in models]
    weights = np.ones(total)
    for pos, (t, i, j, vals, probs) in enumerate(random_cells):
        sel = picks[pos]
        mats[t][:, i, j] = vals[sel]
        weights = weights * probs[sel]

    x = np.repeat(spec.x0[None, :], total, axis=0)
    for t in range(k):
        x = np.einsum("sij,sj->si", mats[t], x) + spec.B @ U[t]
    margin = x @ G
    mean = float(weights @ margin)
    var = float(weights @ (margin * margin) - mean * mean)
    return mean, var


def mc_margin(spec: SystemSpec, G, k: int, U, samples: int, seed: int):
    """Simulation (mean, variance) plus standard errors of both estimates."""
    G = np.asarray(G, dtype=float)
    U = np.asarray(U, dtype=float).reshape(spec.horizon, spec.m)
    rng = np.random.default_rng(seed)
    x = np.repeat(spec.x0[None, :], samples, axis=0)
    for t in range(k):
        batch = sample_batch(spec.a_models[t], rng, samples)
        x = np.einsum("sij,sj->si", batch, x) + spec.B @ U[t]
    g = x @ G
    mean = float(g.mean())
    var = float(g.var())
    centred = g - mean
    m2 = float((centred**2).mean())
    m4 = float((centred**4).mean())
    se_mean = float(np.sqrt(m2 / samples))
    se_var = float(np.sqrt(max(m4 - m2 * m2, 0.0) / samples))
    return mean, var, se_mean, se_var


def _finite_entry(rng: np.random.Generator, size: int) -> DistributionSpec:
    vals = np.round(rng.uniform(-1.2, 1.2, size), 3)
    weights = rng.integers(1, 6, size).astype(float)
    probs = weights / weights.sum()
    return finite_support(vals.tolist(), probs.tolist())


def random_finite_system(rng: np.random.Generator, max_combos: int = 40000):
    """A small system with finite-support entries, plus a row and an input."""
    n = int(rng.integers(1, 3))
    m = int(rng.integers(1, 3))
    horizon = int(rng.integers(1, 4))
    combos = 1
    grids = []
    n_random = 0
    for _ in range(horizon):
        grid = []
        for _ in range(n):
            row = []
            for _ in range(n):
                size = int(rng.integers(2, 4))
                if rng.random() < 0.5 and combos * size <= max_combos:
                    row.append(_finite_entry(rng, size))
                    combos *= size
                    n_random += 1
                else:
                    row.append(round(float(rng.uniform(-1.2, 1.2)), 3))
            grid.append(row)
        grids.append(grid)
    if n_random == 0:
        grids[0][0][0] = _finite_entry(rng, 2)

    spec = SystemSpec(
        horizon=horizon,
        a_models=tuple(RandomMatrixModel.from_grid(grid) for grid in grids),
        B=np.round(rng.uniform(-1.0, 1.0, (n, m)), 3),
        x0=np.round(rng.uniform(-1.5, 1.5, n), 3),
        A_u=np.vstack([np.eye(m), -np.eye(m)]),
        b_u=np.full(2 * m, 2.0),
    )
    G = np.round(rng.uniform(-1.0, 1.0, n), 3)
    k = int(rng.integers(1, horizon + 1))
    U = np.round(rng.uniform(-1.5, 1.5, horizon * m), 3)
    return spec, G, k, U
