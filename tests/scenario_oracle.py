"""Entry-by-entry reference for the batched scenario sampler and row assembly.

``oracle_state_matrices`` follows the stream rule stated in
``vpcc.stochastics``: batch by batch (``oracle_batches``, whose sizes are
restated here, not imported), it draws every random entry's whole batch with
one ``oracle_variate`` call, time-ascending and row-major. ``oracle_variate``
restates each family's sampler, so the reference shares no sampling code
with the library; ``tests/mc_oracle.py`` draws its batches with both.
``oracle_rows`` propagates one scenario at a time.
``oracle_tightest_rows`` keeps the smallest right-hand side per coefficient
vector in a dict.
"""

from __future__ import annotations

import numpy as np

from vpcc.errors import SamplerMissing
from vpcc.moments import SystemSpec
from vpcc.stochastics import DistributionSpec

# Batch b holds min(4096 * 2**b, 32768, trajectories left) trajectories.
FIRST_BATCH, MAX_BATCH = 4096, 32768


def oracle_batches(seed: int, count: int):
    """(generator, first trajectory, size) of each batch of a ``count``-trajectory
    draw: batch b draws from ``default_rng(SeedSequence(seed, spawn_key=(b,)))``."""
    done = b = 0
    while done < count:
        size = min(FIRST_BATCH * 2**b, MAX_BATCH, count - done)
        yield np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,))), done, size
        done += size
        b += 1


def oracle_variate(dist: DistributionSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` transformed variates: every first draw, then every second."""
    if dist.family == "weibull":
        scale, shape = dist.params
        u = rng.random(count)
        base = scale * (-np.log1p(-u)) ** (1.0 / shape)
    elif dist.family == "beta":
        a, b = dist.params
        g1 = rng.gamma(a, 1.0, count)
        g2 = rng.gamma(b, 1.0, count)
        base = g1 / (g1 + g2)
    elif dist.family == "finite":
        values, probs = dist.params
        edges = np.cumsum(probs)
        idx = np.searchsorted(edges, rng.random(count), side="right")
        idx = np.minimum(idx, len(values) - 1)
        base = np.asarray(values, dtype=float)[idx]
    else:
        (value,) = dist.params
        base = np.full(count, value, dtype=float)
    if dist.power != 1:
        base = base**dist.power
    return base


def oracle_state_matrices(spec: SystemSpec, seed: int, count: int) -> np.ndarray:
    """(count, N, n, n) realisations, one entry's batch at a time."""
    out = np.empty((count, spec.horizon, spec.n, spec.n))
    for rng, first, size in oracle_batches(seed, count):
        batch = out[first : first + size]
        for t, model in enumerate(spec.a_models):
            batch[:, t] = model.mean_matrix
            for i, j, dist in model.sites:
                if dist is None:
                    raise SamplerMissing("random entry carries moments only")
                batch[:, t, i, j] = oracle_variate(dist, rng, size)
    return out


def oracle_rows(spec: SystemSpec, matrices: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """Affine constraint rows in the stacked input, one per (scenario, row).

    Each scenario is propagated alone, with the 2-D products the library
    makes per scenario: (n, n) @ (n, d) and (n, n) @ (n, 1) for the state,
    and (r, n) @ (n, d) and (r, n) @ (n, 1) for a step's r rows. A 1-D
    ``G @ reach`` sums in another order and can differ in the last bit.
    """
    n, m, N = spec.n, spec.m, spec.horizon
    rows_by_k: dict[int, list] = {}
    for row in rows:
        rows_by_k.setdefault(int(row.k), []).append(row)
    max_k = max(rows_by_k)

    coef_rows = []
    rhs_vals = []
    for s in range(matrices.shape[0]):
        phi = spec.x0[:, None]
        reach = np.zeros((n, N * m))
        for t in range(max_k):
            a_t = matrices[s, t]
            phi = a_t @ phi
            reach = a_t @ reach
            reach[:, t * m : (t + 1) * m] += spec.B
            if t + 1 in rows_by_k:
                G = np.array([row.G for row in rows_by_k[t + 1]])
                h = np.array([row.h for row in rows_by_k[t + 1]])
                coef_rows.extend(G @ reach)
                rhs_vals.extend(h - (G @ phi)[:, 0])
    return np.asarray(coef_rows), np.asarray(rhs_vals)


def oracle_tightest_rows(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``np.unique(A, axis=0)``, each with the smallest right-hand
    side that any copy of it has in ``b``."""
    tightest: dict[tuple, float] = {}
    for a, rhs in zip(map(tuple, A), b):
        tightest[a] = min(rhs, tightest.get(a, np.inf))
    unique = np.unique(A, axis=0)
    return unique, np.array([tightest[tuple(a)] for a in unique])
