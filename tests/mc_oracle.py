"""Matrix-batch reference for Monte-Carlo certification.

``sample_batch`` draws ``count`` realisations of one random state matrix as a
``(count, n, n)`` array, every random entry's whole batch at once, row-major,
with ``scenario_oracle.oracle_variate``, so the reference shares no sampling
code with the library; each batch draws from the stream that
``scenario_oracle.oracle_batches`` gives it. ``oracle_mc_certify`` advances
each batch of trajectories by multiplying every trajectory's state with its
own full sampled matrix, with no split of A(t) into a deterministic part and
random entries. It follows the stream rule stated in ``vpcc.stochastics``, so it
must count the same violations as ``vpcc.stochastics.mc_certify``. It
counts every batch of the full run, then applies the look schedule stated in
the ``vpcc.stochastics`` docstring to those counts. The batch sizes and the
early looks' share are restated in the oracles, not imported, so a change to
either in the library shows as a mismatch. Its bounds come from
``oracle_clopper_pearson_upper``, the Beta quantile by
``scipy.stats.beta.ppf``, which the program no longer imports, so it checks
``clopper_pearson_upper`` (``scipy.special.betaincinv``) independently.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from vpcc.errors import DomainError, SamplerMissing
from vpcc.moments import RandomMatrixModel, SystemSpec
from vpcc.stochastics import McCertificate

from scenario_oracle import FIRST_BATCH, MAX_BATCH, oracle_batches, oracle_variate

# The early looks of a multi-batch run share one tenth of 1 - confidence.
EARLY_SHARE = 0.1


def oracle_clopper_pearson_upper(violations: int, samples: int, confidence: float = 0.99) -> float:
    """The one-sided Clopper-Pearson upper bound: the ``confidence`` quantile
    of Beta(violations + 1, samples - violations), or 1 when every sample
    violates."""
    if violations == samples:
        return 1.0
    return float(stats.beta.ppf(confidence, violations + 1, samples - violations))


def sample_batch(model: RandomMatrixModel, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` realisations, (count, n, n). Entry order is fixed
    row-major so a given generator state always yields the same batch."""
    out = np.empty((count, model.n, model.n))
    out[:] = model.mean_matrix
    for i, j, dist in model.sites:
        if dist is None:
            raise SamplerMissing("random entry carries moments only")
        out[:, i, j] = oracle_variate(dist, rng, count)
    return out


def oracle_batch_violations(spec: SystemSpec, jcc, U, samples: int, seed: int) -> list[int]:
    """The violation count of every batch of a ``samples``-trajectory run,
    one full sampled matrix per trajectory and step."""
    if samples < 1:
        raise DomainError("samples must be >= 1")
    U = np.asarray(U, dtype=float).reshape(spec.horizon, spec.m)
    rows_by_k: dict[int, list] = {}
    for row in jcc.rows:
        rows_by_k.setdefault(int(row.k), []).append(row)
    max_k = max(rows_by_k) if rows_by_k else 0

    counts = []
    for rng, _, count in oracle_batches(seed, samples):
        violated = np.zeros(count, dtype=bool)
        x = np.broadcast_to(spec.x0, (count, spec.n)).copy()
        for t in range(max_k):
            a_batch = sample_batch(spec.a_models[t], rng, count)
            x = np.einsum("sij,sj->si", a_batch, x) + spec.B @ U[t]
            for row in rows_by_k.get(t + 1, ()):
                violated |= x @ row.G > row.h
        counts.append(int(violated.sum()))
    return counts


def oracle_mc_certify(
    spec: SystemSpec, jcc, U, samples: int, seed: int, confidence: float = 0.99
) -> McCertificate:
    """``mc_certify`` from ``oracle_batch_violations``: look after each batch
    at confidence 1 - level, where one look spends 1 - confidence and more
    looks spend ``EARLY_SHARE`` of it equally before the last; stop at a
    pass, or once the last look could not pass with no further violation."""
    counts = oracle_batch_violations(spec, jcc, U, samples, seed)
    budget, looks = 1.0 - confidence, len(counts)
    levels = [budget]
    if looks > 1:
        levels = [budget * EARLY_SHARE / (looks - 1)] * (looks - 1) + [budget * (1.0 - EARLY_SHARE)]
    alpha = float(jcc.alpha)
    for look in range(1, looks + 1):
        violations = sum(counts[:look])
        used = min(sum(min(FIRST_BATCH * 2**b, MAX_BATCH) for b in range(look)), samples)
        upper = oracle_clopper_pearson_upper(violations, used, 1.0 - levels[look - 1])
        hopeless = oracle_clopper_pearson_upper(violations, samples, 1.0 - levels[-1]) > alpha
        if upper <= alpha or hopeless:
            break
    return McCertificate(
        samples=samples,
        samples_used=used,
        violations=violations,
        empirical_violation=violations / used,
        upper_ci_99=upper,
        alpha=alpha,
        passed=bool(upper <= alpha),
        levels=tuple(levels[:look]),
    )
