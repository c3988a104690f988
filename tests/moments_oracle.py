"""Stacked-column reference for ``vpcc.moments.constraint_moments``.

``oracle_constraint_moments`` assembles the moments of G x(k) the long way:
it classifies every column of the stacked block row with
``stacked_column_selector`` and scalarises one ``column_covariance`` per pair
of product columns, with ``product_vector_variance`` for the initial-state
term. It shares only ``quad_form_mean`` and ``_finalize_moments`` with the
backward recursion it checks, and costs O((nN)^2) covariance calls, so it is
for small systems only.

Index convention as in ``vpcc.moments``: model sequences are time-ascending
and products apply later factors on the left, so ``[A(0), A(1)]`` means
A(1) @ A(0).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from vpcc.errors import DomainError
from vpcc.moments import (
    ConstraintMoments,
    RandomMatrixModel,
    SystemSpec,
    _finalize_moments,
    quad_form_mean,
)


def _check_models(models: Sequence[RandomMatrixModel]) -> int:
    if not models:
        raise DomainError("need at least one state-matrix model")
    n = models[0].n
    if any(m.n != n for m in models):
        raise DomainError("state-matrix models must share their dimension")
    return n


def product_mean(models: Sequence[RandomMatrixModel]) -> np.ndarray:
    """Mean of the descending-index product A(K)...A(0).

    ``models`` is time-ascending; independence across time lets the
    expectation factor into the product of entrywise means, applied
    left-multiplicatively.
    """
    n = _check_models(models)
    out = np.eye(n)
    for model in models:
        out = model.mean_matrix @ out
    return out


def transposed(model: RandomMatrixModel) -> RandomMatrixModel:
    sites = sorted((j, i, dist) for i, j, dist in model.sites)
    return RandomMatrixModel(model.mean_matrix.T, model.variance_matrix.T, tuple(sites))


def _push_second_moment(model: RandomMatrixModel, inner: np.ndarray) -> np.ndarray:
    """E[A inner A'] via the quadratic-form mean of the transposed model."""
    return quad_form_mean(transposed(model), inner)


def product_vector_variance(models: Sequence[RandomMatrixModel], y: np.ndarray) -> np.ndarray:
    """Var of A(K)...A(0) y for a known vector y.

    Per step, conditioning on the inner product z gives
    Var <- E[diag(VarA (z o z))] + EA Var(z) EA', with E[z o z] tracked
    through the running mean and covariance. This is the law-of-total-
    variance recursion with the conditional term collapsed through the
    vectorisation identity.
    """
    n = _check_models(models)
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise DomainError(f"y must have length {n}")
    if not np.all(np.isfinite(y)):
        raise DomainError("y must be finite")
    w = y.copy()
    V = np.zeros((n, n))
    for model in models:
        second_diag = np.diag(V) + w * w
        V = model.mean_matrix @ V @ model.mean_matrix.T
        V[np.diag_indices(n)] += model.variance_matrix @ second_diag
        w = model.mean_matrix @ w
    return V


def column_covariance(
    models: Sequence[RandomMatrixModel], a: int, b: int, j: int, m: int
) -> np.ndarray:
    """Cov between A(k)...A(a) e_j and A(k)...A(b) e_m, k = len(models) - 1.

    For a <= b the shorter product is a tail of the longer one: average the
    disjoint factors A(b-1)...A(a) into the rank-one seed
    (mean-tail e_j) e_m' and push it through the shared factors
    A(b)...A(k) with the quadratic-form mean; subtract the outer product of
    the two mean vectors. The a > b case is the transpose by symmetry.
    """
    n = _check_models(models)
    k = len(models) - 1
    if not (0 <= a <= k and 0 <= b <= k):
        raise DomainError(f"start indices must lie in [0, {k}], got a={a}, b={b}")
    if not (0 <= j < n and 0 <= m < n):
        raise DomainError(f"column indices must lie in [0, {n}), got j={j}, m={m}")
    if a > b:
        return column_covariance(models, b, a, m, j).T

    tail_mean = product_mean(models[a:b]) if b > a else np.eye(n)
    seed = np.outer(tail_mean[:, j], np.eye(n)[m])
    for t in range(b, k + 1):
        seed = _push_second_moment(models[t], seed)
    mean_a = product_mean(models[a:])[:, j]
    mean_b = product_mean(models[b:])[:, m]
    return seed - np.outer(mean_a, mean_b)


def stacked_column_selector(n: int, N: int, k: int, j: int):
    """Classify column j of the stacked block row
    [A(k)...A(1), A(k)...A(2), ..., A(k), I, 0, ...] (n x N n).

    Returns ("product", start, offset) when the column is
    A(k)...A(start) e_offset, ("identity", offset) for the I block, or
    ("zero", offset) past it. Column index j is 0-based; ``start`` is the
    time index of the earliest factor, block p (0-based) holding start
    p + 1. Validated against brute-force stacking in the test suite.
    """
    if not (0 <= j < n * N):
        raise DomainError(f"column index {j} outside [0, {n * N})")
    block, offset = divmod(j, n)
    start = block + 1
    if start <= k:
        return ("product", start, offset)
    if start == k + 1:
        return ("identity", offset)
    return ("zero", offset)


def stacked_input_map(spec: SystemSpec) -> np.ndarray:
    """kron(I_N, B): maps stacked inputs to stacked per-step injections."""
    return np.kron(np.eye(spec.horizon), spec.B)


def oracle_constraint_moments(spec: SystemSpec, G: np.ndarray, k: int) -> ConstraintMoments:
    """Assemble mean and variance of G x(k) as functions of the stacked input.

    x(k) = A(k-1)...A(0) x0 + [stacked blocks] kron(I_N, B) U, so the mean
    follows from mean products and the variance from the three covariance
    groups: initial-state, input-input (column covariances of the stacked
    blocks, scalarised through G), and the cross term. Double sums run with
    the column index of the left factor outer-ascending and the right factor
    inner-ascending, which pins the floating-point accumulation order.
    """
    n, N = spec.n, spec.horizon
    if not (1 <= k <= N):
        raise DomainError(f"time index must lie in [1, {N}], got {k}")
    G = np.asarray(G, dtype=float)
    if G.shape != (n,):
        raise DomainError(f"G must have length {n}")
    models = list(spec.a_models[:k])
    nN = n * N
    bmap = stacked_input_map(spec)

    # Suffix mean products: sm[t] = E[A(k-1)] ... E[A(t)], sm[k] = I.
    sm = [np.eye(n) for _ in range(k + 1)]
    for t in range(k - 1, -1, -1):
        sm[t] = sm[t + 1] @ models[t].mean_matrix

    selectors = [stacked_column_selector(n, N, k - 1, j) for j in range(nN)]

    # Mean: G (stacked blocks mean) kron(I_N, B) U + G (mean product) x0.
    cbar = np.zeros((n, nN))
    for j, sel in enumerate(selectors):
        if sel[0] == "product":
            cbar[:, j] = sm[sel[1]][:, sel[2]]
        elif sel[0] == "identity":
            cbar[sel[1], j] = 1.0
    a_vec = bmap.T @ (cbar.T @ G)
    b_const = float(G @ sm[0] @ spec.x0)

    # Initial-state variance term.
    r_const = float(G @ product_vector_variance(models, spec.x0) @ G)

    # Input-input term: scalarised column covariances of the stacked blocks.
    cov_cache: dict[tuple, float] = {}

    def scalar_cov(start_j: int, off_j: int, start_m: int, off_m: int) -> float:
        key = (start_j, off_j, start_m, off_m)
        if key not in cov_cache:
            cov = column_covariance(models, start_j, start_m, off_j, off_m)
            val = float(G @ cov @ G)
            cov_cache[key] = val
            cov_cache[(start_m, off_m, start_j, off_j)] = val
        return cov_cache[key]

    col_scal = np.zeros((nN, nN))
    for j, sel_j in enumerate(selectors):
        if sel_j[0] != "product":
            continue
        for m, sel_m in enumerate(selectors):
            if sel_m[0] != "product":
                continue
            col_scal[j, m] = scalar_cov(sel_j[1], sel_j[2], sel_m[1], sel_m[2])
    Q = bmap.T @ col_scal @ bmap
    Q = 0.5 * (Q + Q.T)

    # Cross term between the initial-state product and the stacked blocks.
    d = np.zeros(nN)
    for j in range(n):
        if spec.x0[j] == 0.0:
            continue
        for m, sel_m in enumerate(selectors):
            if sel_m[0] != "product":
                continue
            cov = column_covariance(models, 0, sel_m[1], j, sel_m[2])
            d[m] += spec.x0[j] * float(G @ cov @ G)
    q_vec = bmap.T @ d

    return _finalize_moments(a_vec, b_const, Q, q_vec, r_const)
