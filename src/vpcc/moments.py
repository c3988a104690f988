"""Exact moments of linear state functions under random-matrix dynamics.

For x(k+1) = A(k) x(k) + B u(k) with every entry of every A(k) an independent
random variable (independent across time steps as well), any scalar G x(k)
has closed-form mean and variance in the stacked input U:

* the mean is affine in U because expectation factors through products of
  independent matrices,
* the variance is quadratic in U, splitting into an initial-state term, an
  input-input term built from covariances between columns of the stacked
  controllability blocks, and an input/initial-state cross term.

Everything reduces to three primitives:

``product_vector_variance``
    law-of-total-variance recursion for Var(A(k)...A(a) y), with the
    conditional term collapsed through the vectorisation identity
    Var(vec A) = sum_j e_j e_j' (x) Var(A e_j) and the Kronecker
    mixed-product rule, leaving a per-step update
    V <- diag(VarA @ E[z*z]) + EA V EA'.

``quad_form_mean``
    E[Z' S Z] = E[Z]' S E[Z] + diag(VarZ' diag(S)) for an independent-entry
    random matrix Z; the correction only sees the diagonal of S.

``column_covariance``
    covariance between two partially shared products A(k)...A(a) e_j and
    A(k)...A(b) e_m, obtained by averaging the disjoint tail and pushing
    the resulting rank-one seed through the shared factors with the
    quadratic-form mean.

Index convention: model sequences are time-ascending lists and products
apply later factors on the left, so ``[A(0), A(1)]`` means A(1) @ A(0).
All public types are immutable and all operations are pure, so they are
safe to call from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, NotPSD, SamplerMissing
from .stochastics import DistributionSpec

PSD_TOL = 1e-9
NORM_FORM_TOL = 1e-8


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomEntry:
    """One matrix entry: a real random variable known through its moments.

    ``kind`` is "deterministic", "distributional" or "finite-support".
    Deterministic entries have zero variance and powers of the mean as raw
    moments. Random entries may carry a DistributionSpec, which supplies
    higher raw moments and an exact sampler; entries built from bare moments
    are usable for propagation but cannot be sampled.
    """

    kind: str
    mean: float
    variance: float
    dist: DistributionSpec | None = None

    def __post_init__(self):
        if self.kind not in ("deterministic", "distributional", "finite-support"):
            raise DomainError(f"unknown entry kind {self.kind!r}")
        if not np.isfinite(self.mean) or not np.isfinite(self.variance):
            raise DomainError("entries need finite mean and variance")
        if self.variance < 0:
            raise DomainError("entry variance must be nonnegative")
        if self.kind == "deterministic" and self.variance != 0.0:
            raise DomainError("deterministic entries must have zero variance")

    @classmethod
    def deterministic(cls, value: float) -> "RandomEntry":
        return cls("deterministic", float(value), 0.0)

    @classmethod
    def from_distribution(cls, dist: DistributionSpec) -> "RandomEntry":
        if dist.family == "constant":
            return cls.deterministic(dist.mean)
        kind = "finite-support" if dist.family == "finite" else "distributional"
        return cls(kind, dist.mean, dist.variance, dist)

    def raw_moment(self, p: int) -> float:
        if self.kind == "deterministic":
            return self.mean**p
        if p == 1:
            return self.mean
        if p == 2:
            return self.variance + self.mean**2
        if self.dist is None:
            raise DomainError("entry has no distribution; raw moments above 2 unavailable")
        return self.dist.raw_moment(p)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.kind == "deterministic":
            return np.full(count, self.mean)
        if self.dist is None:
            raise SamplerMissing("random entry carries moments only; attach a DistributionSpec to sample")
        return self.dist.sample(rng, count)


@dataclass(frozen=True)
class RandomMatrixModel:
    """A square random matrix with mutually independent entries.

    Independence of the entries (and of the matrix from every other time
    step) is a modelling contract supplied by the caller, not something the
    code can check.
    """

    entries: tuple

    def __post_init__(self):
        n = len(self.entries)
        rows = []
        for row in self.entries:
            if len(row) != n:
                raise DomainError("random matrix must be square")
            rows.append(tuple(row))
        object.__setattr__(self, "entries", tuple(rows))

    @classmethod
    def from_grid(cls, grid) -> "RandomMatrixModel":
        rows = []
        for row in grid:
            out = []
            for cell in row:
                if isinstance(cell, RandomEntry):
                    out.append(cell)
                elif isinstance(cell, DistributionSpec):
                    out.append(RandomEntry.from_distribution(cell))
                else:
                    out.append(RandomEntry.deterministic(float(cell)))
            rows.append(tuple(out))
        return cls(tuple(rows))

    @classmethod
    def deterministic(cls, matrix) -> "RandomMatrixModel":
        matrix = np.asarray(matrix, dtype=float)
        return cls.from_grid(matrix.tolist())

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def mean_matrix(self) -> np.ndarray:
        return _readonly([[e.mean for e in row] for row in self.entries])

    @cached_property
    def variance_matrix(self) -> np.ndarray:
        return _readonly([[e.variance for e in row] for row in self.entries])

    @cached_property
    def is_deterministic(self) -> bool:
        return not self.variance_matrix.any()

    def transposed(self) -> "RandomMatrixModel":
        n = self.n
        return RandomMatrixModel(tuple(tuple(self.entries[i][j] for i in range(n)) for j in range(n)))

    def sample_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` realisations, (count, n, n). Entry order is fixed
        row-major so a given generator state always yields the same batch."""
        n = self.n
        out = np.empty((count, n, n))
        for i in range(n):
            for j in range(n):
                entry = self.entries[i][j]
                if entry.kind == "deterministic":
                    out[:, i, j] = entry.mean
                else:
                    out[:, i, j] = entry.sample(rng, count)
        return out


@dataclass(frozen=True)
class SystemSpec:
    """Dynamics, initial state and per-step input polytope over a horizon.

    ``a_models[t]`` drives the step x(t+1) = A(t) x(t) + B u(t); the input
    polytope A_u u <= b_u applies at every step.
    """

    horizon: int
    a_models: tuple
    B: np.ndarray
    x0: np.ndarray
    A_u: np.ndarray
    b_u: np.ndarray

    def __post_init__(self):
        if self.horizon < 1:
            raise DomainError("horizon must be >= 1")
        models = tuple(self.a_models)
        if len(models) != self.horizon:
            raise DomainError(f"expected {self.horizon} state-matrix models, got {len(models)}")
        n = models[0].n
        if any(m.n != n for m in models):
            raise DomainError("state-matrix models must share their dimension")
        B = _readonly(self.B)
        if B.ndim != 2 or B.shape[0] != n:
            raise DomainError(f"B must be {n} x m, got {B.shape}")
        x0 = _readonly(self.x0)
        if x0.shape != (n,):
            raise DomainError(f"x0 must have length {n}")
        A_u = _readonly(self.A_u)
        b_u = _readonly(self.b_u)
        if A_u.ndim != 2 or A_u.shape[1] != B.shape[1] or A_u.shape[0] != b_u.shape[0]:
            raise DomainError("input polytope dimensions are inconsistent")
        object.__setattr__(self, "a_models", models)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "A_u", A_u)
        object.__setattr__(self, "b_u", b_u)

    @property
    def n(self) -> int:
        return self.a_models[0].n

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def input_dim(self) -> int:
        return self.horizon * self.m

    def stacked_input_map(self) -> np.ndarray:
        """kron(I_N, B): maps stacked inputs to stacked per-step injections."""
        return np.kron(np.eye(self.horizon), self.B)

    def stacked_polytope(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-step polytope repeated over the horizon, in stacked U."""
        A = np.kron(np.eye(self.horizon), self.A_u)
        b = np.tile(self.b_u, self.horizon)
        return A, b


@dataclass(frozen=True)
class ConstraintMoments:
    """Mean and variance of one scalar G x(k), as functions of the input.

      mean(U)     = a @ U + b
      variance(U) = U @ Q @ U + 2 q @ U + r
                  = ||L' U + v||^2 + s          (cone-ready norm form)

    Q is symmetric PSD after clamping round-off eigenvalues; the norm form
    reproduces the quadratic exactly up to that clamping.
    """

    a: np.ndarray
    b: float
    Q: np.ndarray
    q: np.ndarray
    r: float
    L: np.ndarray
    v: np.ndarray
    s: float

    def mean(self, U: np.ndarray) -> float:
        return float(self.a @ np.ravel(U) + self.b)

    def variance(self, U: np.ndarray) -> float:
        u = np.ravel(U)
        return float(u @ self.Q @ u + 2.0 * (self.q @ u) + self.r)

    def std(self, U: np.ndarray) -> float:
        return float(np.sqrt(max(self.variance(U), 0.0)))

    def norm_variance(self, U: np.ndarray) -> float:
        u = np.ravel(U)
        resid = self.L.T @ u + self.v if self.L.size else self.v
        return float(resid @ resid + self.s)

    def norm_std(self, U: np.ndarray) -> float:
        return float(np.sqrt(max(self.norm_variance(U), 0.0)))

    @property
    def structurally_deterministic(self) -> bool:
        """True when the variance is identically zero for every input."""
        return self.L.size == 0 and self.s == 0.0 and self.r == 0.0


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------


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


def quad_form_mean(model: RandomMatrixModel, S: np.ndarray) -> np.ndarray:
    """E[Z' S Z] for an independent-entry random matrix Z.

    Off-diagonal blocks see only means; the diagonal picks up
    tr(S Var(Z e_j)) = sum_i S_ii var(z_ij) per column j.
    """
    S = np.asarray(S, dtype=float)
    n = model.n
    if S.shape != (n, n):
        raise DomainError(f"S must be {n} x {n}, got {S.shape}")
    zbar = model.mean_matrix
    out = zbar.T @ S @ zbar
    correction = model.variance_matrix.T @ np.diag(S)
    out[np.diag_indices(n)] += correction
    return out


def _push_second_moment(model: RandomMatrixModel, inner: np.ndarray) -> np.ndarray:
    """E[A inner A'] via the quadratic-form mean of the transposed model."""
    return quad_form_mean(model.transposed(), inner)


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


# ---------------------------------------------------------------------------
# Stacked-block column selector
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Full constraint moments
# ---------------------------------------------------------------------------


def constraint_moments(spec: SystemSpec, G: np.ndarray, k: int) -> ConstraintMoments:
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
    bmap = spec.stacked_input_map()

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


def _finalize_moments(a, b, Q, q, r) -> ConstraintMoments:
    """PSD-clamp Q and build the norm form; see NotPSD for the failure mode."""
    eigvals, eigvecs = np.linalg.eigh(Q)
    if eigvals.size and eigvals.min() < -PSD_TOL:
        raise NotPSD(
            f"input-quadratic variance has eigenvalue {eigvals.min():.3e} < -{PSD_TOL:g}; "
            "this indicates an assembly bug, not bad user input"
        )
    clamped = np.clip(eigvals, 0.0, None)
    Q_psd = (eigvecs * clamped) @ eigvecs.T
    Q_psd = 0.5 * (Q_psd + Q_psd.T)

    keep = clamped > 0.0
    L = eigvecs[:, keep] * np.sqrt(clamped[keep])
    if L.shape[1] == 0:
        if np.linalg.norm(q) > NORM_FORM_TOL * max(1.0, abs(r)):
            raise NotPSD("variance has a linear input term but no quadratic part")
        v = np.zeros(0)
    else:
        v, *_ = np.linalg.lstsq(L, q, rcond=None)
        resid = np.linalg.norm(L @ v - q)
        if resid > NORM_FORM_TOL * max(1.0, np.linalg.norm(q)):
            raise NotPSD(f"variance cross term lies outside the quadratic range (residual {resid:.3e})")
    s = r - float(v @ v)
    if s < -NORM_FORM_TOL * max(1.0, abs(r)):
        raise NotPSD(f"norm-form offset came out negative beyond round-off ({s:.3e})")
    s = max(s, 0.0)

    return ConstraintMoments(
        a=_readonly(a),
        b=float(b),
        Q=_readonly(Q_psd),
        q=_readonly(q),
        r=float(r),
        L=_readonly(L),
        v=_readonly(v),
        s=float(s),
    )
