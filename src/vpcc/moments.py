"""Exact moments of linear state functions under random-matrix dynamics.

For x(k+1) = A(k) x(k) + B u(k) with every entry of every A(k) an independent
random variable (independent across time steps as well), any scalar G x(k)
has closed-form mean and variance in the stacked input U: the mean is affine
in U because expectation factors through products of independent matrices,
and the variance is quadratic in U.

Write Phi(k,t) = A(k-1)...A(t) and M(s,t) = E[A(s-1)]...E[A(t)], so that

    G x(k) = (Phi(k,0)' G)' x0 + sum_{p<k} (Phi(k,p+1)' G)' B u(p).

One backward pass per row tracks the mean g_t and covariance C_t of
Phi(k,t)' G, starting from g_k = G, C_k = 0:

    g_t = E[A(t)]' g_{t+1}
    C_t = quad_form_mean(A(t), C_{t+1}) + diag(Var[A(t)]' (g_{t+1} o g_{t+1}))

``quad_form_mean`` is E[Z' S Z] = E[Z]' S E[Z] + diag(VarZ' diag(S)) for an
independent-entry random matrix Z; the extra diagonal term is the part of
E[A' g g' A] that the mean g contributes. For t <= s the factors between t
and s are independent of Phi(k,s)' G, so Cov(Phi(k,s)' G, Phi(k,t)' G) =
C_s M(s,t). Hence

    mean coefficient of u(p)          B' g_{p+1}
    mean offset b                     g_0' x0
    Q block (u(q), u(p)), p <= q < k  B' C_{q+1} M(q+1,p+1) B, mirrored
    cross term q for u(q)             B' C_{q+1} M(q+1,0) x0
    initial-state variance r          x0' C_0 x0

Every term is a covariance, never a second moment minus a squared mean, so
nothing cancels.

Index convention: model sequences are time-ascending lists and products
apply later factors on the left, so ``[A(0), A(1)]`` means A(1) @ A(0).
All public types are immutable and all operations are pure, so they are
safe to call from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPSD
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
class RandomMatrixModel:
    """A square random matrix with mutually independent entries.

    ``mean_matrix`` and ``variance_matrix`` hold every entry's mean and
    variance. ``sites`` lists the random entries row-major as (i, j, dist):
    dist is the entry's DistributionSpec, which supplies an exact sampler,
    or None for an entry known only by its moments, which cannot be
    sampled. Every other entry is deterministic, with zero variance.
    ``random_mask`` is True at the sites.

    Independence of the entries (and of the matrix from every other time
    step) is a modelling contract supplied by the caller, not something the
    code can check.
    """

    mean_matrix: np.ndarray
    variance_matrix: np.ndarray
    sites: tuple = ()

    def __post_init__(self):
        mean, variance = _readonly(self.mean_matrix), _readonly(self.variance_matrix)
        n = len(mean)
        if mean.shape != (n, n) or variance.shape != (n, n):
            raise DomainError("random matrix must be square, with one variance per entry")
        if not (np.isfinite(mean).all() and np.isfinite(variance).all()) or (variance < 0).any():
            raise DomainError("entries need a finite mean and a finite nonnegative variance")
        sites = tuple(self.sites)
        cells = [(i, j) for i, j, _ in sites]
        if cells != sorted(set(cells)) or not all(0 <= i < n and 0 <= j < n for i, j in cells):
            raise DomainError("sites must be distinct entries of the matrix, row-major")
        mask = np.zeros((n, n), dtype=bool)
        for i, j in cells:
            mask[i, j] = True
        if variance[~mask].any():
            raise DomainError("an entry outside the sites is deterministic and needs zero variance")
        mask.setflags(write=False)
        object.__setattr__(self, "mean_matrix", mean)
        object.__setattr__(self, "variance_matrix", variance)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "random_mask", mask)

    @classmethod
    def from_grid(cls, grid) -> "RandomMatrixModel":
        """The model of a grid of numbers and DistributionSpecs, each spec's
        mean and variance as it computed them; a constant spec is a
        deterministic entry."""
        sites = tuple(
            (i, j, cell)
            for i, row in enumerate(grid)
            for j, cell in enumerate(row)
            if isinstance(cell, DistributionSpec) and cell.family != "constant"
        )
        mean = [[cell.mean if isinstance(cell, DistributionSpec) else float(cell) for cell in row] for row in grid]
        variance = np.zeros((len(mean), len(mean)))
        for i, j, dist in sites:
            variance[i, j] = dist.variance
        return cls(mean, variance, sites)

    @classmethod
    def deterministic(cls, matrix) -> "RandomMatrixModel":
        matrix = np.asarray(matrix, dtype=float)
        return cls(matrix, np.zeros_like(matrix))

    @property
    def n(self) -> int:
        return len(self.mean_matrix)


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
        object.__setattr__(self, "_polytope", (_readonly(np.kron(np.eye(self.horizon), A_u)), _readonly(np.tile(b_u, self.horizon))))

    @property
    def n(self) -> int:
        return self.a_models[0].n

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def input_dim(self) -> int:
        return self.horizon * self.m

    def stacked_polytope(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-step polytope repeated over the horizon, in stacked U: read-only arrays built once per spec."""
        return self._polytope

    def rows_by_step(self, rows) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """``(k, G, h)`` per step that has rows (objects with G, h, k, id), in
        ascending k: each step's G vectors stacked and its h values, in the
        rows' given order. A row outside steps 1..horizon is refused."""
        outside = [row.id for row in rows if not 1 <= row.k <= self.horizon]
        if outside:
            raise DomainError(f"constraint rows outside time steps 1..{self.horizon}: {', '.join(outside)}")
        steps = sorted({row.k for row in rows})
        return [
            (k, np.array([row.G for row in rows if row.k == k], dtype=float), np.array([row.h for row in rows if row.k == k]))
            for k in steps
        ]


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
# Moment assembly
# ---------------------------------------------------------------------------


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


def constraint_moments(spec: SystemSpec, G: np.ndarray, k: int) -> ConstraintMoments:
    """Assemble mean and variance of G x(k) as functions of the stacked input.

    One backward pass gives g[t] = E[h_t] and C[t] = Cov(h_t) for
    h_t = A(t)' ... A(k-1)' G, the weight of x(t) in G x(k); the mean and
    covariance blocks then follow as in the module docstring.
    """
    n, N, m = spec.n, spec.horizon, spec.m
    if not (1 <= k <= N):
        raise DomainError(f"time index must lie in [1, {N}], got {k}")
    G = np.asarray(G, dtype=float)
    if G.shape != (n,):
        raise DomainError(f"G must have length {n}")
    models = spec.a_models[:k]
    B, x0 = spec.B, spec.x0

    g = [None] * k + [G]
    C = [None] * k + [np.zeros((n, n))]
    for t in range(k - 1, -1, -1):
        model = models[t]
        g[t] = model.mean_matrix.T @ g[t + 1]
        C[t] = quad_form_mean(model, C[t + 1])
        C[t][np.diag_indices(n)] += model.variance_matrix.T @ (g[t + 1] * g[t + 1])

    a = np.zeros((N, m))
    Q = np.zeros((N, m, N, m))
    q = np.zeros((N, m))
    for j in range(k):
        a[j] = B.T @ g[j + 1]
        # W runs through B' C[j+1] M(j+1, p+1) for p = j, j-1, ..., 0 and
        # ends at B' C[j+1] M(j+1, 0), the cross-term weight of x0.
        W = B.T @ C[j + 1]
        for p in range(j, -1, -1):
            Q[j, :, p, :] = W @ B
            Q[p, :, j, :] = Q[j, :, p, :].T
            W = W @ models[p].mean_matrix
        q[j] = W @ x0
    Q = Q.reshape(N * m, N * m)
    Q = 0.5 * (Q + Q.T)

    return _finalize_moments(a.ravel(), float(g[0] @ x0), Q, q.ravel(), float(x0 @ C[0] @ x0))


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

    # Eigenvalues within round-off of the largest carry no variance; keeping
    # them would add near-null norm-form columns.
    keep = clamped > Q.shape[0] * np.finfo(float).eps * clamped.max(initial=0.0)
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
