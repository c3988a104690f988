"""Distribution toolbox: closed-form moments, exact samplers, MC certification.

Shipped families are Weibull, Beta, finite-support and constant, each with an
optional integer power transform applied to the variate. Raw moments of the
transformed variate are closed form, which is what the moment-propagation
machinery consumes; samplers are exact (inverse CDF for Weibull and
finite-support, a Gamma-ratio construction for Beta) and fully deterministic
on numpy seed streams.

Weibull parameters are ordered (scale, shape): ``weibull(5, 30)`` has CDF
``1 - exp(-(x/5)**30)`` and raw moments ``E[x^p] = scale**p * gamma(1 + p/shape)``.
The more common (shape, scale) reading gives wildly different numbers, so
double-check the order when importing parameter tables from elsewhere.

``mc_certify`` estimates the joint violation probability of a set of linear
state constraints under a fixed input sequence and reports an exact one-sided
99% Clopper-Pearson upper confidence bound, the Beta(v + 1, n - v) quantile
from ``scipy.special.betaincinv`` (Wald intervals are invalid when the
violation count is near zero, which is the regime certification targets).

The verdict is sequential: a run of ``samples`` trajectories is split into
batches, batch b holding ``min(_MC_FIRST_BATCH << b, _MC_BATCH, samples
left)`` trajectories (4096, 8192, 16384, then 32768 each), and the
certificate looks at the running count after each batch. A small first look
decides a well-certified run cheaply, and doubling keeps the number of
looks, and of Python passes over the random entries, low on long runs. A
single look spends all of ``1 - confidence``, which is the fixed-sample
test. With K > 1 looks the K - 1 early ones share ``_MC_EARLY_SHARE`` (one
tenth) of ``1 - confidence`` equally and the last look spends the rest: at
1e5 samples and confidence 0.99, six looks, five early ones spending 0.02%
each (testing at 99.98%) and the last 0.9% (at 99.1%). A run stops at the
first look whose bound is at most alpha (pass), or once the bound at the
last look's level over the whole budget, with no further violation, exceeds
alpha (curtailment: no later look can pass). The levels sum to
``1 - confidence``, so by Bonferroni the bound at whichever look stops the
run is still a one-sided ``confidence`` upper bound. The batches of a
shorter budget are a prefix of a longer one's, and by the stream rule below
each draws the same stream in both, so the batches run are those of a
``samples_used``-trajectory run.

Stream rule, shared by scenario sampling and MC certification: a draw of
``count`` trajectories is split into the batches above, and batch b draws
from ``default_rng(SeedSequence(seed, spawn_key=(b,)))``, as
``batch_streams`` yields them. Within a batch a ``DrawPlan`` draws the
random entries, the ``sites`` of each A(t)'s ``RandomMatrixModel``,
time-ascending and row-major within each A(t): one uniform double for a
weibull or finite entry, two unit-scale Gamma draws (shape a, then b) for a
beta entry, none for a constant one, each draw made for the whole batch at
once. Scenario sampling fills one plan of the whole horizon per batch, MC
one plan per entry of each A(t) in turn, which draws the same stream. One
call per run of adjacent uniforms gives the bits of one call per draw, and
the transforms from draws to entries are elementwise, so the draws are
fixed by (seed, count) and the system, however states are advanced between
them: scenario s of a ``count``-scenario draw is trajectory s of a
``count``-sample MC run on the same seed. Batch b has the same size in every draw that fills it, so the
whole batches of a draw are those of any longer draw on the same seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np
from scipy import special

from .errors import DomainError, MomentUndefined, SamplerMissing

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .moments import SystemSpec

# The one place that names each family's parameters, in ``params`` order;
# config files spell a distribution as {"family": name, <parameter>: value}.
# Finite-support parameters are sequences, every other parameter a number.
FAMILIES = {"weibull": ("scale", "shape"), "beta": ("a", "b"), "finite": ("values", "probs"), "constant": ("value",)}
# MC batch sizes: the first batch, doubled per batch up to the cap.
_MC_FIRST_BATCH = 1 << 12
_MC_BATCH = 1 << 15
# Share of 1 - confidence that the early looks of a multi-batch MC run
# spend, split equally among them; the last look spends the rest.
_MC_EARLY_SHARE = 0.1


def is_number(value) -> bool:
    """A finite float, or an int that converts to one; a boolean is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


@dataclass(frozen=True)
class DistributionSpec:
    """A scalar distribution plus an optional integer power transform.

    ``params`` by family:
      weibull:  (scale, shape), both > 0
      beta:     (a, b), both > 0
      finite:   (values, probabilities), probabilities summing to 1
      constant: (value,)

    ``power`` transforms the variate x -> x**power with power in {1, 2, 3};
    moments and samples always refer to the transformed variate.

    Construction is the one check of a matrix entry: every parameter must be
    a finite number, not a boolean (a sequence of them for finite support),
    and ``mean`` and ``variance`` must be finite; both are computed there,
    once (a constant's variance is 0).
    """

    family: str
    params: tuple
    power: int = 1
    mean: float = field(init=False, repr=False, compare=False)
    variance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown distribution family {self.family!r}")
        if isinstance(self.power, bool) or not isinstance(self.power, int) or self.power not in (1, 2, 3):
            raise DomainError(f"power transform must be 1, 2 or 3, got {self.power!r}")
        names = FAMILIES[self.family]
        sequences = self.family == "finite"
        if len(self.params) != len(names) or not all(
            isinstance(p, (list, tuple)) and all(map(is_number, p)) if sequences else is_number(p) for p in self.params
        ):
            kind = "sequences of finite numbers" if sequences else "finite numbers"
            raise DomainError(f"{self.family} takes {len(names)} {kind}: {', '.join(names)}")
        params = tuple(tuple(map(float, p)) if sequences else float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        if self.family == "weibull" and min(params) <= 0:
            raise DomainError("weibull requires positive scale and shape")
        if self.family == "beta" and min(params) <= 0:
            raise DomainError("beta requires positive shape parameters")
        if sequences:
            values, probs = params
            if len(values) != len(probs) or not values:
                raise DomainError("finite support needs matching, nonempty values/probs")
            if any(p < 0 for p in probs):
                raise DomainError("finite-support probabilities must be nonnegative")
            if abs(sum(probs) - 1.0) > 1e-12:
                raise DomainError("finite-support probabilities must sum to 1 within 1e-12")
        try:
            mean = self.raw_moment(1)
            variance = 0.0 if self.family == "constant" else max(self.raw_moment(2) - mean * mean, 0.0)
        except OverflowError:  # a number's power beyond float range
            mean = variance = math.inf
        if not (math.isfinite(mean) and math.isfinite(variance)):
            raise DomainError(f"{self.family} entry needs a finite mean and variance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)

    # -- moments --------------------------------------------------------

    def raw_moment(self, p: int) -> float:
        """E[x^p] of the transformed variate, exact closed form."""
        if not isinstance(p, (int, np.integer)) or p < 1:
            raise MomentUndefined(f"raw moment order must be a positive integer, got {p}")
        order = int(p) * self.power
        if self.family == "weibull":
            scale, shape = self.params
            return float(scale**order * special.gamma(1.0 + order / shape))
        if self.family == "beta":
            a, b = self.params
            out = 1.0
            for j in range(order):
                out *= (a + j) / (a + b + j)
            return float(out)
        if self.family == "finite":
            values, probs = self.params
            return float(sum(pr * v**order for v, pr in zip(values, probs)))
        (value,) = self.params
        return float(value**order)

    # -- sampling -------------------------------------------------------

    @cached_property
    def _finite_table(self) -> tuple[np.ndarray, np.ndarray]:
        """A finite support's values and inner cumulative edges, built once
        rather than on every transform (MC transforms once per batch)."""
        values, probs = self.params
        return np.asarray(values, dtype=float), np.cumsum(probs)[:-1]

    @property
    def draws(self) -> tuple:
        """One variate's raw draws in stream order: None for a uniform
        double, a number for a unit-scale Gamma draw of that shape."""
        if self.family == "beta":
            return self.params
        if self.family == "constant":
            return ()
        return (None,)

    def transform(self, draws: np.ndarray) -> np.ndarray:
        """Variates from raw draws of shape (len(self.draws), count), one column
        per variate: inverse CDF or Gamma ratio, then the power, on one fresh array."""
        if self.family == "weibull":
            scale, shape = self.params
            base = np.negative(draws[0])
            np.negative(np.log1p(base, out=base), out=base)
            base **= 1.0 / shape
            base *= scale
        elif self.family == "beta":
            g1, g2 = draws
            base = g1 / (g1 + g2)
        elif self.family == "finite":
            values, inner = self._finite_table
            # Index of the first cumulative edge above u, capped at the last
            # value: the count of inner edges at or below u.
            base = values[(draws[0][:, None] >= inner).sum(1)]
        else:
            (value,) = self.params
            base = np.full(draws.shape[1], value, dtype=float)
        if self.power != 1:
            base **= self.power  # every branch above made base afresh
        return base


def weibull(scale: float, shape: float, power: int = 1) -> DistributionSpec:
    return DistributionSpec("weibull", (float(scale), float(shape)), power)


def beta_dist(a: float, b: float, power: int = 1) -> DistributionSpec:
    return DistributionSpec("beta", (float(a), float(b)), power)


def finite_support(values: Sequence[float], probs: Sequence[float], power: int = 1) -> DistributionSpec:
    return DistributionSpec("finite", (tuple(values), tuple(probs)), power)


def constant(value: float) -> DistributionSpec:
    return DistributionSpec("constant", (float(value),))


def sample(dist: DistributionSpec, seed_stream, count: int) -> np.ndarray:
    """Sample with an int seed, a SeedSequence, or an existing Generator."""
    if count < 1:
        raise DomainError("sample count must be >= 1")
    plan = DrawPlan([(0, 0, 0, dist)])
    return dist.transform(plan.fill(np.random.default_rng(seed_stream), np.empty((plan.width, count))))


class DrawPlan:
    """The draws of (t, i, j, dist) sites on one stream, in the given order.

    ``entries`` are (t, i, j, dist, first row): a fill holds the site's raw
    draws in rows first, ..., first + len(dist.draws) - 1 of ``width`` rows.
    ``calls`` are [first row, rows, Gamma shape or None], one per generator
    call, each run of adjacent uniform rows merged into one call.
    """

    def __init__(self, sites):
        self.entries, self.calls, self.width = [], [], 0
        for t, i, j, dist in sites:
            if dist is None:
                raise SamplerMissing("random entry carries moments only; attach a DistributionSpec to sample")
            self.entries.append((t, i, j, dist, self.width))
            for shape in dist.draws:
                if shape is None and self.calls and self.calls[-1][2] is None:
                    self.calls[-1][1] += 1
                else:
                    self.calls.append([self.width, 1, shape])
                self.width += 1

    @classmethod
    def of(cls, models) -> "DrawPlan":
        """The plan of the random entries of time-ascending ``models``."""
        return cls((t, i, j, dist) for t, model in enumerate(models) for i, j, dist in model.sites)

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Run the calls on ``rng`` into ``out``, a C-contiguous (width, count)
        array, and return it."""
        for first, rows, shape in self.calls:
            if shape is None:
                rng.random(out=out[first : first + rows])
            else:
                rng.standard_gamma(shape, out=out[first])
        return out


# ---------------------------------------------------------------------------
# Monte-Carlo certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McCertificate:
    """Joint-violation estimate with an exact upper confidence bound.

    ``samples`` is the requested budget and ``samples_used`` the trajectories
    drawn before the verdict was decided: the first batches of the run, whose
    ``violations`` give ``empirical_violation``. ``levels`` is the error
    level spent at each look taken; ``upper_ci_99`` is the bound at the look
    that decided, still a one-sided ``confidence`` upper bound since the
    levels of all possible looks sum to ``1 - confidence``.
    """

    samples: int
    samples_used: int
    violations: int
    empirical_violation: float
    upper_ci_99: float
    alpha: float
    passed: bool
    levels: tuple[float, ...]

    def to_dict(self) -> dict:
        return {**asdict(self), "levels": list(self.levels)}


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise DomainError(f"confidence must lie in (0, 1), got {confidence!r}")


def clopper_pearson_upper(violations: int, samples: int, confidence: float = 0.99) -> float:
    """Exact one-sided upper confidence bound on a binomial proportion."""
    if samples < 1 or violations < 0 or violations > samples:
        raise DomainError("need 0 <= violations <= samples, samples >= 1")
    _check_confidence(confidence)
    if violations == samples:
        return 1.0
    return float(special.betaincinv(violations + 1, samples - violations, confidence))


def look_levels(looks: int, confidence: float) -> tuple[float, ...]:
    """The error level each of ``looks`` looks spends from ``1 - confidence``:
    all of it at a single look, else ``_MC_EARLY_SHARE`` of it split equally
    over the early looks and the rest at the last one."""
    _check_confidence(confidence)
    budget = 1.0 - confidence
    if looks == 1:
        return (budget,)
    return (budget * _MC_EARLY_SHARE / (looks - 1),) * (looks - 1) + (budget * (1.0 - _MC_EARLY_SHARE),)


def sequential_verdict(
    counts: Iterable[int], sizes: Sequence[int], alpha: float, confidence: float = 0.99
) -> tuple[int, int, tuple[float, ...], float]:
    """(violations, samples used, levels spent, upper bound) of a run that
    looks after each batch: ``counts`` are the batches' violation counts,
    pulled one per look and none after the deciding one, ``sizes`` their
    trajectory counts. The run passes when the returned bound is at most
    ``alpha``.

    Look b tests at confidence ``1 - level`` (exactly ``confidence`` at a
    single look, for confidence >= 1/2) and the run stops there once the
    bound is at most alpha, or once even no further violation could bring
    the bound at the last look over all of ``sizes`` down to alpha.
    """
    levels = look_levels(len(sizes), confidence)
    samples = sum(sizes)
    last = 1.0 - levels[-1]
    violations = used = 0
    for look, (size, count) in enumerate(zip(sizes, counts), 1):
        violations += count
        used += size
        upper = clopper_pearson_upper(violations, used, 1.0 - levels[look - 1])
        if upper <= alpha or clopper_pearson_upper(violations, samples, last) > alpha:
            break
    return violations, used, levels[:look], upper


def _batch_sizes(samples: int) -> list[int]:
    """The MC batch sizes of a ``samples``-trajectory run: batch b holds
    ``min(_MC_FIRST_BATCH << b, _MC_BATCH, samples left)``."""
    sizes, size, left = [], _MC_FIRST_BATCH, samples
    while left > 0:
        sizes.append(min(size, left))
        left -= sizes[-1]
        size = min(2 * size, _MC_BATCH)
    return sizes


def batch_streams(seed: int, count: int) -> Iterator[tuple[np.random.Generator, int]]:
    """(generator, size) of each batch of a ``count``-trajectory draw on
    ``seed``, by the stream rule in the module docstring."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    return (
        (np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,))), size)
        for b, size in enumerate(_batch_sizes(count))
    )


def mc_certify(
    spec: "SystemSpec",
    jcc,
    U: np.ndarray,
    samples: int,
    seed: int,
    confidence: float = 0.99,
) -> McCertificate:
    """Simulate full-horizon trajectories under ``U`` and certify ``jcc``.

    ``jcc`` needs ``rows`` and ``alpha``; a row outside steps 1..N is
    refused. A trajectory
    counts as violating when any row fails strictly at its time step; the
    certificate passes when the one-sided Clopper-Pearson upper bound on the
    joint violation probability is at most alpha, with the sequential
    verdict stated in the module docstring: the run stops at the first batch
    that decides it.

    Batches draw by the stream rule in the module docstring, so the result
    is a pure function of (seed, samples). A batch is an (n, count) state array;
    a step is one product with the deterministic part of A(t), plus A_ij(t)
    x_j(t) added to state row i for each entry of A(t)'s draw plan.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    U = np.asarray(U, dtype=float).reshape(spec.horizon, spec.m)
    table = spec.rows_by_step(jcc.rows)
    steps = []  # (deterministic part of A(t), B u(t) as a column, (i, j, dist, one-entry plan) row-major)
    for t, model in enumerate(spec.a_models[: table[-1][0]]):
        entries = [(i, j, dist, DrawPlan([(t, i, j, dist)])) for i, j, dist in model.sites]
        steps.append((np.where(model.random_mask, 0.0, model.mean_matrix), (spec.B @ U[t])[:, None], entries))

    # One entry's draws at a time, at most two rows, in the head of one buffer:
    # they stay in cache until transformed, where a whole step's draws outgrow
    # it at large n.
    sizes = _batch_sizes(samples)
    buffer = np.empty(2 * max(sizes))

    def batch_violations() -> Iterator[int]:
        for rng, count in batch_streams(seed, samples):
            violated = np.zeros(count, dtype=bool)
            x = spec.x0[:, None]  # one column until the first step spreads it over the batch
            t = 0
            for k, G, h in table:
                for t in range(t, k):
                    a_det, drive, entries = steps[t]
                    x_next = a_det @ x + drive
                    if t == 0:
                        x_next = np.repeat(x_next, count, axis=1)
                    for i, j, dist, plan in entries:
                        draws = plan.fill(rng, buffer[: plan.width * count].reshape(plan.width, count))
                        x_next[i] += dist.transform(draws) * x[j]
                    x = x_next
                t = k
                violated |= (G @ x > h[:, None]).any(axis=0)
            yield int(violated.sum())

    alpha = float(jcc.alpha)
    violations, used, levels, upper = sequential_verdict(batch_violations(), sizes, alpha, confidence)
    return McCertificate(
        samples=samples,
        samples_used=used,
        violations=violations,
        empirical_violation=violations / used,
        upper_ci_99=upper,
        alpha=alpha,
        passed=bool(upper <= alpha),
        levels=levels,
    )
