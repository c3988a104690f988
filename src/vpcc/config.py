"""Versioned JSON problem configurations and builders for the solver stack.

Schema 1 layout (matrices are row-major nested lists):

    {
      "schema": 1,
      "seed": 0,
      "system": {"n", "m", "horizon", "x0", "B",
                 "A": {"all": grid} | {"per_step": [grid, ...]}},
      "constraints": {"alpha", "rows": [{"id", "G", "h", "k": int | "all"}]},
      "cost": {"quadratic", "linear"} | {"per_step": [{...}, ...]},
      "input_polytope": {"A_u", "b_u"},
      "assumptions": {"independence": "attested", "unimodal": "attested"},
      "methods": {"acs": {...}, "scenario": {...}, "mc": {...}}
    }

Each method block is optional and holds:
  "acs":      the fields of ``acs.AcsConfig`` (policies as strings,
              "user_lambdas" an object mapping each expanded row id
              "<id>@k<k>" to an admissible multiplier, Infinity only for a
              structurally deterministic row, "max_outer_iters" and
              "restoration_rounds" positive integers, "restoration" a
              boolean, tolerances numbers), with "solver" an object of
              ``conic.SolverOptions`` fields ("tol" a number, "max_iter"
              a positive integer);
  "scenario": "beta", a number in (0, 1), and "sample_count", null (the
              sample bound decides) or a positive integer;
  "mc":       "samples", a positive integer (default 100000).
A method block, or "acs.solver", holding any other key is refused at that
key's path, as is a "restoration" that is not a JSON boolean.
A JSON boolean is not accepted where an integer or a number is asked for,
here or anywhere else in the file, nor is a string or null inside a vector
or matrix. Every number must be finite: NaN, Infinity and an integer
beyond float range are refused at their field path, except a multiplier in
"user_lambdas", whose own check decides it.

A grid cell is either a number (deterministic entry) or a distribution
object such as {"family": "weibull", "scale": 5, "shape": 30, "power": 3},
{"family": "beta", "a": 50, "b": 50}, {"family": "finite", "values": [...],
"probs": [...]} or {"family": "constant", "value": 2};
``stochastics.FAMILIES`` names each family's parameters. A distribution
that ``stochastics.DistributionSpec`` refuses (a parameter that is not a
finite number, or a mean or variance beyond float range) is refused at the
cell's path, so ``validate`` refuses every cell that a solve cannot build.

Both attestation flags must read "attested" before any solve is allowed;
they declare the modelling assumptions (entry independence, marginal
unimodality of every constraint row) that cannot be machine-checked.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from importlib import resources

import numpy as np

from .acs import AcsConfig, Cost
from .conic import SolverOptions
from .errors import ConfigError, DomainError
from .moments import RandomMatrixModel, SystemSpec, constraint_moments
from .reformulate import VP, ConstraintRow, JointChanceConstraint, RowSet
from .scenario import ScenarioConfig
from .stochastics import FAMILIES, DistributionSpec, is_number

SCHEMA_VERSION = 1
# The keys each method block may hold, and those of "acs.solver".
_METHOD_KEYS = {
    "acs": tuple(f.name for f in fields(AcsConfig)),
    "scenario": ("beta", "sample_count"),
    "mc": ("samples",),
}
_SOLVER_KEYS = tuple(f.name for f in fields(SolverOptions))


def _need(mapping, key, path, kind=None):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    value = mapping[key]
    if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise ConfigError(f"{path}.{key}" if path else key, f"expected {names}, got {type(value).__name__}")
    if isinstance(value, (int, float)) and not isinstance(value, bool) and kind is not int and not is_number(value):
        got = "an integer beyond float range" if isinstance(value, int) else repr(value)
        raise ConfigError(f"{path}.{key}" if path else key, f"expected a finite number, got {got}")
    return value


def _array(value, path, *shape):
    """Nested lists of numbers as a float array with one axis per entry of
    ``shape``, where an entry that is not None is that axis's length. A
    boolean, string or null is not a number here."""
    cells = np.array(value, dtype=object)
    if cells.ndim != len(shape) or not all(map(is_number, cells.flat)):
        raise ConfigError(path, f"expected a {len(shape)}-d array of finite numbers, as nested lists of equal length")
    if any(want not in (None, got) for got, want in zip(cells.shape, shape)):
        want = ", ".join("*" if size is None else str(size) for size in shape)
        raise ConfigError(path, f"expected shape ({want}), got {cells.shape}")
    return cells.astype(float)


def parse_entry(cell, path) -> DistributionSpec | float:
    if is_number(cell):
        return float(cell)
    if not isinstance(cell, dict):
        raise ConfigError(path, "matrix entries are finite numbers or distribution objects")
    family = _need(cell, "family", path, str)
    if family not in FAMILIES:
        raise ConfigError(f"{path}.family", f"unknown family {family!r}")
    params = tuple(_need(cell, name, path) for name in FAMILIES[family])
    try:
        return DistributionSpec(family, params, cell.get("power", 1))
    except DomainError as exc:
        raise ConfigError(path, str(exc)) from None


def _entry_to_json(entry) -> object:
    if isinstance(entry, float):
        return entry
    spec: DistributionSpec = entry
    out: dict = {"family": spec.family}
    for name, value in zip(FAMILIES[spec.family], spec.params):
        out[name] = list(value) if isinstance(value, tuple) else value
    if spec.power != 1:
        out["power"] = spec.power
    return out


@dataclass(frozen=True)
class ProblemConfig:
    seed: int
    n: int
    m: int
    horizon: int
    x0: np.ndarray
    B: np.ndarray
    a_grids: tuple  # one grid per step; grid cell is float | DistributionSpec
    alpha: float
    row_specs: tuple  # (id, G, h, k int | "all")
    cost_quadratic: tuple
    cost_linear: tuple
    A_u: np.ndarray
    b_u: np.ndarray
    assumptions: dict
    acs_options: dict
    scenario_options: dict
    mc_options: dict

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed", f"seed must be a non-negative integer, got {self.seed!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError("constraints.alpha", f"alpha must lie in (0, 1), got {self.alpha}")

    # -- builders ---------------------------------------------------------

    def system_spec(self) -> SystemSpec:
        models = tuple(RandomMatrixModel.from_grid(grid) for grid in self.a_grids)
        return SystemSpec(
            horizon=self.horizon, a_models=models, B=self.B, x0=self.x0, A_u=self.A_u, b_u=self.b_u
        )

    def constraint_rows(self) -> list[ConstraintRow]:
        rows = []
        for rid, G, h, k in self.row_specs:
            if k == "all":
                for kk in range(1, self.horizon + 1):
                    rows.append(ConstraintRow(G=G, h=h, k=kk, id=f"{rid}@k{kk}"))
            else:
                rows.append(ConstraintRow(G=G, h=h, k=int(k), id=f"{rid}@k{int(k)}"))
        return rows

    def row_set(self) -> RowSet:
        return RowSet(tuple(self.constraint_rows()), self.alpha)

    def jcc(self) -> JointChanceConstraint:
        rows = tuple(self.constraint_rows())
        try:
            return JointChanceConstraint(rows, self.alpha)
        except DomainError as exc:
            raise ConfigError("constraints.alpha", str(exc)) from None

    def cost(self) -> Cost:
        return Cost(self.cost_quadratic, self.cost_linear)

    def acs_config(self) -> AcsConfig:
        opts = dict(self.acs_options)
        solver = opts.pop("solver", {})
        return AcsConfig(solver=SolverOptions(**solver), **opts)

    def scenario_config(self, seed: int | None = None) -> ScenarioConfig:
        opts = dict(self.scenario_options)
        return ScenarioConfig(
            beta=opts.get("beta", 0.001),
            sample_count=opts.get("sample_count"),
            rng_seed=self.seed if seed is None else seed,
        )

    @property
    def mc_samples(self) -> int:
        return self.mc_options.get("samples", 100000)

    def attested(self) -> bool:
        return (
            self.assumptions.get("independence") == "attested"
            and self.assumptions.get("unimodal") == "attested"
        )

    def require_attested(self):
        if not self.attested():
            raise ConfigError(
                "assumptions",
                'both "independence" and "unimodal" must read "attested" before solving',
            )

    def with_alpha(self, alpha: float) -> "ProblemConfig":
        return replace(self, alpha=float(alpha))

    def with_seed(self, seed: int) -> "ProblemConfig":
        return replace(self, seed=seed)

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        grids = [[[_entry_to_json(cell) for cell in row] for row in grid] for grid in self.a_grids]
        same = all(g == grids[0] for g in grids[1:])
        a_field = {"all": grids[0]} if same else {"per_step": grids}
        quads = [Rk.tolist() for Rk in self.cost_quadratic]
        lins = [rk.tolist() for rk in self.cost_linear]
        if all(q == quads[0] for q in quads) and all(l == lins[0] for l in lins):
            cost_field: dict = {"quadratic": quads[0], "linear": lins[0]}
        else:
            cost_field = {"per_step": [{"quadratic": q, "linear": l} for q, l in zip(quads, lins)]}
        return {
            "schema": SCHEMA_VERSION,
            "seed": self.seed,
            "system": {
                "n": self.n,
                "m": self.m,
                "horizon": self.horizon,
                "x0": self.x0.tolist(),
                "B": self.B.tolist(),
                "A": a_field,
            },
            "constraints": {
                "alpha": self.alpha,
                "rows": [
                    {"id": rid, "G": np.asarray(G).tolist(), "h": h, "k": k}
                    for rid, G, h, k in self.row_specs
                ],
            },
            "cost": cost_field,
            "input_polytope": {"A_u": self.A_u.tolist(), "b_u": self.b_u.tolist()},
            "assumptions": dict(self.assumptions),
            "methods": {
                "acs": json.loads(json.dumps(self.acs_options)),
                "scenario": dict(self.scenario_options),
                "mc": dict(self.mc_options),
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def parse_config(data: dict, source: str = "<config>") -> ProblemConfig:
    if not isinstance(data, dict):
        raise ConfigError("", f"{source}: configuration must be a JSON object")
    schema = _need(data, "schema", "", int)
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"unsupported schema version {schema}; this build reads {SCHEMA_VERSION}")

    system = _need(data, "system", "", dict)
    n = _need(system, "n", "system", int)
    m = _need(system, "m", "system", int)
    horizon = _need(system, "horizon", "system", int)
    if n < 1 or m < 1 or horizon < 1:
        raise ConfigError("system", "n, m and horizon must be positive")
    x0 = _array(_need(system, "x0", "system"), "system.x0", n)
    B = _array(_need(system, "B", "system"), "system.B", n, m)

    a_spec = _need(system, "A", "system", dict)
    if "all" in a_spec:
        grid = _parse_grid(a_spec["all"], "system.A.all", n)
        a_grids = tuple(grid for _ in range(horizon))
    elif "per_step" in a_spec:
        steps = a_spec["per_step"]
        if not isinstance(steps, list) or len(steps) != horizon:
            raise ConfigError("system.A.per_step", f"expected {horizon} grids")
        a_grids = tuple(_parse_grid(g, f"system.A.per_step[{t}]", n) for t, g in enumerate(steps))
    else:
        raise ConfigError("system.A", 'expected an "all" or "per_step" field')

    constraints = _need(data, "constraints", "", dict)
    alpha = float(_need(constraints, "alpha", "constraints", (int, float)))
    raw_rows = _need(constraints, "rows", "constraints", list)
    if not raw_rows:
        raise ConfigError("constraints.rows", "need at least one row")
    row_specs = []
    for i, row in enumerate(raw_rows):
        path = f"constraints.rows[{i}]"
        G = _array(_need(row, "G", path), f"{path}.G", n)
        h = float(_need(row, "h", path, (int, float)))
        k = row.get("k", "all")
        if k != "all":
            if isinstance(k, bool) or not isinstance(k, int) or not (1 <= k <= horizon):
                raise ConfigError(f"{path}.k", f'k must be "all" or an integer in [1, {horizon}]')
        rid = str(row.get("id", f"row{i}"))
        row_specs.append((rid, G, h, k))
    if len(set(r[0] for r in row_specs)) != len(row_specs):
        raise ConfigError("constraints.rows", "row ids must be unique")

    cost = _need(data, "cost", "", dict)
    if "per_step" in cost:
        steps = cost["per_step"]
        if not isinstance(steps, list) or len(steps) != horizon:
            raise ConfigError("cost.per_step", f"expected {horizon} entries")
        quads = tuple(_array(_need(s, "quadratic", f"cost.per_step[{t}]"), f"cost.per_step[{t}].quadratic", m, m) for t, s in enumerate(steps))
        lins = tuple(_array(_need(s, "linear", f"cost.per_step[{t}]"), f"cost.per_step[{t}].linear", m) for t, s in enumerate(steps))
    else:
        Rk = _array(_need(cost, "quadratic", "cost"), "cost.quadratic", m, m)
        rk = _array(_need(cost, "linear", "cost"), "cost.linear", m)
        quads = tuple(Rk for _ in range(horizon))
        lins = tuple(rk for _ in range(horizon))

    polytope = _need(data, "input_polytope", "", dict)
    A_u = _array(_need(polytope, "A_u", "input_polytope"), "input_polytope.A_u", None, m)
    b_u = _array(_need(polytope, "b_u", "input_polytope"), "input_polytope.b_u", A_u.shape[0])

    assumptions = data.get("assumptions", {})
    if not isinstance(assumptions, dict):
        raise ConfigError("assumptions", "expected an object")

    methods = data.get("methods", {})
    if not isinstance(methods, dict):
        raise ConfigError("methods", "expected an object")
    acs_options, scenario_options, mc_options = (
        _options(methods.get(key, {}), f"methods.{key}", keys) for key, keys in _METHOD_KEYS.items()
    )
    _counts(acs_options, "methods.acs", "max_outer_iters", "restoration_rounds")
    if not isinstance(acs_options.get("restoration", True), bool):
        raise ConfigError("methods.acs.restoration", f"expected a boolean, got {acs_options['restoration']!r}")
    user_lambdas = acs_options.get("user_lambdas") or {}
    if not isinstance(user_lambdas, dict) or not all(is_number(v) or v in (math.inf, -math.inf) for v in user_lambdas.values()):
        raise ConfigError("methods.acs.user_lambdas", "expected an object mapping row ids to numbers")
    if "solver" in acs_options:
        solver = _options(acs_options["solver"], "methods.acs.solver", _SOLVER_KEYS)
        _counts(solver, "methods.acs.solver", "max_iter")
        _numbers(solver, "methods.acs.solver", "tol")
    _numbers(acs_options, "methods.acs", "convergence_rel_tol", "feasibility_tol")
    _numbers(scenario_options, "methods.scenario", "beta")
    if scenario_options.get("sample_count") is not None:
        _counts(scenario_options, "methods.scenario", "sample_count")
    _counts(mc_options, "methods.mc", "samples")

    cfg = ProblemConfig(
        seed=data.get("seed", 0),
        n=n,
        m=m,
        horizon=horizon,
        x0=x0,
        B=B,
        a_grids=a_grids,
        alpha=alpha,
        row_specs=tuple(row_specs),
        cost_quadratic=quads,
        cost_linear=lins,
        A_u=A_u,
        b_u=b_u,
        assumptions=dict(assumptions),
        acs_options=acs_options,
        scenario_options=scenario_options,
        mc_options=mc_options,
    )
    if user_lambdas:
        _user_lambdas(user_lambdas, cfg)
    try:
        cfg.acs_config()
        cfg.scenario_config()
        cfg.cost()
    except DomainError as exc:
        raise ConfigError("methods", f"invalid method options: {exc}") from None
    return cfg


def _options(options, path, keys):
    """A copy of an options object, which holds only ``keys``."""
    if not isinstance(options, dict):
        raise ConfigError(path, f"expected an object, got {type(options).__name__}")
    for key in options:
        if key not in keys:
            raise ConfigError(f"{path}.{key}", f"unknown key; expected one of {', '.join(keys)}")
    return dict(options)


def _counts(options, path, *keys):
    """Each of ``keys`` that ``options`` holds must be a positive integer."""
    for key in keys:
        value = options.get(key, 1)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigError(f"{path}.{key}", f"expected a positive integer, got {value!r}")


def _numbers(options, path, *keys):
    """Each of ``keys`` that ``options`` holds must be a finite number."""
    for key in keys:
        if key in options:
            _need(options, key, path, (int, float))


def _user_lambdas(lambdas, cfg):
    """Initial multipliers name exactly the expanded rows, each admissible;
    Infinity only on a structurally deterministic row, since a random row's
    deviation is never identically zero and an infinite multiplier on it can
    never hold."""
    path = "methods.acs.user_lambdas"
    rows = cfg.constraint_rows()
    row_ids = [row.id for row in rows]
    missing = [r for r in row_ids if r not in lambdas]
    unknown = [r for r in lambdas if r not in row_ids]
    if missing or unknown:
        raise ConfigError(path, f"keys must be the expanded row ids; missing {missing}, unknown {unknown}")
    for rid, lam in lambdas.items():
        if not VP.admits(lam):
            raise ConfigError(path, f"{rid} = {lam!r} is not an admissible multiplier (Infinity or >= {VP.floor!r})")
    spec = cfg.system_spec()
    for row in rows:
        if math.isinf(lambdas[row.id]) and not constraint_moments(spec, row.G, row.k).structurally_deterministic:
            raise ConfigError(path, f"{row.id} = inf on a random row: its deviation is not identically zero")


def _parse_grid(grid, path, n):
    if not isinstance(grid, list) or len(grid) != n:
        raise ConfigError(path, f"expected {n} rows")
    out = []
    for i, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"{path}[{i}]", f"expected {n} entries")
        out.append(tuple(parse_entry(cell, f"{path}[{i}][{j}]") for j, cell in enumerate(row)))
    return tuple(out)


def load_config(path) -> ProblemConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"{path}: invalid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise ConfigError("", f"{path}: not UTF-8 ({exc})") from None
    return parse_config(data, source=str(path))


def two_bus_config_path() -> str:
    """Bundled two-bus dispatch example (wind plus stochastic load)."""
    return str(resources.files("vpcc").joinpath("data/two_bus.json"))


def load_two_bus() -> ProblemConfig:
    return load_config(two_bus_config_path())
