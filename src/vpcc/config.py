"""Versioned JSON problem configurations and builders for the solver stack.

``SCHEMA`` below declares every key of a schema-1 file: where it sits, what
its value must be (array shapes in terms of ``system.n``, ``system.m`` and
``system.horizon``), its default and the ``ProblemConfig`` field it fills.
``parse_config`` walks that table to parse and to fill defaults, and refuses
any key the table does not declare, at that key's path, at every level;
``ProblemConfig.to_dict`` walks the same table to write the config back.

"system.A" and "cost" give either one value for every step ("all", or the
cost terms inline) or "per_step", a list of one value per step, never both.
Each method block ("acs", "acs.solver", "scenario") is checked key by key
and then by the options class it builds (``acs.AcsConfig``,
``conic.SolverOptions``, ``scenario.ScenarioConfig``), whose own checks and
defaults apply; a refusal names the key at fault. The blocks are echoed as
given.

A JSON boolean is not accepted where an integer or a number is asked for,
nor is a string or null inside a vector or matrix. Every number must be
finite: NaN, Infinity and an integer beyond float range are refused at their
field path.

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
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from .acs import AcsConfig, Cost
from .conic import SolverOptions
from .errors import ConfigError, DomainError
from .moments import RandomMatrixModel, SystemSpec
from .reformulate import ConstraintRow, JointChanceConstraint, RowSet
from .scenario import ScenarioConfig
from .stochastics import FAMILIES, DistributionSpec, is_number

SCHEMA_VERSION = 1

# ---------------------------------------------------------------------------
# Declarations and the walker
# ---------------------------------------------------------------------------

_REQUIRED = object()  # an absent key is refused
_OPTIONAL = object()  # an absent key stays absent


def _same(value, path=None, got=None, index=None):
    return value


class _Kind(NamedTuple):
    """What a key's value must be: ``parse(value, path, got)`` checks and
    converts it, reading sizes from ``got``, the fields parsed so far (a kind
    inside a list also takes its index there); ``dump`` writes the parsed
    value back as JSON."""

    parse: Callable
    dump: Callable = _same


class Key(NamedTuple):
    """One declared key: its kind (or a nested table whose fields land beside
    this one's), its default and the field it fills (the key's own name by
    default). A default is parsed as if given; a callable default takes the
    index of the object in its list."""

    kind: object
    default: object = _REQUIRED
    field: str | None = None


def _walk(table, value, path, got, out, index=None):
    """Parse the object ``value`` at ``path`` against ``table`` into ``out``,
    refusing any key the table does not declare."""
    if type(value) is not dict:
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    prefix = f"{path}." if path else ""
    if not value.keys() <= table.keys():
        unknown = next(key for key in value if key not in table)
        raise ConfigError(prefix + unknown, f"unknown key; expected one of {', '.join(table)}")
    for key, (kind, default, field) in table.items():
        if key in value:
            given = value[key]
        elif default is _OPTIONAL:
            continue
        elif default is _REQUIRED:
            raise ConfigError(prefix + key, "missing required field")
        else:
            given = default(index) if callable(default) else default
        if type(kind) is dict:
            _walk(kind, given, prefix + key, got, out)
        else:
            out[field or key] = kind.parse(given, prefix + key, got)
    return out


def _dump(table, src):
    """The JSON object of ``table`` whose fields are read from ``src``."""
    return {
        key: _dump(spec.kind, src) if type(spec.kind) is dict else spec.kind.dump(src[spec.field or key])
        for key, spec in table.items()
    }


def _values(**fields):
    """An object's fields as a tuple, in the order its table declares them."""
    return tuple(fields.values())


class _Object:
    """An object of declared keys, built into ``cls``; a ``DomainError`` that
    ``cls`` raises is refused at the key it names. Only an object built by
    ``_values`` is written back."""

    def __init__(self, cls, **table: Key):
        self.cls, self.table = cls, table

    def parse(self, value, path, got=None, index=None):
        fields = _walk(self.table, value, path, got, {}, index)
        try:
            return self.cls(**fields)
        except DomainError as exc:
            raise ConfigError(f"{path}.{exc.field}" if exc.field else path, str(exc)) from None

    def dump(self, values):
        return _dump(self.table, dict(zip(self.table, values)))


def _copy(value):
    """A copy of a JSON value that shares no list or object with it."""
    if type(value) is dict:
        return {key: _copy(item) for key, item in value.items()}
    if type(value) is list:
        return [_copy(item) for item in value]
    return value


class _Given(NamedTuple):
    """A value checked by ``kind`` and kept as given."""

    kind: object

    def parse(self, value, path, got):
        self.kind.parse(value, path, got)
        return _copy(value)

    def dump(self, value):
        return _copy(value)


class _List(NamedTuple):
    """A list of ``item`` values, as many as the parsed field ``size`` holds,
    or one or more when ``size`` is None."""

    item: object
    size: str | None = None

    def parse(self, value, path, got, index=None):
        size = got[self.size] if self.size else None
        if type(value) is not list or (len(value) != size if size else not value):
            raise ConfigError(path, f"expected a list of {size or 'one or more'} entries")
        parse = self.item.parse
        return tuple(parse(item, f"{path}[{i}]", got, i) for i, item in enumerate(value))

    def dump(self, items):
        dump = self.item.dump
        return [dump(item) for item in items]


class _Steps(NamedTuple):
    """One value for every step (under ``key``, or inline when ``key`` is
    None) or "per_step", a list of one value per step, but not both; parsed
    to a tuple of ``horizon`` values and written back in the one-value form
    when all are equal."""

    item: object
    key: str | None = None

    def parse(self, value, path, got):
        if type(value) is dict and "per_step" in value:
            if len(value) > 1:
                raise ConfigError(path, f'expected "per_step" alone, got {", ".join(value)}')
            return _List(self.item, "horizon").parse(value["per_step"], f"{path}.per_step", got)
        if self.key is None:
            return (self.item.parse(value, path, got),) * got["horizon"]
        return (_walk({self.key: Key(self.item)}, value, path, got, {})[self.key],) * got["horizon"]

    def dump(self, steps):
        items = [self.item.dump(step) for step in steps]
        if any(item != items[0] for item in items[1:]):
            return {"per_step": items}
        return items[0] if self.key is None else {self.key: items[0]}


# ---------------------------------------------------------------------------
# Kinds of value
# ---------------------------------------------------------------------------


def _check(expected, test):
    """A kind that keeps a value passing ``test`` as it is."""

    def parse(value, path, got):
        if not test(value):
            raise ConfigError(path, f"expected {expected}, got {value!r}")
        return value

    return _Kind(parse)


def _number(value, path, got):
    if not is_number(value):
        shown = "an integer beyond float range" if type(value) is int else repr(value)
        raise ConfigError(path, f"expected a finite number, got {shown}")
    return float(value)


def _step(value, path, got):
    if value != "all" and (type(value) is not int or not 1 <= value <= got["horizon"]):
        raise ConfigError(path, f'k must be "all" or an integer in [1, {got["horizon"]}]')
    return value


def _param(value, path, got):
    """A distribution parameter: ``DistributionSpec`` judges it, but a number
    that is not finite is refused here, at the parameter's path."""
    if type(value) in (int, float) and not is_number(value):
        _number(value, path, got)
    return value


def _array(*dims):
    """Nested lists of finite numbers as a float array, one axis per entry of
    ``dims``: a parsed field holding the axis length (or an array whose row
    count it is), or None for any length. A boolean, string or null is not a
    number here."""

    def parse(value, path, got):
        shape = tuple(d if d is None else got[d] if type(got[d]) is int else len(got[d]) for d in dims)
        cells = np.array(value, dtype=object)
        if (
            cells.ndim != len(shape)
            or any(want not in (None, size) for size, want in zip(cells.shape, shape))
            or not all(map(is_number, cells.flat))
        ):
            want = ", ".join("*" if size is None else str(size) for size in shape)
            raise ConfigError(path, f"expected finite numbers in nested lists of shape ({want}), got shape {cells.shape}")
        return cells.astype(float)

    return _Kind(parse, np.ndarray.tolist)


def parse_entry(cell, path) -> DistributionSpec | float:
    if type(cell) is not dict:
        if is_number(cell):
            return float(cell)
        raise ConfigError(path, "matrix entries are finite numbers or distribution objects")
    family = cell.get("family")
    if type(family) is not str or family not in FAMILIES:
        raise ConfigError(f"{path}.family", f"expected one of {', '.join(FAMILIES)}, got {family!r}")
    return _CELLS[family].parse(cell, path)


def _distribution(family, power=DistributionSpec.power, **params):
    """A cell's spec; ``params`` arrive in the family's order, as its table declares them."""
    return DistributionSpec(family, tuple(params.values()), power)


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


def _optional(kind):
    return Key(kind, _OPTIONAL)


_ANY, _NUMBER = _Kind(_same), _Kind(_number)
_INTEGER = _check("an integer", lambda value: type(value) is int)
_COUNT = _check("a positive integer", lambda value: type(value) is int and value >= 1)

# Each family's cell: its parameters by name and an optional power, whose
# default is DistributionSpec's.
_CELLS = {
    family: _Object(_distribution, family=Key(_ANY), **{name: Key(_Kind(_param)) for name in names}, power=_optional(_ANY))
    for family, names in FAMILIES.items()
}
# A float cell is its own entry.
_CELL = _Kind(
    lambda cell, path, *_: cell if type(cell) is float and math.isfinite(cell) else parse_entry(cell, path),
    _entry_to_json,
)

# The method blocks, each built into the options its method reads.
_ACS = _Object(
    AcsConfig,
    lambda_step_policy=_optional(_ANY),
    max_outer_iters=_optional(_INTEGER),
    convergence_rel_tol=_optional(_NUMBER),
    solver=_optional(_Object(SolverOptions, tol=_optional(_NUMBER), max_iter=_optional(_INTEGER))),
    restoration=_optional(_check("a boolean", lambda value: type(value) is bool)),
)
_SCENARIO = _Object(
    ScenarioConfig,
    beta=_optional(_NUMBER),
    sample_count=_optional(_check("null or an integer", lambda value: value is None or type(value) is int)),
)
_MC = _Object(dict, samples=Key(_COUNT, 100000))

SCHEMA = {
    "schema": Key(_check(f"schema version {SCHEMA_VERSION}", lambda value: type(value) is int and value == SCHEMA_VERSION)),
    "seed": Key(_ANY, 0),  # ProblemConfig checks it
    "system": Key({
        "n": Key(_COUNT),
        "m": Key(_COUNT),
        "horizon": Key(_COUNT),
        "x0": Key(_array("n")),
        "B": Key(_array("n", "m")),
        "A": Key(_Steps(_List(_List(_CELL, "n"), "n"), "all"), field="a_grids"),
    }),
    "constraints": Key({
        "alpha": Key(_NUMBER),  # ProblemConfig checks its range
        "rows": Key(_List(_Object(
            _values,
            id=Key(_check("a string", lambda value: type(value) is str), lambda i: f"row{i}"),
            G=Key(_array("n")),
            h=Key(_NUMBER),
            k=Key(_Kind(_step), "all"),
        )), field="row_specs"),  # ProblemConfig checks that the ids differ
    }),
    "cost": Key(_Steps(_Object(_values, quadratic=Key(_array("m", "m")), linear=Key(_array("m")))), field="cost_terms"),
    "input_polytope": Key({"A_u": Key(_array(None, "m")), "b_u": Key(_array("A_u"))}),
    "assumptions": Key(_Given(_Object(dict, independence=_optional(_ANY), unimodal=_optional(_ANY))), {}),
    "methods": Key({
        "acs": Key(_Given(_ACS), {}, "acs_options"),
        "scenario": Key(_Given(_SCENARIO), {}, "scenario_options"),
        "mc": Key(_Given(_MC), {}, "mc_options"),
    }, {}),
}


# ---------------------------------------------------------------------------
# The parsed configuration
# ---------------------------------------------------------------------------


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
    cost_terms: tuple  # (R_k, r_k) per step
    A_u: np.ndarray
    b_u: np.ndarray
    assumptions: dict
    acs_options: dict  # each method block as given
    scenario_options: dict
    mc_options: dict

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed", f"seed must be a non-negative integer, got {self.seed!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError("constraints.alpha", f"alpha must lie in (0, 1), got {self.alpha}")
        if len({row[0] for row in self.row_specs}) != len(self.row_specs):
            raise ConfigError("constraints.rows", "row ids must be unique")

    # -- builders ---------------------------------------------------------

    def system_spec(self) -> SystemSpec:
        models = tuple(RandomMatrixModel.from_grid(grid) for grid in self.a_grids)
        return SystemSpec(
            horizon=self.horizon, a_models=models, B=self.B, x0=self.x0, A_u=self.A_u, b_u=self.b_u
        )

    def constraint_rows(self) -> list[ConstraintRow]:
        rows = []
        for rid, G, h, k in self.row_specs:
            for step in range(1, self.horizon + 1) if k == "all" else (k,):
                rows.append(ConstraintRow(G=G, h=h, k=step, id=f"{rid}@k{step}"))
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
        return Cost(*zip(*self.cost_terms))

    def acs_config(self) -> AcsConfig:
        return _ACS.parse(self.acs_options, "methods.acs")

    def scenario_config(self, seed: int | None = None) -> ScenarioConfig:
        options = _SCENARIO.parse(self.scenario_options, "methods.scenario")
        return replace(options, rng_seed=self.seed if seed is None else seed)

    @property
    def mc_samples(self) -> int:
        return _MC.parse(self.mc_options, "methods.mc")["samples"]

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
        return _dump(SCHEMA, {**vars(self), "schema": SCHEMA_VERSION})

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def parse_config(data: dict, source: str = "<config>") -> ProblemConfig:
    if not isinstance(data, dict):
        raise ConfigError("", f"{source}: configuration must be a JSON object")
    fields: dict = {}
    _walk(SCHEMA, data, "", fields, fields)
    del fields["schema"]  # checked; every ProblemConfig is of this version
    return ProblemConfig(**fields)


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
