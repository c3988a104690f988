"""Batch front door: solve, sweep, moments, validate.

Exit codes: 0 on a feasible solve, 2 when the requested problem is
infeasible, 1 on any error (bad config, failed certification, a file that
cannot be read or written, ...); ``verdict`` decides them and the sweep's
``feasible`` cell for a report. ``VPCC_SEED`` overrides the config seed.
Both methods run through ``_solve``, which echoes the solved config as the
report's ``inputs``. Outputs are a ``report.json`` per solve and, for
sweeps, a ``sweep.csv`` (UTF-8, LF, fixed header
``one_minus_alpha,method,feasible,objective,wall_time_ms,mc_upper_ci``,
numbers with 17 significant digits) plus per-point reports and a log; each
CSV row and log line is read from its cell's report, or from the error that
stopped the cell before it had one.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import acs, scenario
from .config import ProblemConfig, load_config
from .errors import ConfigError, VpccError
from .report import STATUS_INFEASIBLE, STATUS_OPTIMAL, SolveReport
from .stochastics import mc_certify

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

CSV_HEADER = "one_minus_alpha,method,feasible,objective,wall_time_ms,mc_upper_ci"


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def _load(path: str) -> ProblemConfig:
    cfg = load_config(path)
    env_seed = os.environ.get("VPCC_SEED")
    if env_seed is not None:
        if not (env_seed.isascii() and env_seed.isdigit()):
            raise ConfigError("VPCC_SEED", f"expected a non-negative integer, got {env_seed!r}")
        cfg = cfg.with_seed(int(env_seed))
    return cfg


def _derived_seed(base: int, *key: int) -> int:
    return int(np.random.SeedSequence([base, *key]).generate_state(1)[0])


def _solve(
    cfg: ProblemConfig, method: str, scenario_seed: int | None = None, mc_seed: int | None = None
) -> SolveReport:
    """Solve one config by ``method``; the report echoes the config as its ``inputs``.

    An optimal proposed solve is certified by Monte-Carlo and carries the
    certificate and its seed. The seeds default to ones derived from the
    config seed.
    """
    cfg.require_attested()
    spec = cfg.system_spec()
    if method == "proposed":
        jcc = cfg.jcc()
        report = acs.run(spec, jcc, cfg.cost(), cfg.acs_config())
        if report.status == STATUS_OPTIMAL:
            seed = mc_seed if mc_seed is not None else _derived_seed(cfg.seed, 1)
            cert = mc_certify(spec, jcc, np.asarray(report.U).ravel(), cfg.mc_samples, seed)
            report.mc = cert.to_dict()
            report.seed = seed
    else:
        report = scenario.solve_scenario(spec, cfg.row_set(), cfg.cost(), cfg.scenario_config(scenario_seed))
    report.inputs = cfg.to_dict()
    return report


def _write_report(report: SolveReport, out_dir: str, name: str = "report.json") -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(report.to_json(indent=None))
        handle.write("\n")
    return path


def verdict(report: SolveReport) -> tuple[int, str, str | None]:
    """Exit code, sweep ``feasible`` cell and error text (None unless the
    code is EXIT_ERROR) of one report.

    An "optimal" proposed report must also pass its own feasibility check.
    """
    if report.status == STATUS_INFEASIBLE:
        return EXIT_INFEASIBLE, "false", None
    if report.status != STATUS_OPTIMAL:
        return EXIT_ERROR, "error", f"status {report.status}: {'; '.join(report.notes)}"
    if report.method == "proposed" and not (report.feasibility or {}).get("feasible"):
        return EXIT_ERROR, "error", "solution failed its own feasibility check"
    return EXIT_OK, "true", None


def cmd_solve(args) -> int:
    report = _solve(_load(args.config), args.method)
    path = _write_report(report, args.out)
    print(f"{report.method}: {report.status}  objective={_fmt(report.objective)}  report={path}")
    code, _, error = verdict(report)
    if error:
        print(f"error: {error}", file=sys.stderr)
    return code


def parse_grid(text: str) -> list[float]:
    """Comma-separated points and start:stop:step segments, all inclusive;
    every number must be finite."""
    points: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        if len(parts) not in (1, 3):
            raise ConfigError("--grid", f"bad segment {token!r}; expected start:stop:step")
        try:
            numbers = [float(part) for part in parts]
        except ValueError:
            numbers = [math.nan]
        if not all(map(math.isfinite, numbers)):
            raise ConfigError("--grid", f"bad token {token!r}; expected finite numbers")
        if len(numbers) == 1:
            points.append(round(numbers[0], 10))
            continue
        start, stop, step = numbers
        if step <= 0 or stop < start:
            raise ConfigError("--grid", f"bad segment {token!r}")
        value = start
        while value <= stop + 1e-12:
            points.append(round(value, 10))
            value += step
    seen = set()
    out = []
    for p in points:
        if p not in seen:
            seen.add(p)
            out.append(p)
    if not out:
        raise ConfigError("--grid", "grid is empty")
    return out


def _sweep_task(payload: dict) -> tuple[SolveReport | None, str | None]:
    """One (grid point, method) cell; runs in a worker process. Returns the
    cell's report, or None and the text of the error that stopped it."""
    try:
        cfg = payload["config"].with_alpha(round(1.0 - payload["point"], 12))
        return _solve(cfg, payload["method"], payload["scenario_seed"], payload["mc_seed"]), None
    except VpccError as exc:
        return None, str(exc)


def cmd_sweep(args) -> int:
    cfg = _load(args.config)
    points = parse_grid(args.grid)
    methods = ["proposed", "scenario"] if args.methods == "both" else [args.methods]
    tasks = []
    for idx, point in enumerate(points):
        for method in methods:
            tasks.append(
                {
                    "config": cfg,
                    "point": point,
                    "method": method,
                    "scenario_seed": _derived_seed(cfg.seed, idx),
                    "mc_seed": _derived_seed(cfg.seed, idx, 1),
                }
            )
    os.makedirs(args.out, exist_ok=True)

    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_sweep_task, tasks))
    else:
        results = [_sweep_task(task) for task in tasks]

    csv_path = os.path.join(args.out, "sweep.csv")
    log_path = os.path.join(args.out, "sweep.log")
    failures = 0
    with open(csv_path, "w", encoding="utf-8", newline="\n") as csv_file, open(
        log_path, "w", encoding="utf-8", newline="\n"
    ) as log_file:
        csv_file.write(CSV_HEADER + "\n")
        for task, (report, error) in zip(tasks, results):
            point, method = task["point"], task["method"]
            feasible, objective, wall_time_ms, mc = "error", None, None, {}
            if report is not None:
                _, feasible, error = verdict(report)
                wall_time_ms = report.wall_time_ms
                if feasible == "true":
                    objective, mc = report.objective, report.mc or {}
                _write_report(report, args.out, f"report_{point:g}_{method}.json")
            mc_upper_ci = _fmt(mc.get("upper_ci_99"))
            csv_file.write(
                ",".join([_fmt(point), method, feasible, _fmt(objective), _fmt(wall_time_ms), mc_upper_ci]) + "\n"
            )
            stamp = f"1-alpha={point} method={method} feasible={feasible}"
            if error:
                failures += 1
                log_file.write(f"{stamp} ERROR {error}\n")
            else:
                line = f"{stamp} objective={_fmt(objective)}"
                if method == "proposed":
                    line += f" mc_upper_ci={mc_upper_ci} mc_samples_used={mc.get('samples_used', '')}"
                log_file.write(line + "\n")
    print(f"sweep: {len(results)} rows -> {csv_path} ({failures} recorded failure(s))")
    return EXIT_OK


def cmd_moments(args) -> int:
    cfg = _load(args.config)
    spec = cfg.system_spec()
    if not (1 <= args.time <= cfg.horizon):
        print(f"error: --time must lie in [1, {cfg.horizon}]", file=sys.stderr)
        return EXIT_ERROR
    matches = [r for r in cfg.constraint_rows() if r.k == args.time]
    if not matches:
        print(f"error: time step {args.time} has no constraint row", file=sys.stderr)
        return EXIT_ERROR
    if not (1 <= args.row <= len(matches)):
        print(
            f"error: --row must lie in [1, {len(matches)}] for time step {args.time}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    row = matches[args.row - 1]
    from .moments import constraint_moments

    m = constraint_moments(spec, row.G, row.k)
    if args.u:
        try:
            U = np.array([float(tok) for tok in args.u.split(",")], dtype=float)
        except ValueError:
            print(f"error: --u needs comma-separated numbers, got {args.u!r}", file=sys.stderr)
            return EXIT_ERROR
        if U.shape[0] != spec.input_dim:
            print(f"error: --u needs {spec.input_dim} entries", file=sys.stderr)
            return EXIT_ERROR
    else:
        U = np.zeros(spec.input_dim)
    out = {
        "row": row.id,
        "time": row.k,
        "mean_affine": {"a": m.a.tolist(), "b": m.b},
        "var_quadratic": {"Q": m.Q.tolist(), "q": m.q.tolist(), "r": m.r},
        "norm_form": {"L": m.L.tolist(), "v": m.v.tolist(), "s": m.s},
        "at_U": {"U": U.tolist(), "mean": m.mean(U), "variance": m.variance(U), "std": m.std(U)},
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _load(args.config)
    cfg.require_attested()
    rows = cfg.constraint_rows()
    print(
        f"ok: schema 1, n={cfg.n} m={cfg.m} horizon={cfg.horizon}, "
        f"{len(rows)} constraint row(s), alpha={cfg.alpha:g}, seed={cfg.seed}"
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="vpcc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one configuration")
    p_solve.add_argument("config")
    p_solve.add_argument("--method", choices=["proposed", "scenario"], default="proposed")
    p_solve.add_argument("--out", default=".")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="sweep safety levels 1-alpha over a grid")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--grid", required=True, help='e.g. "0.84:0.98:0.02,0.99"')
    p_sweep.add_argument("--methods", choices=["proposed", "scenario", "both"], default="both")
    p_sweep.add_argument("--out", default=".")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_moments = sub.add_parser("moments", help="print closed-form constraint moments")
    p_moments.add_argument("config")
    p_moments.add_argument("--row", type=int, required=True, help="1-based row index at the time step")
    p_moments.add_argument("--time", type=int, required=True)
    p_moments.add_argument("--u", default=None, help="comma-separated stacked input to evaluate at")
    p_moments.set_defaults(func=cmd_moments)

    p_validate = sub.add_parser("validate", help="schema-check a configuration")
    p_validate.add_argument("config")
    p_validate.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error at {exc.field or '<root>'}: {exc.reason}", file=sys.stderr)
        return EXIT_ERROR
    except (VpccError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
