"""Metric definitions: the tail-percentile rule, and per-layer totals from spans."""

from __future__ import annotations

import statistics

import numpy as np

from spans import Span, self_times

TAIL_BEYOND = 10  # a tail percentile needs at least this many cells beyond it

def tail_percentile(cells: int) -> int:
    """Highest whole percentile p whose nearest-rank value has >= TAIL_BEYOND cells beyond it."""
    if cells <= TAIL_BEYOND:
        raise ValueError(f"a tail percentile needs more than {TAIL_BEYOND} cells, got {cells}")
    return 100 * (cells - TAIL_BEYOND) // cells


def nearest_rank(values, p: int) -> float:
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Traced entry points
# ---------------------------------------------------------------------------


def _conic_attrs(args, kwargs, outcome):
    program = args[0]
    cones = sum(1 for row in program.soc if row.lam != 0.0 and row.L.size > 0 and bool(np.any(row.L)))
    return {
        "steps": outcome.iterations,
        "optimal": outcome.status == "optimal",
        "cone_rows": cones,
        "linear_rows": program.A_u.shape[0] + len(program.soc) - cones,
    }


def _acs_attrs(args, kwargs, report):
    return {
        "outer_iters": sum(1 for e in report.trace if e["phase"] == "acs"),
        "restored": any(e["phase"] == "restoration" for e in report.trace)
        or any(note.startswith("restoration:") for note in report.notes),
        "status": report.status,
    }


def _scenario_attrs(args, kwargs, report):
    spec, jcc = args[0], args[1]
    return {"rows_before": report.sample_count * len(jcc.rows) + spec.stacked_polytope()[0].shape[0]}


TARGETS = (
    ("vpcc.cli", "main", "cli.main", None),
    ("vpcc.cli", "load_config", "config.load", None),
    ("vpcc.cli", "mc_certify", "stochastics.mc_certify", lambda a, k, r: {"samples": a[3]}),
    ("vpcc.acs", "run", "acs.run", _acs_attrs),
    ("vpcc.acs", "build_reformulation", "reformulate.build", None),
    ("vpcc.acs", "lambda_step", "acs.lambda_step", None),
    ("vpcc.acs", "check_feasibility", "reformulate.check", None),
    ("vpcc.reformulate", "constraint_moments", "moments.row", None),
    ("vpcc.conic", "solve", "conic.solve", _conic_attrs),
    ("vpcc.scenario", "solve_scenario", "scenario.solve", _scenario_attrs),
    ("vpcc.scenario", "sample_state_matrices", "scenario.sample", lambda a, k, r: {"samples": a[2]}),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer totals over the given spans (one traced pass)."""
    selfs = self_times(spans)
    by_name: dict[str, list[tuple[Span, float]]] = {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span.name, []).append((span, own))

    def group(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(span.duration for span, _ in group(name))

    def own(*names):
        return sum(s for name in names for _, s in group(name))

    def attr_sum(name, key):
        return sum(span.attrs.get(key, 0) for span, _ in group(name))

    conic = group("conic.solve")
    acs_runs = group("acs.run")
    statuses = [span.attrs.get("status") for span, _ in acs_runs]
    rows_kept = sum(
        span.attrs.get("linear_rows", 0)
        for span, _ in conic
        if span.parent is not None and spans[span.parent].name == "scenario.solve"
    )
    steps = attr_sum("conic.solve", "steps")
    mc_samples = attr_sum("stochastics.mc_certify", "samples")
    row_ms = [span.duration * 1e3 for span, _ in group("moments.row")]
    return {
        "config.loads": len(group("config.load")),
        "config.load_s": busy("config.load"),
        "moments.rows": len(row_ms),
        "moments.busy_s": busy("moments.row"),
        "moments.row_ms_p50": statistics.median(row_ms) if row_ms else 0.0,
        "reformulate.self_s": own("reformulate.build", "reformulate.check"),
        "acs.runs": len(acs_runs),
        "acs.outer_iters": attr_sum("acs.run", "outer_iters"),
        "acs.lambda_steps": len(group("acs.lambda_step")),
        "acs.restorations": sum(1 for span, _ in acs_runs if span.attrs.get("restored")),
        "acs.iteration_limit": statuses.count("iteration_limit"),
        "acs.errors": statuses.count("error"),
        "acs.self_s": own("acs.run", "acs.lambda_step"),
        "conic.solves": len(conic),
        "conic.busy_s": busy("conic.solve"),
        "conic.newton_steps": steps,
        "conic.us_per_step": _ratio(busy("conic.solve") * 1e6, steps),
        "conic.cone_rows": attr_sum("conic.solve", "cone_rows"),
        "conic.linear_rows": attr_sum("conic.solve", "linear_rows"),
        "conic.optimal_ratio": _ratio(sum(1 for span, _ in conic if span.attrs.get("optimal")), len(conic)),
        "scenario.samples": attr_sum("scenario.sample", "samples"),
        "scenario.sampling_s": busy("scenario.sample"),
        "scenario.self_s": own("scenario.solve"),
        "scenario.rows_kept_ratio": _ratio(rows_kept, attr_sum("scenario.solve", "rows_before")),
        "stochastics.mc_samples": mc_samples,
        "stochastics.mc_s": busy("stochastics.mc_certify"),
        "stochastics.mc_samples_per_s": _ratio(mc_samples, busy("stochastics.mc_certify")),
        "cli.self_s": own("cli.main"),
    }
