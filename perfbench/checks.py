"""Output checks, all run outside the timed region.

A cell fails when its exit code is not the expected one, or when a solve
that exited 0 returns an input its own checks reject: a proposed report
whose feasibility check or Monte-Carlo certificate failed, or a scenario
input that violates one of its sampled rows in an independent rollout (run
for the scenario cells the caller selects).
The second kind is also a wrong answer, since the program presented it as
a solution.

``trace_problems`` checks a traced pass against the untraced calls of the
same pass.
"""

from __future__ import annotations

import json

import numpy as np

from spans import self_times

# Rollout margins are scaled by max(1, |h|); the barrier solver returns
# strictly feasible points, so only round-off may show above zero.
ROLLOUT_TOL = 1e-9

# The root span of a traced call starts and ends inside the timed call, so
# only the root wrapper's own entry and exit (and a collector pause there)
# separate the two.
SPAN_SLACK_S = 1e-3
# Each span costs the wrappers microseconds, well under 1% of any cell. A
# pass whose traced total differs from its untraced total by more than this
# share of it did not measure the same work. Untraced and traced calls of a
# cell run back to back, so a slow spell of the host hits both alike.
TRACE_OVERHEAD_TOL = 0.1


def canonical(report: dict | None) -> str | None:
    """The report without its timing fields, for equality across runs."""
    if report is None:
        return None
    data = json.loads(json.dumps(report))
    data.pop("wall_time_ms", None)
    for entry in data.get("trace") or ():
        entry.pop("wall_time_ms", None)
    return json.dumps(data, sort_keys=True)


def scenario_worst_margin(config_path: str, report: dict) -> float:
    """Largest scaled margin G x(k) - h over every sampled trajectory at the reported input."""
    # Imported on use: run.py loads this module before it puts src/ on the path.
    from vpcc.config import load_config
    from vpcc.scenario import sample_state_matrices

    cfg = load_config(config_path)
    spec = cfg.system_spec()
    matrices = sample_state_matrices(spec, report["seed"], report["sample_count"])
    U = np.asarray(report["U"], dtype=float)
    rows = cfg.constraint_rows()
    x = np.broadcast_to(spec.x0, (matrices.shape[0], spec.n)).copy()
    worst = -np.inf
    for t in range(max(row.k for row in rows)):
        x = np.einsum("sij,sj->si", matrices[:, t], x) + spec.B @ U[t]
        for row in rows:
            if row.k == t + 1:
                worst = max(worst, float(((x @ row.G - row.h) / max(1.0, abs(row.h))).max()))
    return worst


def verdict(cell, code, report, rollout: bool) -> tuple[str | None, bool]:
    """(reason the cell failed or None, whether the failure is a wrong answer).

    ``rollout`` selects whether a scenario input is checked against its samples.
    """
    if code is None:
        return "vpcc solve raised", False
    if code != cell.expected_exit:
        status = f"{report['status']}: {'; '.join(report['notes'])}" if report else "no report"
        return f"exit code {code} ({status}), expected {cell.expected_exit}", False
    if code != 0:
        return None, False
    if report is None:
        return "no report written", True
    if cell.method == "proposed":
        if not (report.get("feasibility") or {}).get("feasible"):
            return "report fails its feasibility check", True
        if not (report.get("mc") or {}).get("passed"):
            return "report fails Monte-Carlo certification", True
        return None, False
    if not rollout:
        return None, False
    worst = scenario_worst_margin(cell.config, report)
    if worst > ROLLOUT_TOL:
        return f"input violates a sampled row by {worst:.3e} (scaled)", True
    return None, False


def trace_problems(names, spans, untraced, traced) -> list[str]:
    """Inconsistencies of one traced pass; empty when the trace is sound.

    ``untraced[c]`` and ``traced[c]`` are the latencies of cell ``names[c]``
    in this pass, one call right after the other, and every span carries its
    cell's index. Per cell, the spans must form one ``cli.main`` tree whose
    self times sum to the untraced latency within the cell's own tracing
    overhead ``|traced - untraced|`` plus ``SPAN_SLACK_S``. Per pass, that
    overhead summed over the cells must stay within ``TRACE_OVERHEAD_TOL`` of
    the untraced total.
    """
    own = [0.0] * len(names)
    roots: list[list[str]] = [[] for _ in names]
    for span, self_s in zip(spans, self_times(spans)):
        own[span.cell] += self_s
        if span.parent is None:
            roots[span.cell].append(span.name)
    problems = []
    for name, cell_roots, total, u, t in zip(names, roots, own, untraced, traced):
        if cell_roots != ["cli.main"]:
            problems.append(f"{name}: expected one cli.main root span, got {cell_roots}")
        elif abs(total - u) > abs(t - u) + SPAN_SLACK_S:
            problems.append(
                f"{name}: span self times sum to {total * 1e3:.3f} ms, but the untraced call took"
                f" {u * 1e3:.3f} ms and the traced call {t * 1e3:.3f} ms"
            )
    overhead = sum(traced) - sum(untraced)
    if abs(overhead) > TRACE_OVERHEAD_TOL * sum(untraced):
        problems.append(f"tracing overhead {overhead:+.3f} s of an untraced pass of {sum(untraced):.3f} s")
    return problems
