"""Seeded workload generation: schema-1 config files and the cells that solve them.

A cell is one ``vpcc solve CONFIG --method M`` call. Every config is a pure
function of the workload seed; nothing here imports ``vpcc``, so inputs are
written before the program under test is loaded.

Workloads (closed loop, one caller, cells run one after another):

``two_bus_sweep``
    The bundled two-bus case on the paper grid 0.84:0.98:0.02,0.99, both
    methods, for ``TWO_BUS_SEEDS`` config seeds drawn from the workload seed.
``synthetic_proposed``
    Random-matrix systems whose constraint rows bind, proposed method only.
``synthetic_scenario``
    The same generator, scenario method at 1-alpha in {0.95, 0.99}.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("two_bus_sweep", "synthetic_proposed", "synthetic_scenario")

TWO_BUS_GRID = (0.84, 0.86, 0.88, 0.9, 0.92, 0.94, 0.96, 0.98, 0.99)
TWO_BUS_SEEDS = 6

# Synthetic family: every (n, N) pair appears equally often in a pass, so
# runs on different seeds carry the same mix of sizes.
SYNTH_N = (4, 5, 6)
SYNTH_HORIZON = (5, 6)
SYNTH_M = 2
SYNTH_PROPOSED_PER_SIZE = 10
SYNTH_SCENARIO_PER_SIZE = 5
SYNTH_SCENARIO_WIDE = 2  # systems solved at 0.99 as well as at 0.95
SYNTH_ALPHA = 0.05
SYNTH_MC_SAMPLES = 20000
SYNTH_RANDOM_SHARE = 0.3  # exactly this share of each A(k), rounded
U_REF = 0.6  # every input entry of the reference input; inputs live in [0, 1]
H_SLACK = 1.02  # the reference input meets each row with 2% of lam*Std to spare

ACS_OPTIONS = {
    "lambda_step_policy": "uniform-relax",
    "max_outer_iters": 50,
    "convergence_rel_tol": 1e-06,
    "restoration": True,
    "solver": {"tol": 1e-06, "max_iter": 500},
}

EXIT_OK = 0
EXIT_INFEASIBLE = 2


@dataclass(frozen=True)
class Cell:
    name: str
    config: str
    method: str
    expected_exit: int
    # A strict cell has one right outcome, so any failure is a wrong answer;
    # other cells may hit the known defects, which count only as failures.
    strict: bool = False


def derive(seed: int, *key: int) -> int:
    """A 32-bit seed drawn from (seed, key); distinct keys give independent streams."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _write(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(data, handle, indent=1)
    return path


# ---------------------------------------------------------------------------
# two_bus_sweep
# ---------------------------------------------------------------------------


def two_bus_cells(root: str, seed: int, workdir: str) -> list[Cell]:
    with open(os.path.join(root, "src", "vpcc", "data", "two_bus.json"), encoding="utf-8") as handle:
        base = json.load(handle)
    cells = []
    for s in range(TWO_BUS_SEEDS):
        cfg_seed = derive(seed, 0, s)
        for point in TWO_BUS_GRID:
            data = json.loads(json.dumps(base))
            data["seed"] = cfg_seed
            data["constraints"]["alpha"] = round(1.0 - point, 12)
            name = f"s{s}-p{point:g}"
            path = _write(os.path.join(workdir, f"two_bus_{name}.json"), data)
            # The paper's pattern: the proposed method certifies down to
            # 1-alpha = 0.98 and proves infeasibility at 0.99; the scenario
            # baseline is feasible everywhere.
            expected = EXIT_INFEASIBLE if point == 0.99 else EXIT_OK
            cells.append(Cell(f"{name}-proposed", path, "proposed", expected, strict=True))
            cells.append(Cell(f"{name}-scenario", path, "scenario", EXIT_OK, strict=True))
    return cells


# ---------------------------------------------------------------------------
# Synthetic random-matrix systems
# ---------------------------------------------------------------------------


def state_moments(a_mean, a_var, B, x0, U):
    """Exact mean and covariance of x(k), k = 0..N, under a fixed input.

    Entries are independent within and across steps, so
    E[A M A'] = Abar M Abar' + diag(sum_p Var(a_ip) M_pp).
    """
    mu = x0.copy()
    second = np.outer(x0, x0)
    out = [(mu.copy(), second - np.outer(mu, mu))]
    for Abar, V, u in zip(a_mean, a_var, U):
        bu = B @ u
        am = Abar @ mu
        second = Abar @ second @ Abar.T + np.diag(V @ np.diag(second)) + np.outer(am, bu) + np.outer(bu, am) + np.outer(bu, bu)
        mu = am + bu
        out.append((mu.copy(), second - np.outer(mu, mu)))
    return out


def synthetic_config(rng: np.random.Generator, n: int, horizon: int, cfg_seed: int) -> dict:
    """One system whose rows bind at the optimum.

    Means of A, B, x0 and the row weights g are nonnegative, so the rows
    -g'x(k) <= h ask the input to lift a weighted state. Each h is set so
    that the reference input U_REF is feasible under the uniform-risk
    multipliers; positive prices pull the input towards 0, which violates
    the rows in the mean.
    """
    m = SYNTH_M
    a_mean = []
    a_var = []
    grids = []
    for _ in range(horizon):
        Abar = rng.uniform(0.0, 1.0, (n, n))
        Abar *= rng.uniform(0.8, 1.0) / max(abs(np.linalg.eigvals(Abar)))
        spread = rng.uniform(0.1, 0.3)
        mask = np.zeros(n * n, dtype=bool)
        mask[rng.choice(n * n, round(SYNTH_RANDOM_SHARE * n * n), replace=False)] = True
        mask = mask.reshape(n, n)
        grid = []
        for i in range(n):
            row = []
            for j in range(n):
                a = float(Abar[i, j])
                if mask[i, j]:
                    row.append({"family": "finite", "values": [a * (1 - spread), a * (1 + spread)], "probs": [0.5, 0.5]})
                else:
                    row.append(a)
            grid.append(row)
        a_mean.append(Abar)
        a_var.append(np.where(mask, (Abar * spread) ** 2, 0.0))
        grids.append(grid)
    B = rng.uniform(0.0, 1.0, (n, m))
    x0 = rng.uniform(0.0, 1.0, n)

    alpha = SYNTH_ALPHA
    lam = math.sqrt(4.0 / (9.0 * (alpha / horizon)) - 1.0)
    U_ref = np.full((horizon, m), U_REF)
    moments = state_moments(a_mean, a_var, B, x0, U_ref)
    rows = []
    for k in range(1, horizon + 1):
        mu, cov = moments[k]
        G = -rng.uniform(0.0, 1.0, n)
        h = float(G @ mu + H_SLACK * lam * math.sqrt(max(G @ cov @ G, 0.0)))
        rows.append({"id": f"cover@{k}", "G": G.tolist(), "h": h, "k": k})

    prices = rng.uniform(0.5, 1.5, (horizon, m))
    # Scale prices so the reference input costs exactly 1.
    prices /= float((prices * U_ref).sum())
    cost = [{"quadratic": np.zeros((m, m)).tolist(), "linear": r.tolist()} for r in prices]

    return {
        "schema": 1,
        "seed": cfg_seed,
        "system": {"n": n, "m": m, "horizon": horizon, "x0": x0.tolist(), "B": B.tolist(), "A": {"per_step": grids}},
        "constraints": {"alpha": alpha, "rows": rows},
        "cost": {"per_step": cost},
        "input_polytope": {
            "A_u": np.vstack([np.eye(m), -np.eye(m)]).tolist(),
            "b_u": [1.0] * m + [0.0] * m,
        },
        "assumptions": {"independence": "attested", "unimodal": "attested"},
        "methods": {
            "acs": json.loads(json.dumps(ACS_OPTIONS)),
            "scenario": {"beta": 0.001, "sample_count": None},
            "mc": {"samples": SYNTH_MC_SAMPLES},
        },
    }


def _synthetic_systems(seed: int, stream: int, per_size: int, tag: str):
    """(name, config) pairs, cycling through every (n, N) pair ``per_size`` times."""
    rng = np.random.default_rng(derive(seed, stream))
    sizes = [size for _ in range(per_size) for size in itertools.product(SYNTH_N, SYNTH_HORIZON)]
    for idx, (n, horizon) in enumerate(sizes):
        yield f"{tag}{idx:02d}-n{n}N{horizon}", synthetic_config(rng, n, horizon, derive(seed, stream, idx))


def synthetic_proposed_cells(seed: int, workdir: str) -> list[Cell]:
    cells = []
    for name, data in _synthetic_systems(seed, 1, SYNTH_PROPOSED_PER_SIZE, "p"):
        path = _write(os.path.join(workdir, f"{name}.json"), data)
        cells.append(Cell(name, path, "proposed", EXIT_OK))
    return cells


def synthetic_scenario_cells(seed: int, workdir: str) -> list[Cell]:
    """Every system at 1-alpha = 0.95; the first ``SYNTH_SCENARIO_WIDE`` also at 0.99.

    A 0.99 cell (1782 samples) costs about five 0.95 cells (357 samples).
    With two 0.99 cells a pass takes under 10 s, so four to six passes fit
    in a 55 s run and a cell's latency is the median of that many. The
    0.99 cells stay fewer than the ten cells beyond the tail percentile, so
    the median and the tail are both read among the 0.95 cells, where the
    cell-to-cell steps are small.
    """
    cells = []
    for idx, (name, data) in enumerate(_synthetic_systems(seed, 2, SYNTH_SCENARIO_PER_SIZE, "s")):
        for level in (0.95, 0.99) if idx < SYNTH_SCENARIO_WIDE else (0.95,):
            data["constraints"]["alpha"] = round(1.0 - level, 12)
            path = _write(os.path.join(workdir, f"{name}-{level:g}.json"), data)
            cells.append(Cell(f"{name}-{level:g}", path, "scenario", EXIT_OK))
    return cells


def build_cells(workload: str, seed: int, root: str, workdir: str) -> list[Cell]:
    """Write the workload's configs under ``workdir`` and list its cells in run order."""
    if workload == "two_bus_sweep":
        return two_bus_cells(root, seed, workdir)
    if workload == "synthetic_proposed":
        return synthetic_proposed_cells(seed, workdir)
    if workload == "synthetic_scenario":
        return synthetic_scenario_cells(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
