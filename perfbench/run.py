"""Seeded benchmark of the ``vpcc solve`` path.

Each cell is an in-process call to ``vpcc.cli.main(["solve", CONFIG,
"--method", M, "--out", DIR])`` timed from outside. Run from the root of a
checkout:

    python3 perfbench/run.py --workload two_bus_sweep --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics, with timings scaled to a
reference host speed (``hostspeed.py``); ``--trace 1`` runs every cell
untraced and then traced, and prints the per-layer metrics. ``all`` runs
both for every workload, each in its own process, and prints every metric
by name with its unit. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import os

# Pinned before numpy loads, so BLAS worker threads do not compete with the
# single caller for the cores and widen the run-to-run spread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("VPCC_SEED", None)  # the workload seed alone decides the inputs

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# Import probes: one before every untimed pass, and at least this many.
SETUP_MIN_PROBES = 5
MIN_PASSES = 3
DEFAULT_SECONDS = 55
# The rollout check draws every sample again with the program's per-entry
# sampler, which costs as much as the sampling inside the solve; checking
# every scenario cell would double a synthetic_scenario run.
ROLLOUT_CELLS = 8
CHILD_TIMEOUT_S = 180

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "start = time.perf_counter()\n"
    "import vpcc, vpcc.cli\n"
    "print(time.perf_counter() - start)\n"
)


def import_seconds() -> float:
    """Time to import vpcc and vpcc.cli in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE.format(src=SRC)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def load_vpcc_cli():
    sys.path.insert(0, SRC)
    import vpcc.cli

    if not os.path.abspath(vpcc.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported vpcc from {vpcc.cli.__file__}, not from {SRC}")
    return vpcc.cli


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


@dataclass
class CellRun:
    code: int | None  # None when vpcc solve raised
    seconds: float
    report: dict | None
    canonical: str | None


def solve_cell(cli, cell, out_dir) -> CellRun:
    """One timed call of ``vpcc solve``; its console output is captured, not printed."""
    argv = ["solve", cell.config, "--method", cell.method, "--out", out_dir]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash fails the cell; the benchmark goes on
            code = None
        seconds = time.perf_counter() - start
    report = None
    path = os.path.join(out_dir, "report.json")
    if code is not None and os.path.isfile(path):
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    return CellRun(code, seconds, report, checks.canonical(report))


class Bench:
    def __init__(self, cli, cells, work):
        self.cli = cli
        self.cells = cells
        self.work = work
        self.first: dict[str, CellRun] = {}
        self.times: dict[str, list[float]] = {cell.name: [] for cell in cells}
        self.problems: list[str] = []
        self.wrong: list[str] = []

    def solve(self, cell, tag) -> CellRun:
        run = solve_cell(self.cli, cell, os.path.join(self.work, "out", tag, cell.name))
        ref = self.first.setdefault(cell.name, run)
        if run.canonical != ref.canonical or run.code != ref.code:
            self.wrong.append(f"{cell.name}: report differs between runs of the same input ({tag})")
        return run

    def warm_up(self):
        """One untimed cell per method, so lazy imports and first-call costs are paid."""
        seen = set()
        for cell in self.cells:
            if cell.method not in seen:
                seen.add(cell.method)
                self.solve(cell, "warmup")

    def untraced(self, seconds: float) -> tuple[list[float], list[float], list[float]]:
        """Passes over every cell while the next one fits.

        Returns the wall time and the reference scale of every pass, and the
        reference-scaled import probes. ``times`` gets reference-scaled
        latencies: the reference loop runs after every cell, outside the
        timed call, and a pass's latencies are scaled by the median of its
        loop runs. An import probe runs before every pass and takes that
        pass's scale, so ``setup_s`` samples the host over the whole run
        rather than in one spell.
        """
        walls, scales, probes = [], [], []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            probe = import_seconds()
            raw, loops = [], []
            for cell in self.cells:
                raw.append(self.solve(cell, f"pass{len(walls)}").seconds)
                loops.append(hostspeed.reference_loop())
            scales.append(hostspeed.scale(loops))
            probes.append(probe * scales[-1])
            for cell, latency in zip(self.cells, raw):
                self.times[cell.name].append(latency * scales[-1])
            walls.append(sum(raw))
            now = time.perf_counter()
            if len(walls) >= MIN_PASSES and now - start + (now - round_start) > seconds:
                break
        while len(probes) < SETUP_MIN_PROBES:
            probes.append(import_seconds() * scales[-1])
        return walls, scales, probes

    def traced(self, seconds: float) -> tuple[list[dict], list[float], list[float]]:
        """Each cell untraced, then traced; per-pass layer totals and both walls."""
        layers, walls_u, walls_t = [], [], []
        start = time.perf_counter()
        while True:
            tracer = Tracer(metrics.TARGETS)
            untraced, traced = [], []
            for index, cell in enumerate(self.cells):
                tag = f"pass{len(walls_t)}"
                untraced.append(self.solve(cell, tag + "u").seconds)
                tracer.cell = index
                with tracer.installed():
                    traced.append(self.solve(cell, tag + "t").seconds)
            names = [cell.name for cell in self.cells]
            self.wrong += checks.trace_problems(names, tracer.spans, untraced, traced)
            layers.append(metrics.layer_metrics(tracer.spans))
            walls_u.append(sum(untraced))
            walls_t.append(sum(traced))
            if time.perf_counter() - start + walls_u[-1] + walls_t[-1] > seconds:
                return layers, walls_u, walls_t

    def verdicts(self) -> set[str]:
        """Names of the failed cells; reasons go to ``problems`` and wrong answers to ``wrong``.

        Any failure of a strict cell is a wrong answer.
        """
        scenario = [cell.name for cell in self.cells if cell.method == "scenario"]
        rollout = {scenario[i * len(scenario) // ROLLOUT_CELLS] for i in range(min(ROLLOUT_CELLS, len(scenario)))}
        failed = set()
        for cell in self.cells:
            run = self.first[cell.name]
            reason, wrong = checks.verdict(cell, run.code, run.report, rollout=cell.name in rollout)
            if reason is not None:
                failed.add(cell.name)
                self.problems.append(f"{cell.name}: {reason}")
                if wrong or cell.strict:
                    self.wrong.append(f"{cell.name}: {reason}")
        return failed


def run_workload(args) -> dict:
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        cells = workloads.build_cells(args.workload, args.seed, ROOT, work)
        cli = load_vpcc_cli()
        bench = Bench(cli, cells, work)
        bench.warm_up()
        values = {}
        if args.trace:
            units = metric_units("per_layer")
            layers, walls_u, walls_t = bench.traced(args.seconds)
            for name in layers[0]:
                values[name] = statistics.median(layer[name] for layer in layers)
            values["trace.wall_s"] = statistics.median(walls_t)
            values["trace.overhead_s"] = statistics.median(t - u for t, u in zip(walls_t, walls_u))
            passes = len(walls_t)
        else:
            units = metric_units("end_to_end")
            walls, scales, probes = bench.untraced(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # A cell's latency is the median of its scaled passes. Once the
            # scale has taken out the host's drift, the minimum would pick
            # the pass whose scale erred lowest; across seeds the median
            # spread half as much at p50 on two_bus_sweep.
            per_cell_ms = [statistics.median(bench.times[cell.name]) * 1e3 for cell in cells]
            p = metrics.tail_percentile(len(cells))
            values["setup_s"] = statistics.median(probes)
            values["wall_s"] = sum(per_cell_ms) / 1e3
            values["solve_ms_p50"] = metrics.nearest_rank(per_cell_ms, 50)
            values["solve_ms_tail"] = metrics.nearest_rank(per_cell_ms, p)
            print(f"# solve_ms_tail is p{p} of {len(cells)} cells")
            print(
                f"# wall time of a pass {min(walls):.3f}-{max(walls):.3f} s unscaled;"
                f" reference scale {min(scales):.3f}-{max(scales):.3f}"
            )
            passes = len(walls)
        failed = bench.verdicts()
        if not args.trace:
            costs = [
                bench.first[c.name].report["objective"] for c in cells if c.name not in failed and bench.first[c.name].code == 0
            ]
            if costs:
                values["cost_mean"] = statistics.fmean(costs)
            else:
                bench.wrong.append("no cell returned a checked input, so cost_mean has no value")
            values["peak_rss_mb"] = peak_rss_mb
        print(f"# {args.workload} seed {args.seed}: {len(cells)} cells, {passes} pass(es), env {json.dumps(environment())}")
        for line in bench.problems:
            print(f"# failed {line}")
        for line in bench.wrong:
            print(f"# WRONG {line}")
        missing = sorted(set(units) - set(values))
        if missing and not bench.wrong:
            raise SystemExit(f"perfbench: BENCHMARK.json lists {missing}, which this run does not measure")
        return {
            "correct": not bench.wrong,
            "attempted": len(cells),
            "failed": len(failed),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> dict:
    """Every workload, untraced then traced, each run in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"perfbench: {workload} --trace {trace} exited {proc.returncode}\n{proc.stderr}")
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                print(line)
            summary["correct"] = summary["correct"] and result["correct"]
            if trace == 0:
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
                fail_rate = result["failed"] / result["attempted"]
                print(f"{workload:20s} {'fail_rate':28s} {fail_rate:16.6g} ratio")
            for name, metric in result["metrics"].items():
                print(f"{workload:20s} {name:28s} {metric['value']:16.6g} {metric['unit']}")
                summary["metrics"][f"{workload}.{name}"] = metric
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vpcc", "__init__.py")):
        print(f"perfbench: no vpcc sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 1
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
