"""The benchmark's traced run against its plain run, on three ``vpcc solve`` cells.

``perfbench/run.py --trace 1`` solves every cell again under
``spans.Tracer(metrics.TARGETS)``, whose wrappers read positional arguments
and result fields of the traced entry points. A change in how the program
calls one of them (a keyword where a positional argument was) leaves the
plain run as it was, but the traced cell then raises in a wrapper and its
report differs. This test reads ``perfbench/`` and changes nothing in it.
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

from vpcc import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# The attrs each layer's span carries, from metrics.TARGETS.
SPAN_ATTRS = {
    "conic.solve": {"steps", "optimal", "cone_rows", "linear_rows"},
    "scenario.solve": {"rows_before"},
    "scenario.sample": {"samples"},
    "stochastics.mc_certify": {"samples"},
}


def solve(config: str, method: str, out: str) -> tuple[int, dict]:
    """``vpcc solve`` as the benchmark calls it: in process, output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(["solve", config, "--method", method, "--out", out])
    with open(os.path.join(out, "report.json"), encoding="utf-8") as handle:
        return code, json.load(handle)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(cell, plain (code, report), traced (code, report)) per cell, and the spans."""
    work = tmp_path_factory.mktemp("traced")
    two_bus = {cell.name: cell for cell in workloads.two_bus_cells(os.path.dirname(PERFBENCH), 1, str(work))}
    data = workloads.synthetic_config(np.random.default_rng(5), 4, 5, workloads.derive(1, 2, 0))
    path = os.path.join(work, "synthetic.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    cells = [
        two_bus["s0-p0.9-proposed"],
        two_bus["s0-p0.9-scenario"],
        workloads.Cell("synthetic-scenario", path, "scenario", workloads.EXIT_OK),
    ]
    tracer = Tracer(metrics.TARGETS)
    out = []
    for index, cell in enumerate(cells):
        plain = solve(cell.config, cell.method, os.path.join(work, f"{index}-plain"))
        tracer.cell = index
        with tracer.installed():
            traced = solve(cell.config, cell.method, os.path.join(work, f"{index}-traced"))
        out.append((cell, plain, traced))
    return out, tracer.spans


def test_traced_reports_equal_plain(runs):
    cells, _ = runs
    for cell, (code, report), (traced_code, traced_report) in cells:
        assert code == traced_code == cell.expected_exit, cell.name
        assert checks.canonical(traced_report) == checks.canonical(report), cell.name


def test_one_cli_main_root_per_cell(runs):
    cells, spans = runs
    for index in range(len(cells)):
        assert [span.name for span in spans if span.cell == index and span.parent is None] == ["cli.main"]


def test_layer_spans_carry_their_attrs(runs):
    cells, spans = runs
    for name, keys in SPAN_ATTRS.items():
        named = [span for span in spans if span.name == name]
        assert named, name
        for span in named:
            assert set(span.attrs) == keys, name
    for index, (cell, (_, report), _) in enumerate(cells):
        samples = {span.name: span.attrs["samples"] for span in spans if span.cell == index and "samples" in span.attrs}
        if cell.method == "scenario":
            assert samples == {"scenario.sample": report["sample_count"]}
        else:
            assert samples == {"stochastics.mc_certify": report["mc"]["samples"]}
    metrics.layer_metrics(spans)  # the per-layer totals of a traced pass
