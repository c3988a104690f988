"""Self-test of the benchmark's own arithmetic and tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib
import json
import math
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


class TestTailPercentile:
    @pytest.mark.parametrize("cells, expected", [(108, 90), (60, 83), (32, 68), (20, 50), (11, 9)])
    def test_known_sizes(self, cells, expected):
        assert metrics.tail_percentile(cells) == expected

    def test_highest_percentile_with_ten_beyond(self):
        for cells in range(11, 400):
            p = metrics.tail_percentile(cells)
            values = list(range(cells))
            assert cells - 1 - metrics.nearest_rank(values, p) >= metrics.TAIL_BEYOND
            assert cells - 1 - metrics.nearest_rank(values, p + 1) < metrics.TAIL_BEYOND

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            metrics.tail_percentile(10)


def test_self_times_subtract_direct_children():
    spans = [
        Span("root", 0, None, 0.0, 10.0),
        Span("a", 0, 0, 1.0, 4.0),
        Span("a.inner", 0, 1, 2.0, 3.0),
        Span("b", 0, 0, 5.0, 9.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert math.isclose(sum(self_times(spans)), spans[0].duration)


@pytest.fixture
def fake_module():
    module = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner = inner
    module.outer = outer
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def _targets(module):
    return [
        (module.__name__, "outer", "outer", None),
        (module.__name__, "inner", "inner", lambda args, kwargs, result: {"arg": args[0]}),
    ]


def test_tracer_records_nested_spans(fake_module):
    tracer = Tracer(_targets(fake_module))
    tracer.cell = 7
    with tracer.installed():
        assert fake_module.outer(3) == 8
    names = [(s.name, s.parent, s.cell) for s in tracer.spans]
    assert names == [("outer", None, 7), ("inner", 0, 7)]
    assert tracer.spans[1].attrs == {"arg": 3}
    assert tracer.spans[0].start <= tracer.spans[1].start <= tracer.spans[1].end <= tracer.spans[0].end


def test_wrappers_restored_after_errors(fake_module):
    originals = (fake_module.outer, fake_module.inner)
    tracer = Tracer(_targets(fake_module))
    with pytest.raises(ValueError):
        with tracer.installed():
            assert fake_module.outer is not originals[0]
            fake_module.outer(-1)
    assert (fake_module.outer, fake_module.inner) == originals
    assert all(s.end >= s.start for s in tracer.spans)
    with tracer.installed():
        fake_module.outer(1)
    assert tracer.spans[-1].parent == 2  # the stack was unwound by the failed call


def test_vpcc_targets_restored():
    tracer = Tracer(metrics.TARGETS)
    originals = [getattr(importlib.import_module(m), attr) for m, attr, _, _ in metrics.TARGETS]
    with tracer.installed():
        wrapped = [getattr(importlib.import_module(m), attr) for m, attr, _, _ in metrics.TARGETS]
    restored = [getattr(importlib.import_module(m), attr) for m, attr, _, _ in metrics.TARGETS]
    assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
    assert all(r is o for r, o in zip(restored, originals))


def _cell_spans(cell, root_end, child=None):
    spans = [Span("cli.main", cell, None, 0.0, root_end)]
    if child is not None:
        spans.append(Span("conic.solve", cell, len(spans) - 1, *child))
    return spans


class TestTraceProblems:
    def test_sound_trace(self):
        spans = _cell_spans(0, 0.0502, (0.01, 0.03))
        assert checks.trace_problems(["a"], spans, [0.0498], [0.0503]) == []

    def test_spans_missing_part_of_the_call(self):
        # The spans cover 20 ms of a call that took 50 ms untraced and traced.
        problems = checks.trace_problems(["a"], _cell_spans(0, 0.02), [0.05], [0.0501])
        assert len(problems) == 1 and problems[0].startswith("a: span self times")

    def test_one_root_per_cell(self):
        spans = _cell_spans(0, 0.05) + [Span("config.load", 0, None, 0.05, 0.051)]
        assert checks.trace_problems(["a"], spans, [0.05], [0.051]) == [
            "a: expected one cli.main root span, got ['cli.main', 'config.load']"
        ]

    def test_pass_overhead(self):
        # Each cell's spans match its traced call, but tracing doubled the pass.
        spans = [*_cell_spans(0, 0.1), *_cell_spans(1, 0.1)]
        problems = checks.trace_problems(["a", "b"], spans, [0.05, 0.05], [0.1, 0.1])
        assert len(problems) == 1 and problems[0].startswith("tracing overhead")


def test_synthetic_generator(tmp_path):
    """Same seed, same files; the generator's moments agree with vpcc's; rows bind."""
    from vpcc.config import parse_config
    from vpcc.reformulate import build_reformulation

    def texts(cells):
        out = []
        for cell in cells:
            with open(cell.config, encoding="utf-8") as handle:
                out.append(handle.read())
        return out

    for sub in "abc":
        (tmp_path / sub).mkdir()
    first = workloads.synthetic_proposed_cells(5, str(tmp_path / "a"))
    before = texts(first)
    assert texts(workloads.synthetic_proposed_cells(5, str(tmp_path / "b"))) == before
    assert texts(workloads.synthetic_proposed_cells(6, str(tmp_path / "c"))) != before

    for cell in first[: len(workloads.SYNTH_N) * len(workloads.SYNTH_HORIZON)]:
        with open(cell.config, encoding="utf-8") as handle:
            cfg = parse_config(json.load(handle))
        spec = cfg.system_spec()
        rows = build_reformulation(spec, cfg.jcc())
        lam = math.sqrt(4.0 / (9.0 * cfg.alpha / len(rows)) - 1.0)
        U_ref = np.full(spec.input_dim, workloads.U_REF)
        zero = np.zeros(spec.input_dim)
        for rc in rows:
            assert math.isclose(rc.h, rc.mean(U_ref) + workloads.H_SLACK * lam * rc.std(U_ref), rel_tol=1e-9)
            assert rc.mean(zero) > rc.h
        assert math.isclose(cfg.cost().value(U_ref), 1.0)
