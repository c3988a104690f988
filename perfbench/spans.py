"""Span recording around the public entry points of each vpcc layer.

Wrappers are installed at the module attribute each caller looks up (for
example ``vpcc.cli.load_config``, which ``cli`` imported by name), so the
program's source is untouched. ``Tracer.installed`` restores every
original in a ``finally``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    cell: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the durations of its direct children.

    Calls in one thread nest without overlap, so the children's durations
    are the part of the parent's interval they cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


class Tracer:
    """Records one span per wrapped call; spans of one cell share ``cell``."""

    def __init__(self, targets):
        # targets: (module name, attribute, span name, attrs(args, kwargs, result) or None)
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.cell = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self.cell, self._stack[-1] if self._stack else None, 0.0)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its recording wrapper; always put the originals back."""
        saved = []
        try:
            for module_name, attr, name, attrs in self.targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, attrs))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
