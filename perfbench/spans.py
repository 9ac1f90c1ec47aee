"""In-memory span recorder for the traced benchmark run.

Each span records the layer it times, its host ``perf_counter``
bounds, the span that caused it and the benchmark operation it belongs
to.  Spans stay in memory and are summarised when the run ends; a
layer's self time is its duration minus the time its direct child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List


class Tracer:
    """Records nested spans, tagged with the current operation index.

    ``op`` is -1 while the stack is being set up; :meth:`summary`
    counts only spans of measured operations.
    """

    enabled = True

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        self.op = -1
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a ``name`` span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: span count, total and self seconds."""
        child = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[index] - self.starts[index]
        out: Dict[str, Dict[str, float]] = {}
        for index, name in enumerate(self.names):
            if self.ops[index] < 0:
                continue
            row = out.setdefault(
                name, {"count": 0.0, "total_s": 0.0, "self_s": 0.0}
            )
            duration = self.ends[index] - self.starts[index]
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[index]
        return out


class NullTracer:
    """Tracing off: spans are no-ops and no wrappers are installed."""

    enabled = False
    op = -1

    def span(self, name: str) -> "contextlib.nullcontext[None]":
        return contextlib.nullcontext()

    def wrap(self, name: str, fn: Callable) -> Callable:
        return fn

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {}
