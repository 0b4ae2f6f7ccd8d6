"""Spans around surftrack's layer boundaries, installed from outside the package.

A span is ``[pass id, parent span index, name, start ns, end ns]``; spans
live in one in-memory list and are written out when the benchmark ends.
Since the benchmark is single-threaded, spans nest strictly, so a span's
self time is its duration minus the durations of its direct children.

Nothing in ``surftrack`` is edited.  Grid stage methods, the stream
bank and the tracker are wrapped on the instance a pass creates; the
free functions ``site_array``, ``unpack_genome`` and the annotation class
are replaced in the module that calls them for the length of a traced
pass and restored afterwards.  A boundary the program no longer has is
recorded as absent, never as an error.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from surftrack.sim import engine, output

# (attribute on the grid instance, span name)
GRID_STAGES = (
    ("step_cycle", "engine.cycle"),
    ("_transport_tick", "engine.transport"),
    ("_inject_migrants", "engine.inject"),
    ("_refill_emigrants", "engine.refill"),
    ("_tournament", "engine.tournament"),
    ("_mutate", "engine.mutate"),
    ("_deposit", "engine.deposit"),
    ("sample_end_state", "engine.sample"),
)


class NullTracer:
    """Untraced passes: every hook is a plain call."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def instrument_grid(self, grid) -> None:
        pass

    @contextmanager
    def installed(self):
        yield


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.pass_id = 0  # set by the caller before each traced pass
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call; ``count(args, result)``
        may return ``(counter name, amount)`` to add at the same boundary."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [self.pass_id, stack[-1] if stack else -1, name, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                key, amount = count(args, out)
                self.counts[self.pass_id, key] += int(amount)
            return out

        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def _patch(self, owner, attr, name, count=None, restore=True) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(name)
            return
        setattr(owner, attr, self.wrap(name, original, count))
        if restore:
            self._restore.append((owner, attr, original))

    def instrument_grid(self, grid) -> None:
        """Wrap one grid's stage methods, stream bank and tracker."""
        for attr, name in GRID_STAGES:
            self._patch(grid, attr, name, restore=False)
        bank = getattr(grid, "bank", None)
        if bank is None:
            self.missing.add("streams.draw")
        else:
            self._patch(
                bank, "draw", "streams.draw",
                count=lambda args, out: ("streams.draws", out.size), restore=False,
            )
        tracker = getattr(grid, "tracker", None)
        if tracker is not None:
            self._patch(tracker, "record_cohort", "tracker.record_cohort", restore=False)
            self._patch(
                tracker, "prune", "tracker.prune",
                count=lambda args, out: ("tracker.rows_pruned", out), restore=False,
            )

    @contextmanager
    def installed(self):
        """Patch the module-level call sites for the length of a pass."""
        self._patch(
            engine, "site_array", "sites.site_array",
            count=lambda args, out: ("sites.site_array_ranks", out[0].size),
        )
        self._patch(output, "unpack_genome", "genome.unpack")
        annotation = getattr(output, "SurfaceAnnotation", None)
        if annotation is None or not hasattr(annotation, "to_records"):
            self.missing.add("annotation.to_records")
        else:
            traced = type("TracedSurfaceAnnotation", (annotation,), {})
            traced.to_records = self.wrap("annotation.to_records", annotation.to_records)
            output.SurfaceAnnotation = traced
            self._restore.append((output, "SurfaceAnnotation", annotation))
        try:
            yield
        finally:
            while self._restore:
                owner, attr, original = self._restore.pop()
                setattr(owner, attr, original)

    def per_pass(self) -> dict[int, dict[str, list[int]]]:
        """``{pass id: {span name: [self ns, calls]}}``."""
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[1] >= 0:
                child_ns[rec[1]] += rec[4] - rec[3]
        out: dict[int, dict[str, list[int]]] = defaultdict(dict)
        for i, (pass_id, _, name, start, end) in enumerate(self.spans):
            acc = out[pass_id].setdefault(name, [0, 0])
            acc[0] += end - start - child_ns[i]
            acc[1] += 1
        return out

    def write(self, path: str) -> None:
        """One JSON array per line: pass, span, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (pass_id, parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps([pass_id, i, parent, name, start, end]) + "\n")
