"""In-memory spans recorded by the benchmark around calls into the program.

The program under test is never instrumented: every span here wraps a
call the benchmark itself makes into a public function of a layer
(``apps.html``, ``fast``, ``exec``, ``transducers``, ``automata``,
``svc``).  The untraced run calls the workload's public entry point
(``FastHtmlSanitizer.sanitize``, ``composed_n`` then ``apply_one``, ...)
with spans off; the traced run makes the same public calls one at a
time, each inside a span.

Spans are kept in memory and written once, at the end, as Chrome/Perfetto
JSON; :meth:`Spans.self_times` gives each layer's self time (its span
minus the part its child spans cover).
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from typing import Iterator


class Spans:
    """A span recorder; ``enabled=False`` makes :meth:`span` a no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        # (name, start_s, end_s, depth, op_index)
        self.records: list[tuple[str, float, float, int, int]] = []
        self._depth = 0
        self.op = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        depth = self._depth
        self._depth = depth + 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._depth = depth
            self.records.append((name, start, end, depth, self.op))

    def add(self, name: str, start: float, end: float, depth: int = 0) -> None:
        """Record a span measured elsewhere (e.g. one served request)."""
        if self.enabled:
            self.records.append((name, start, end, depth, self.op))

    def _by_op(self) -> dict[int, list]:
        """Records grouped by operation, each group in start order.

        Within one operation spans nest properly (``with`` blocks on one
        thread, or a request and its worker part); operations themselves
        may overlap, as concurrent requests do.
        """
        groups: dict[int, list] = {}
        for rec in sorted(self.records, key=lambda r: (r[1], r[3])):
            groups.setdefault(rec[4], []).append(rec)
        return groups

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name (span minus direct children)."""
        totals: dict[str, float] = {}
        for group in self._by_op().values():
            stack: list[list] = []  # [name, end, seconds, child_seconds]
            for name, start, end, _depth, _op in group + [("", math.inf, 0, 0, 0)]:
                while stack and stack[-1][1] <= start:
                    top = stack.pop()
                    totals[top[0]] = totals.get(top[0], 0.0) + top[2] - top[3]
                if stack:
                    stack[-1][3] += end - start
                stack.append([name, end, end - start, 0.0])
        return totals

    def write_chrome_trace(self, path: str, process_name: str) -> None:
        """Chrome/Perfetto ``traceEvents`` JSON of every recorded span.

        Operations that overlap in time go on separate tracks (``tid``),
        so every track holds properly nested complete events.
        """
        t0 = min((r[1] for r in self.records), default=0.0)
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": process_name}},
        ]
        lane_ends: list[float] = []
        for op, group in sorted(self._by_op().items(), key=lambda kv: kv[1][0][1]):
            first, last = group[0][1], max(r[2] for r in group)
            lane = next((k for k, e in enumerate(lane_ends) if e <= first), len(lane_ends))
            if lane == len(lane_ends):
                lane_ends.append(last)
            lane_ends[lane] = last
            for name, start, end, _depth, _op in group:
                events.append({
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((start - t0) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": 1,
                    "tid": lane + 1,
                    "args": {"op": op},
                })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def self_time_table(totals: dict[str, float], ops: int) -> str:
    """A text table of self time per layer, largest first."""
    whole = sum(totals.values()) or 1.0
    lines = [f"{'span':<28} {'self ms/op':>11} {'share':>7}"]
    for name, secs in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"{name:<28} {secs * 1e3 / max(ops, 1):>11.3f} {secs / whole:>7.1%}"
        )
    return "\n".join(lines)
