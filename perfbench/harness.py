"""Shared measurement code: the in-process op loop, percentiles, set-up.

An in-process workload supplies three callables:

* ``make_input(i)`` — the i-th seeded input (built outside the timing);
* ``op(state, inp, spans)`` — one operation against the program, with
  spans around each call into a layer (no-ops when tracing is off);
* ``check(inp, out)`` — True when ``out`` matches the workload's
  independent reference (never the code under test).

The untraced run executes each input once.  The traced run executes each
input twice, once with spans on and once off, against two separately
set-up program states so that caches warm identically on both sides;
which side goes first alternates.  Traced minus untraced time over the
same inputs is the tracing overhead.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from spans import Spans


@dataclass
class Outcome:
    """What one run measured, before it is turned into metrics."""

    attempted: int = 0
    failed: int = 0
    #: failures that are wrong answers or errors (not sheds or slowness)
    wrong: int = 0
    #: seconds per operation (in-process: the op; serve: due -> reply)
    latencies: list[float] = field(default_factory=list)
    ops_per_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)


def _probe_work() -> int:
    table = {}
    for i in range(20000):
        key = (i * 2654435761) & 0xFFFFF
        table[key] = (key, i)
    return sum(v[1] for v in table.values())


class HostProbe:
    """Times a fixed pure-Python task to track the host's current speed.

    On a shared host the same work can take 40% longer for minutes at a
    time, because other tenants contend for the cores and caches.  The
    probe runs between operations (never inside one) and the run's times
    are reported divided by :meth:`slowness`, so a change in the program
    shows in full and a change in the host largely does not.  The raw
    figures are kept in the run record.

    Contention slows the small probe more than the workloads: across
    thirty runs the workloads' throughput moved as the probe's speed to
    the power 0.64-0.81.  ``elasticity`` is that power.
    """

    def __init__(self, reference_ms: float, elasticity: float) -> None:
        self.reference_ms = reference_ms
        self.elasticity = elasticity
        #: phase ("setup" or "run") -> probe seconds
        self.samples: dict[str, list[float]] = {"setup": [], "run": []}

    def sample(self, phase: str = "run") -> None:
        t0 = time.perf_counter()
        _probe_work()
        self.samples[phase].append(time.perf_counter() - t0)

    def median_ms(self, phase: str = "run") -> float:
        if not self.samples[phase]:
            self.sample(phase)
        return statistics.median(self.samples[phase]) * 1e3

    def slowness(self, phase: str = "run") -> float:
        """Host time per unit of work in ``phase``, relative to the reference."""
        return (self.median_ms(phase) / self.reference_ms) ** self.elasticity


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(n: int, pct: float) -> float:
    """How many of ``n`` samples lie beyond the ``pct`` percentile."""
    return n * (1.0 - pct / 100.0)


def median_setup(
    build: Callable[[], Any], times: int, probe: HostProbe
) -> tuple[float, Any]:
    """Median seconds of ``times`` fresh set-ups, and the last one built."""
    samples = []
    built = None
    for _ in range(times):
        probe.sample("setup")
        t0 = time.perf_counter()
        built = build()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), built


@dataclass
class LoopResult:
    attempted: int
    failed: int
    #: seconds of each operation (the spans-on side in a traced run)
    latencies: list[float]
    #: traced run only: seconds of the untraced executions
    untraced_s: float = 0.0


def op_loop(
    seconds: float,
    make_input: Callable[[int], Any],
    op: Callable[[Any, Any, Spans], Any],
    check: Callable[[Any, Any], bool],
    state: Any,
    spans: Spans,
    probe: HostProbe,
    twin: Optional[Any] = None,
    corrupt: Optional[Callable[[int, Any], Any]] = None,
    round_size: int = 1,
) -> LoopResult:
    """Run operations on successive inputs until ``seconds`` have passed.

    The loop stops only at a multiple of ``round_size`` operations, so a
    workload whose inputs are stratified in rounds always measures whole
    rounds and the same mix of input sizes whatever the seed.

    ``twin`` (traced run only) is a second, identically set-up program
    state that executes every input with spans off.  ``corrupt(i, out)``
    lets the benchmark's own tests damage an output before it is checked.
    An exception from the program is a failed operation, never a crash
    of the benchmark.
    """
    off = Spans(False)
    res = LoopResult(0, 0, [])
    deadline = time.perf_counter() + seconds
    i = 0
    while i % round_size or time.perf_counter() < deadline:
        inp = make_input(i)
        spans.op = i
        sides = [(state, spans)] if twin is None else [(state, spans), (twin, off)]
        if i % 2:
            sides.reverse()
        ok = True
        for side_state, side_spans in sides:
            t0 = time.perf_counter()
            try:
                with side_spans.span("op"):
                    out = op(side_state, inp, side_spans)
            except Exception as exc:  # a program error fails this op only
                out, ok = exc, False
            elapsed = time.perf_counter() - t0
            if side_spans is spans:
                res.latencies.append(elapsed)
            else:
                res.untraced_s += elapsed
            if ok:
                if corrupt is not None:
                    out = corrupt(i, out)
                ok = check(inp, out)
        res.attempted += 1
        res.failed += 0 if ok else 1
        probe.sample()
        i += 1
    return res


def loop_outcome(res: LoopResult, setup_s: float) -> Outcome:
    """The end-to-end part of an in-process run's outcome."""
    correct_ops = res.attempted - res.failed
    return Outcome(
        attempted=res.attempted,
        failed=res.failed,
        wrong=res.failed,
        latencies=res.latencies,
        ops_per_s=correct_ops / sum(res.latencies) if res.latencies else 0.0,
        setup_s=setup_s,
        peak_rss_mb=peak_rss_mb(),
    )


def overhead_frac(res: LoopResult) -> float:
    """Traced over untraced time of the same inputs, minus one."""
    return sum(res.latencies) / res.untraced_s - 1.0 if res.untraced_s else 0.0


class Rounds:
    """Each of ``values`` once per round, in seeded order.

    Runs that stop at a whole round see exactly the same mix of inputs
    whatever the seed; the seed still picks the order and the inputs.
    """

    def __init__(self, rng, values) -> None:
        self.rng = rng
        self.values = list(values)
        self._left: list = []

    def next(self):
        if not self._left:
            self._left = list(self.values)
            self.rng.shuffle(self._left)
        return self._left.pop()


class Inputs:
    """Memoize a seeded input sequence so ``make_input(i)`` is stable."""

    def __init__(self, produce: Callable[[], Any]) -> None:
        self._produce = produce
        self._items: list[Any] = []

    def __call__(self, i: int) -> Any:
        while len(self._items) <= i:
            self._items.append(self._produce())
        item = self._items[i]
        # keep only a small window: inputs are consumed in order
        if i >= 2:
            self._items[i - 2] = None
        return item
