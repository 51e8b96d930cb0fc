"""``deforest``: Figure 7, ``map_caesar`` composed n times, then run.

One operation is ``composed_n(n)`` followed by ``apply_one`` over a
seeded 4,096-integer list; ``n`` is a seeded draw from the powers of two
1..512, every value once per round of ten.  The reference is
``reference_caesar``, plain Python arithmetic.
"""

from __future__ import annotations

import random
import time

from harness import Inputs, Outcome, Rounds, loop_outcome, op_loop, overhead_frac
from spans import Spans

from repro.apps.deforestation import (
    ILIST,
    composed_n,
    map_caesar,
    random_list,
    reference_caesar,
)
from repro.smt.solver import Solver
from repro.trees.unranked import decode_list, encode_list


class _State:
    def __init__(self) -> None:
        self.rules = 0
        self.folds = 0


def _op(state: _State, inp, spans: Spans):
    n, _values, data = inp
    if not spans.enabled:
        return composed_n(n).apply_one(data)
    # composed_n's own fold, one span per compose
    base = map_caesar(Solver())
    composed = base
    for _ in range(n - 1):
        with spans.span("transducers.compose"):
            composed = composed.compose(base)
    with spans.span("exec.apply_one"):
        out = composed.apply_one(data)
    state.rules += composed.size()[1]
    state.folds += n - 1
    return out


def _check(inp, out) -> bool:
    n, values, _data = inp
    return out is not None and decode_list(out) == reference_caesar(values, n)


def run(args, spec: dict, spans: Spans) -> Outcome:
    rng = random.Random(args.seed)
    folds = Rounds(rng, [2**k for k in range(spec["max_log2_n"] + 1)])

    def produce():
        n = folds.next()
        values = random_list(spec["length"], seed=rng.randrange(1 << 30))
        return n, values, encode_list(values, ILIST)

    setup_s = _setup_seconds(spec, args.probe)
    state = _State()
    twin = _State() if spans.enabled else None
    res = op_loop(
        args.seconds, Inputs(produce), _op, _check, state, spans, args.probe, twin, args.corrupt,
        round_size=len(folds.values),
    )
    outcome = loop_outcome(res, setup_s)
    if spans.enabled:
        self_s = spans.self_times()
        ops = len(res.latencies)
        nodes = ops * (spec["length"] + 1)
        outcome.layers = {
            "compose_ms_per_fold": self_s.get("transducers.compose", 0.0)
            * 1e3
            / max(state.folds, 1),
            "compose_ms": self_s.get("transducers.compose", 0.0) * 1e3 / ops,
            "apply_us_per_node": self_s.get("exec.apply_one", 0.0) * 1e6 / nodes,
            "apply_share": self_s.get("exec.apply_one", 0.0) / sum(res.latencies),
            "nodes": nodes,
            "composed_rules": state.rules / ops,
            "other_ms": self_s.get("op", 0.0) * 1e3 / ops,
            "tracing_overhead_frac": overhead_frac(res),
        }
    return outcome


def _setup_seconds(spec: dict, probe) -> float:
    """Median seconds to build the base transducer.

    One build takes microseconds, so each sample times a batch of builds
    and divides, which keeps the figure above timer and scheduler noise.
    """
    batch = spec["setup_batch"]
    samples = []
    for _ in range(spec["setups"]):
        probe.sample("setup")
        t0 = time.perf_counter()
        for _ in range(batch):
            map_caesar(Solver())
        samples.append((time.perf_counter() - t0) / batch)
    samples.sort()
    return samples[len(samples) // 2]
