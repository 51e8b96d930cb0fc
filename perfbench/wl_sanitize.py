"""``sanitize``: the paper's Section 5.1 run path on seeded HTML pages.

One operation is ``FastHtmlSanitizer().sanitize(doc)`` on one
``generate_page`` document.  Sizes are log-uniform from 1 KB to 32 KB on
a fixed grid of ``size_bins`` points, each used once per round in seeded
order, so every seed sees the same sizes and the seed picks the pages.
An odd number of points keeps the median and the 75th percentile inside
one size's cluster of times rather than on the gap between two.  The reference is
the hand-written ``MonolithicSanitizer``: output must be byte-equal to
it and contain no ``<script``.
"""

from __future__ import annotations

import random
import statistics
import time
import tracemalloc

from harness import Inputs, Outcome, Rounds, loop_outcome, median_setup, op_loop, overhead_frac
from spans import Spans

from repro.apps.html import (
    FastHtmlSanitizer,
    MonolithicSanitizer,
    decode_html,
    encode_forest,
    fast_sanitizer_source,
    generate_page,
    parse_html,
)
from repro.fast import compile_program, parse_program
from repro.smt.solver import DEFAULT_SOLVER


class _Traced:
    """A sanitizer plus the encoded trees its traced ops saw."""

    def __init__(self, sanitizer: FastHtmlSanitizer) -> None:
        self.sanitizer = sanitizer
        self.nodes = 0


def _op(state: _Traced, doc: str, spans: Spans) -> str:
    if not spans.enabled:
        return state.sanitizer.sanitize(doc)
    # the same public calls FastHtmlSanitizer.sanitize makes, one span each
    with spans.span("apps.html.parse_html"):
        forest = parse_html(doc)
    with spans.span("apps.html.encode_forest"):
        tree = encode_forest(forest)
    with spans.span("exec.apply_one"):
        out = state.sanitizer.rem_esc.apply_one(tree)
    with spans.span("apps.html.decode_html"):
        html = decode_html(out)
    state.last_tree = tree
    return html


def run(args, spec: dict, spans: Spans) -> Outcome:
    rng = random.Random(args.seed)
    lo, hi, bins = spec["min_bytes"], spec["max_bytes"], spec["size_bins"]
    sizes = Rounds(rng, [int(lo * (hi / lo) ** (k / (bins - 1))) for k in range(bins)])

    def produce() -> str:
        return generate_page(sizes.next(), seed=rng.randrange(1 << 30))

    make_input = Inputs(produce)
    reference = MonolithicSanitizer()

    setup_s, sanitizer = median_setup(FastHtmlSanitizer, spec["setups"], args.probe)
    state = _Traced(sanitizer)
    twin = _Traced(FastHtmlSanitizer()) if spans.enabled else None

    def check(doc: str, out: str) -> bool:
        tree = state.__dict__.pop("last_tree", None)  # traced ops only
        if tree is not None:
            state.nodes += tree.size()
        return out == reference.sanitize(doc) and "<script" not in out.lower()

    res = op_loop(
        args.seconds, make_input, _op, check, state, spans, args.probe, twin, args.corrupt,
        round_size=spec["size_bins"],
    )
    outcome = loop_outcome(res, setup_s)
    if spans.enabled:
        outcome.layers = _layers(spans, res, state.nodes, args.seed, spec)
    return outcome


def _layers(spans: Spans, res, nodes: int, seed: int, spec: dict) -> dict:
    self_s = spans.self_times()
    ops = len(res.latencies)
    per_node = lambda name: self_s.get(name, 0.0) * 1e6 / nodes if nodes else 0.0  # noqa: E731
    source = fast_sanitizer_source()
    parse_ms, compile_ms = [], []
    spans.op = -1
    for _ in range(spec["setups"]):
        t0 = time.perf_counter()
        with spans.span("fast.parse_program"):
            program = parse_program(source)
        t1 = time.perf_counter()
        with spans.span("fast.compile_program"):
            compile_program(program, DEFAULT_SOLVER)
        t2 = time.perf_counter()
        parse_ms.append((t1 - t0) * 1e3)
        compile_ms.append((t2 - t1) * 1e3)
    return {
        "parse_us_per_node": per_node("apps.html.parse_html"),
        "encode_us_per_node": per_node("apps.html.encode_forest"),
        "apply_us_per_node": per_node("exec.apply_one"),
        "decode_us_per_node": per_node("apps.html.decode_html"),
        "apply_alloc_b_per_node": _alloc_per_node(seed, spec),
        "apply_share": self_s.get("exec.apply_one", 0.0) / sum(res.latencies),
        "nodes": nodes,
        "other_ms": self_s.get("op", 0.0) * 1e3 / ops,
        "fast_parse_ms": statistics.median(parse_ms),
        "fast_compile_ms": statistics.median(compile_ms),
        "tracing_overhead_frac": overhead_frac(res),
    }


def _alloc_per_node(seed: int, spec: dict) -> float:
    """tracemalloc peak bytes during apply, per encoded node.

    Measured after the timed loop, on one seeded page from the middle of
    each of ``alloc_docs`` size bins, because tracemalloc slows every
    allocation and would distort the spans.
    """
    lo, hi, docs = spec["min_bytes"], spec["max_bytes"], spec["alloc_docs"]
    sanitizer = FastHtmlSanitizer()
    peak = nodes = 0
    for j in range(docs):
        size = int(lo * (hi / lo) ** ((j + 0.5) / docs))
        tree = encode_forest(parse_html(generate_page(size, seed=seed + j)))
        tracemalloc.start()
        try:
            sanitizer.rem_esc.apply_one(tree)
            peak += tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nodes += tree.size()
    return peak / nodes
