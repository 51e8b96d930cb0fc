"""``conflicts``: Figure 6, one tagger pair through the conflict check.

One operation takes a pair of taggers through compose -> ``restrict``
(no-tags worlds) -> ``restrict_out`` (double-tagged worlds) ->
``is_empty``.  The taggers are the fixed pool ``make_tagger(0..N-1)``
built in set-up; the seed draws pairs from it without replacement.
Each check gets a fresh ``Solver``: with one solver shared across checks
every check would run faster the more checks came before it, so a run on
a faster host would also do cheaper checks, and the run's figures would
depend on its own length.

The reference is the committed verdict list ``data/conflict_verdicts.json``
(see ``make_verdicts.py``).  Outside the timed region every conflict's
witness world is also replayed through the two taggers in sequence on
the reference interpreter (``transducers.run``), and it must carry a
double tag.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations

from harness import Outcome, loop_outcome, median_setup, op_loop, overhead_frac
from spans import Spans

from repro.apps.ar import (
    decode_world,
    double_tag_language,
    make_tagger,
    no_tags_language,
)
from repro.smt.solver import Solver
from repro.transducers import Transducer
from repro.transducers.run import run_one

VERDICTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "conflict_verdicts.json")


def build_pool(taggers: int):
    """The set-up: the tagger pool.  The two restriction languages take
    microseconds and are built per check, with the check's solver."""
    solver = Solver()
    return [make_tagger(seed, solver)[0] for seed in range(taggers)]


class _State:
    def __init__(self, pool) -> None:
        self.pool = pool
        self.sat_queries = 0
        self.cache_hits = 0
        self.composed_rules = 0
        self.restricted_rules = 0


def _op(state: _State, pair, spans: Spans):
    solver = Solver()
    first = Transducer(state.pool[pair[0]].sttr, solver)
    second = Transducer(state.pool[pair[1]].sttr, solver)
    no_tags, double = no_tags_language(solver), double_tag_language(solver)
    if not spans.enabled:
        restricted = first.compose(second).restrict(no_tags).restrict_out(double)
        return not restricted.is_empty(), restricted
    with spans.span("transducers.compose"):
        composed = first.compose(second)
    with spans.span("transducers.restrict"):
        restricted_in = composed.restrict(no_tags)
    with spans.span("transducers.restrict_out"):
        restricted = restricted_in.restrict_out(double)
    with spans.span("transducers.domain"):
        domain = restricted.domain()
    with spans.span("automata.is_empty"):
        conflict = not domain.is_empty()
    state.sat_queries += solver.stats.sat_queries
    state.cache_hits += solver.stats.cache_hits
    state.composed_rules += composed.size()[1]
    state.restricted_rules += restricted.size()[1]
    return conflict, restricted


def replay_shows_conflict(first, second, witness) -> bool:
    """Run the witness through both taggers; some element must get 2 tags.

    The witness must also be a no-tags world, or the double tag might not
    be the pair's doing.
    """
    if any(tags for _id, tags in decode_world(witness)):
        return False
    mid = run_one(first.sttr, witness)
    out = run_one(second.sttr, mid) if mid is not None else None
    return out is not None and any(tags >= 2 for _id, tags in decode_world(out))


def load_verdicts() -> dict:
    with open(VERDICTS) as f:
        return json.load(f)


def run(args, spec: dict, spans: Spans) -> Outcome:
    committed = load_verdicts()
    taggers = committed["taggers"]
    expected = committed["conflict"]
    pairs = list(combinations(range(taggers), 2))
    random.Random(args.seed).shuffle(pairs)

    setup_s, built = median_setup(lambda: build_pool(taggers), spec["setups"], args.probe)
    state = _State(built)
    twin = _State(build_pool(taggers)) if spans.enabled else None

    def check(pair, out) -> bool:
        conflict, restricted = out
        if conflict != expected[f"{pair[0]}-{pair[1]}"]:
            return False
        if not conflict:
            return True
        witness = restricted.domain().witness()
        return witness is not None and replay_shows_conflict(
            state.pool[pair[0]], state.pool[pair[1]], witness
        )

    def make_input(i: int):
        return pairs[i % len(pairs)]

    res = op_loop(args.seconds, make_input, _op, check, state, spans, args.probe, twin, args.corrupt)
    outcome = loop_outcome(res, setup_s)
    if spans.enabled:
        self_s = spans.self_times()
        ops = len(res.latencies)
        per_op = lambda name: self_s.get(name, 0.0) * 1e3 / ops  # noqa: E731
        outcome.layers = {
            "compose_ms": per_op("transducers.compose"),
            "restrict_in_ms": per_op("transducers.restrict"),
            "restrict_out_ms": per_op("transducers.restrict_out"),
            "domain_ms": per_op("transducers.domain"),
            "emptiness_ms": per_op("automata.is_empty"),
            "emptiness_share": self_s.get("automata.is_empty", 0.0) / sum(res.latencies),
            "sat_queries": state.sat_queries / ops,
            "solver_hit_rate": state.cache_hits / state.sat_queries if state.sat_queries else 0.0,
            "composed_rules": state.composed_rules / ops,
            "restricted_rules": state.restricted_rules / ops,
            "other_ms": per_op("op"),
            "tracing_overhead_frac": overhead_frac(res),
        }
    return outcome
