"""Regenerate ``data/conflict_verdicts.json``, the ``conflicts`` reference.

Usage (from the repository root)::

    python3 perfbench/make_verdicts.py [--taggers 40]

The verdicts come from a brute-force oracle that shares nothing with the
symbolic pipeline under test (no compose, restriction or emptiness).  A
tagger walks the element list one state per element and tags an element
when the walk's current state has a tagging rule whose guard holds on the
element's ``(id, score)``.  A pair conflicts exactly when, at some list
position, both taggers' states tag and their two guards hold together.
Every generated guard constrains ``id`` alone or ``score`` alone, so it
is checked on a grid: integers wide enough to contain every residue
combination of the guards' moduli and every range they use, and, for
the cubic ``score`` bounds with integer end points, one rational point
inside each unit interval of ``score**3``.

The script also runs the pipeline on every pair and reports, without
changing the file, any pair where the program disagrees with the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import combinations

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from repro.apps.ar import double_tag_language, make_tagger, no_tags_language  # noqa: E402
from repro.smt.solver import Solver  # noqa: E402
from repro.transducers.output_terms import OutApply, OutNode  # noqa: E402

IDS = range(-150, 250)


def _cube_root_points() -> list[Fraction]:
    points = [Fraction(0)]
    for x in range(-40, 40):
        v = x + 0.5
        root = abs(v) ** (1 / 3) * (1 if v >= 0 else -1)
        points.append(Fraction(round(root * 10**6), 10**6))
    return points


SCORES = _cube_root_points()


def _satisfying(guard) -> tuple[frozenset | None, frozenset | None]:
    """(ids, scores) where the guard holds; None = unconstrained."""
    names = {v.name for v in guard.free_vars()}
    if names - {"id", "score"} or names == {"id", "score"}:
        raise SystemExit(f"guard outside the oracle's fragment: {guard}")
    if names == {"id"}:
        return frozenset(i for i in IDS if guard.evaluate({"id": i, "score": Fraction(0)}) is True), None
    if names == {"score"}:
        return None, frozenset(s for s in SCORES if guard.evaluate({"id": 0, "score": s}) is True)
    return None, None


def _meet(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def tagging_walk(sttr) -> list[list]:
    """Per list position, the satisfying sets of the tagging guards.

    The last entry stands for every later position (the walk's final
    state loops on itself).
    """
    by_state: dict = {}
    for rule in sttr.rules:
        if rule.ctor == "elem":
            by_state.setdefault(rule.state, []).append(rule)
    walk, state, seen = [], sttr.initial, set()
    while state not in seen:
        seen.add(state)
        tags, nxt = [], None
        for rule in by_state[state]:
            out = rule.output
            assert isinstance(out, OutNode) and isinstance(out.children[1], OutApply)
            nxt = out.children[1].state
            first = out.children[0]
            if isinstance(first, OutNode) and first.ctor == "tag":
                tags.append(_satisfying(rule.guard))
        walk.append(tags)
        state = nxt
    return walk


def oracle_conflict(walk_a: list, walk_b: list) -> bool:
    for pos in range(max(len(walk_a), len(walk_b))):
        for ids_a, scores_a in walk_a[min(pos, len(walk_a) - 1)]:
            for ids_b, scores_b in walk_b[min(pos, len(walk_b) - 1)]:
                ids, scores = _meet(ids_a, ids_b), _meet(scores_a, scores_b)
                if (ids is None or ids) and (scores is None or scores):
                    return True
    return False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--taggers", type=int, default=40)
    args = parser.parse_args(argv)

    solver = Solver()
    pool = [make_tagger(seed, solver)[0] for seed in range(args.taggers)]
    walks = [tagging_walk(t.sttr) for t in pool]
    verdicts = {
        f"{a}-{b}": oracle_conflict(walks[a], walks[b])
        for a, b in combinations(range(args.taggers), 2)
    }
    path = os.path.join(_HERE, "data", "conflict_verdicts.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"taggers": args.taggers, "conflict": verdicts}, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}: {sum(verdicts.values())} conflicts of {len(verdicts)} pairs")

    no_tags, double = no_tags_language(solver), double_tag_language(solver)
    disagree = 0
    for key, expected in verdicts.items():
        a, b = map(int, key.split("-"))
        restricted = pool[a].compose(pool[b]).restrict(no_tags).restrict_out(double)
        if (not restricted.is_empty()) != expected:
            disagree += 1
            print(f"program disagrees with the oracle on pair {key}", file=sys.stderr)
    print(f"program agrees with the oracle on {len(verdicts) - disagree} of {len(verdicts)} pairs")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
