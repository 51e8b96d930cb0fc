"""Property: the compiled tier is observationally identical to the interpreter.

Random STTRs (nondeterministic rules, guards, lookahead, duplication,
deletion, child swaps) over random trees must produce the *same output
list* (same order), the same truncation flag, and the same budget step
charges through :func:`repro.exec.compiled.run_compiled_checked` as
through :func:`repro.transducers.run.run_checked`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import STA, rule
from repro.exec.compiled import CompiledSTTR, run_compiled_checked
from repro.guard import Budget, scope
from repro.smt import INT, mk_add, mk_eq, mk_gt, mk_int, mk_mod, mk_mul, mk_not, mk_var
from repro.transducers import OutApply, OutNode, STTR, Transducer, run_checked, trule
from repro.transducers.output_terms import TApp
from repro.transducers.run import TransductionError
from repro.trees import make_tree_type, node

ET = make_tree_type("ET", [("x", INT)], {"L": 0, "U": 1, "B": 2})
x = mk_var("x", INT)

#: Guard pool; ``None`` means ``true`` (via ``trule``).
GUARDS = (
    None,
    mk_gt(x, mk_int(0)),
    mk_eq(x, mk_int(0)),
    mk_gt(mk_int(2), x),
)

#: Lookahead automaton: state ``a`` accepts trees whose leaves are all > -1.
LA = STA(
    ET,
    (
        rule("a", "L", mk_gt(x, mk_int(-1))),
        rule("a", "U", None, lookahead=[["a"]]),
        rule("a", "B", None, lookahead=[["a"], ["a"]]),
    ),
)

STATES = ("p", "q")

ATTR_EXPRS = (x, mk_add(x, mk_int(1)))


def _outputs_for(ctor, draw, states):
    """Draw one output term legal for ``ctor``'s rank."""
    s = draw(st.sampled_from(states))
    s2 = draw(st.sampled_from(states))
    e = draw(st.sampled_from(ATTR_EXPRS))
    if ctor == "L":
        return OutNode("L", (e,), ())
    if ctor == "U":
        return draw(
            st.sampled_from(
                [
                    OutApply(s, 0),  # copy the transformed child
                    OutNode("U", (e,), (OutApply(s, 0),)),
                    OutNode("L", (e,), ()),  # delete the child
                    # duplication: same child in two states
                    OutNode("B", (x,), (OutApply(s, 0), OutApply(s2, 0))),
                ]
            )
        )
    return draw(
        st.sampled_from(
            [
                OutApply(s, 0),
                OutApply(s, 1),
                OutNode("B", (e,), (OutApply(s, 0), OutApply(s2, 1))),
                OutNode("B", (x,), (OutApply(s, 1), OutApply(s2, 0))),  # swap
                OutNode("U", (e,), (OutApply(s, 0),)),  # drop one child
            ]
        )
    )


RANK = {"L": 0, "U": 1, "B": 2}


@st.composite
def sttrs(draw):
    n_rules = draw(st.integers(min_value=1, max_value=8))
    rules = []
    for _ in range(n_rules):
        state = draw(st.sampled_from(STATES))
        ctor = draw(st.sampled_from(("L", "U", "B")))
        guard = draw(st.sampled_from(GUARDS))
        la = [
            draw(st.sampled_from([(), ("a",)])) for _ in range(RANK[ctor])
        ]
        rules.append(
            trule(
                state,
                ctor,
                _outputs_for(ctor, draw, STATES),
                guard=guard,
                lookahead=la,
            )
        )
    return STTR("rand", ET, ET, "p", tuple(rules), lookahead_sta=LA)


attrs = st.integers(min_value=-2, max_value=3)
trees = st.recursive(
    attrs.map(lambda v: node("L", v)),
    lambda kids: st.one_of(
        st.tuples(attrs, kids).map(lambda t: node("U", t[0], t[1])),
        st.tuples(attrs, kids, kids).map(lambda t: node("B", t[0], t[1], t[2])),
    ),
    max_leaves=8,
)


@given(sttr=sttrs(), tree=trees, limit=st.sampled_from([None, 1, 2]))
@settings(max_examples=80, deadline=None)
def test_compiled_matches_interpreter(sttr, tree, limit):
    interp_budget = Budget()
    with scope(interp_budget):
        expected_outputs, expected_truncated = run_checked(
            sttr, tree, limit=limit
        )
    compiled = CompiledSTTR(sttr)
    compiled_budget = Budget()
    with scope(compiled_budget):
        actual_outputs, actual_truncated = run_compiled_checked(
            compiled, tree, limit=limit
        )
    assert actual_outputs == expected_outputs
    assert actual_truncated == expected_truncated
    # Same guard-budget charges: caching classification must not change
    # what a budget-governed run is billed.
    assert compiled_budget.steps == interp_budget.steps


def test_facade_routes_through_compiled_tier():
    sttr = STTR(
        "ft",
        ET,
        ET,
        "p",
        (
            trule("p", "L", OutNode("L", (mk_add(x, mk_int(1)),), ()), rank=0),
            trule(
                "p",
                "B",
                OutNode("B", (x,), (OutApply("p", 0), OutApply("p", 1))),
                rank=2,
            ),
        ),
    )
    t = node("B", 0, node("L", 1), node("L", 2))
    trans = Transducer(sttr)
    compiled_out = trans.apply(t)
    assert trans._compiled() is not None  # the generated form was built
    assert compiled_out == run_checked(sttr, t)[0]
    assert trans.apply_one(t) == compiled_out[0]


def _with_rules(sttr, rules):
    """``sttr`` with its rules swapped, skipping the constructor's checks."""
    object.__setattr__(sttr, "rules", rules)
    index = {}
    for r in rules:
        index.setdefault((r.state, r.ctor), []).append(r)
    object.__setattr__(sttr, "_index", index)
    return sttr


def test_extended_output_term_falls_back_to_interpreter():
    # Composition's extended terms never reach a final STTR (the
    # constructor rejects them), so plant one behind its back: the
    # generator must refuse it with TransductionError, and the facade
    # must run the interpreter instead.
    base = STTR(
        "ext",
        ET,
        ET,
        "p",
        (trule("p", "L", OutNode("L", (x,), ()), rank=0),),
    )
    extended = trule(
        "p", "U", TApp("p", OutNode("L", (x,), ())), rank=1
    )
    sttr = _with_rules(base, base.rules + (extended,))
    with pytest.raises(TransductionError):
        CompiledSTTR(sttr)
    trans = Transducer(sttr)
    leaf = node("L", 4)
    assert trans.apply(leaf) == [leaf]
    assert trans._compiled() is None
    # The interpreter, not generated code, reaches the extended term.
    with pytest.raises(TransductionError, match="extended term"):
        trans.apply(node("U", 1, leaf))


def _deep(t, p):
    """80 rounds of ``(t * 3 + 1) mod p``: a term of depth 241."""
    for _ in range(80):
        t = mk_mod(mk_add(mk_mul(t, mk_int(3)), mk_int(1)), p)
    return t


def test_deep_guard_and_attribute_expression():
    # ``_evaluate`` handles this depth; a 250-level parenthesised
    # Python expression would be a SyntaxError, so the generator must
    # not nest subterms.
    guard = mk_gt(_deep(x, 7), mk_int(2))
    attr = _deep(mk_add(x, mk_int(5)), 11)
    assert _depth(guard) > 240 and _depth(attr) > 240
    sttr = STTR(
        "deep",
        ET,
        ET,
        "p",
        (
            trule("p", "L", OutNode("L", (attr,), ()), guard=guard, rank=0),
            trule("p", "L", OutNode("L", (x,), ()), guard=mk_not(guard), rank=0),
            trule(
                "p",
                "U",
                OutNode("U", (attr,), (OutApply("p", 0),)),
                guard=guard,
                rank=1,
            ),
            trule("p", "U", OutApply("p", 0), guard=mk_not(guard), rank=1),
        ),
    )
    trans = Transducer(sttr)
    for v in range(-3, 12):
        t = node("U", v, node("U", v + 1, node("L", v + 2)))
        assert trans.apply(t) == run_checked(sttr, t)[0]
    assert trans._compiled() is not None


def _depth(term):
    memo = {}
    stack = [(term, False)]
    while stack:
        t, ready = stack.pop()
        if ready:
            memo[t] = 1 + max((memo[c] for c in t.children), default=0)
        elif t not in memo:
            stack.append((t, True))
            stack.extend((c, False) for c in t.children)
    return memo[term]


def test_short_attribute_tuple_matches_interpreter():
    # A node with fewer attributes than the input type has fields is
    # left to the interpreter's semantics: here no guard or expression
    # reads the missing field, so both runs succeed alike.
    sttr = STTR(
        "short",
        ET,
        ET,
        "p",
        (
            trule("p", "L", OutNode("L", (mk_int(7),), ()), rank=0),
            trule("p", "U", OutApply("p", 0), rank=1),
        ),
    )
    t = node("U", (), node("L", ()))
    assert Transducer(sttr).apply(t) == run_checked(sttr, t)[0] == [node("L", 7)]
