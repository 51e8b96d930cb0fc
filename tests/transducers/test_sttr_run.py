"""Tests for STTR structure, validation, and execution semantics (Def. 7)."""

import pytest

from repro.automata import STA, rule
from repro.smt import (
    INT,
    STRING,
    Solver,
    mk_add,
    mk_and,
    mk_eq,
    mk_gt,
    mk_int,
    mk_mod,
    mk_mul,
    mk_ne,
    mk_neg,
    mk_str,
    mk_var,
)
from repro.transducers import (
    OutApply,
    OutNode,
    STTR,
    Transducer,
    TransducerError,
    run,
    run_one,
    trule,
)
from repro.trees import decode_list, encode_list, list_tree_type, make_tree_type, node

BT = make_tree_type("BT", [("x", INT)], {"L": 0, "N": 2})
ILIST = list_tree_type("IList", INT)
x = mk_var("x", INT)
i = mk_var("i", INT)


def bt_ident(state="c"):
    return [
        trule(state, "L", OutNode("L", (x,), ()), rank=0),
        trule(
            state,
            "N",
            OutNode("N", (x,), (OutApply(state, 0), OutApply(state, 1))),
            rank=2,
        ),
    ]


class TestValidation:
    def test_rank_mismatch(self):
        with pytest.raises(TransducerError):
            STTR(
                "bad",
                BT,
                BT,
                "q",
                (trule("q", "N", OutNode("L", (x,), ()), lookahead=[[]]),),
            )

    def test_bad_child_index(self):
        with pytest.raises(TransducerError):
            STTR(
                "bad",
                BT,
                BT,
                "q",
                (trule("q", "L", OutApply("q", 0), rank=0),),
            )

    def test_output_ctor_rank(self):
        with pytest.raises(TransducerError):
            STTR(
                "bad",
                BT,
                BT,
                "q",
                (trule("q", "L", OutNode("N", (x,), ()), rank=0),),
            )

    def test_attr_expr_sort(self):
        with pytest.raises(TransducerError):
            STTR(
                "bad",
                BT,
                BT,
                "q",
                (trule("q", "L", OutNode("L", (mk_str("s"),), ()), rank=0),),
            )

    def test_attr_expr_unknown_var(self):
        foreign = mk_var("zz", INT)
        with pytest.raises(TransducerError):
            STTR(
                "bad",
                BT,
                BT,
                "q",
                (trule("q", "L", OutNode("L", (foreign,), ()), rank=0),),
            )

    def test_linear_detection(self):
        dup = STTR(
            "dup",
            BT,
            BT,
            "q",
            (
                trule("q", "L", OutNode("L", (x,), ()), rank=0),
                trule(
                    "q",
                    "N",
                    OutNode("N", (x,), (OutApply("q", 0), OutApply("q", 0))),
                    rank=2,
                ),
            ),
        )
        assert not dup.is_linear()
        ident = STTR("id", BT, BT, "c", tuple(bt_ident()))
        assert ident.is_linear()


class TestRulesFrom:
    def test_state_index_keeps_rule_order(self):
        a, b = bt_ident("a"), bt_ident("b")
        interleaved = (a[0], b[0], a[1], b[1])
        s = STTR("s", BT, BT, "a", interleaved)
        assert s.rules_from("a") == [a[0], a[1]]
        assert s.rules_from("b") == [b[0], b[1]]
        assert s.rules_from("missing") == []


class TestRun:
    def test_identity(self):
        ident = STTR("id", BT, BT, "c", tuple(bt_ident()))
        t = node("N", 1, node("L", 2), node("L", 3))
        assert run(ident, t) == [t]

    def test_label_transformation(self):
        # negate every label
        neg = STTR(
            "neg",
            BT,
            BT,
            "q",
            (
                trule("q", "L", OutNode("L", (mk_neg(x),), ()), rank=0),
                trule(
                    "q",
                    "N",
                    OutNode("N", (mk_neg(x),), (OutApply("q", 0), OutApply("q", 1))),
                    rank=2,
                ),
            ),
        )
        t = node("N", 1, node("L", 2), node("L", -3))
        assert run_one(neg, t) == node("N", -1, node("L", -2), node("L", 3))

    def test_guard_partitioning(self):
        # zero out odd labels, keep even
        q = "q"
        rules = (
            trule(q, "L", OutNode("L", (mk_int(0),), ()), guard=mk_eq(mk_mod(x, 2), mk_int(1)), rank=0),
            trule(q, "L", OutNode("L", (x,), ()), guard=mk_eq(mk_mod(x, 2), mk_int(0)), rank=0),
            trule(q, "N", OutNode("N", (x,), (OutApply(q, 0), OutApply(q, 1))), rank=2),
        )
        s = STTR("zero_odd", BT, BT, q, rules)
        t = node("N", 9, node("L", 2), node("L", 3))
        assert run_one(s, t) == node("N", 9, node("L", 2), node("L", 0))

    def test_partial_domain(self):
        only_pos = STTR(
            "pos",
            BT,
            BT,
            "q",
            (trule("q", "L", OutNode("L", (x,), ()), guard=mk_gt(x, mk_int(0)), rank=0),),
        )
        assert run(only_pos, node("L", 5)) == [node("L", 5)]
        assert run(only_pos, node("L", -5)) == []
        assert run_one(only_pos, node("L", -5)) is None

    def test_deletion(self):
        # keep only the right subtree of the root
        right = STTR(
            "right",
            BT,
            BT,
            "q",
            (
                trule("q", "N", OutApply("c", 1), rank=2),
                trule("q", "L", OutNode("L", (x,), ()), rank=0),
            )
            + tuple(bt_ident()),
        )
        t = node("N", 1, node("L", 2), node("L", 3))
        assert run_one(right, t) == node("L", 3)

    def test_duplication(self):
        dup = STTR(
            "dup",
            BT,
            BT,
            "q",
            (
                trule(
                    "q",
                    "L",
                    OutNode("N", (x,), (OutNode("L", (x,), ()), OutNode("L", (x,), ()))),
                    rank=0,
                ),
            ),
        )
        assert run_one(dup, node("L", 7)) == node("N", 7, node("L", 7), node("L", 7))

    def test_nondeterministic_outputs(self):
        # Example 9's f: leaves stay or become 5.
        f = STTR(
            "f",
            BT,
            BT,
            "q",
            (
                trule("q", "L", OutNode("L", (x,), ()), rank=0),
                trule("q", "L", OutNode("L", (mk_int(5),), ()), rank=0),
                trule("q", "N", OutNode("N", (x,), (OutApply("q", 0), OutApply("q", 1))), rank=2),
            ),
        )
        outs = run(f, node("N", 0, node("L", 1), node("L", 2)))
        assert len(outs) == 4  # each leaf independently kept or replaced

    def test_output_limit(self):
        f = STTR(
            "f",
            BT,
            BT,
            "q",
            (
                trule("q", "L", OutNode("L", (x,), ()), rank=0),
                trule("q", "L", OutNode("L", (mk_int(5),), ()), rank=0),
                trule("q", "N", OutNode("N", (x,), (OutApply("q", 0), OutApply("q", 1))), rank=2),
            ),
        )
        outs = run(f, node("N", 0, node("L", 1), node("L", 2)), limit=2)
        assert len(outs) == 2

    def test_lookahead_gating(self):
        # Example 5 flavor: negate root label if left child label is odd.
        odd_root = STA(
            BT,
            (
                rule("oddRoot", "N", mk_eq(mk_mod(x, 2), mk_int(1)), [[], []]),
                rule("oddRoot", "L", mk_eq(mk_mod(x, 2), mk_int(1))),
                rule("evenRoot", "N", mk_eq(mk_mod(x, 2), mk_int(0)), [[], []]),
                rule("evenRoot", "L", mk_eq(mk_mod(x, 2), mk_int(0))),
            ),
        )
        h = STTR(
            "h",
            BT,
            BT,
            "h",
            (
                trule(
                    "h",
                    "N",
                    OutNode("N", (mk_neg(x),), (OutApply("h", 0), OutApply("h", 1))),
                    lookahead=[["oddRoot"], []],
                ),
                trule(
                    "h",
                    "N",
                    OutNode("N", (x,), (OutApply("h", 0), OutApply("h", 1))),
                    lookahead=[["evenRoot"], []],
                ),
                trule("h", "L", OutNode("L", (x,), ()), rank=0),
            ),
            lookahead_sta=odd_root,
        )
        t = node("N", 10, node("L", 3), node("L", 4))
        assert run_one(h, t) == node("N", -10, node("L", 3), node("L", 4))
        t2 = node("N", 10, node("L", 2), node("L", 4))
        assert run_one(h, t2) == node("N", 10, node("L", 2), node("L", 4))

    def test_deep_list_no_recursion_error(self):
        # map (+1) over a 5000-element list: must not hit recursion limits.
        caesar = STTR(
            "inc",
            ILIST,
            ILIST,
            "m",
            (
                trule("m", "nil", OutNode("nil", (mk_int(0),), ()), rank=0),
                trule(
                    "m",
                    "cons",
                    OutNode("cons", (mk_add(i, mk_int(1)),), (OutApply("m", 0),)),
                    rank=1,
                ),
            ),
        )
        values = list(range(5000))
        out = run_one(caesar, encode_list(values, ILIST))
        assert decode_list(out) == [v + 1 for v in values]


class TestProperties:
    def test_deterministic(self):
        solver = Solver()
        ident = Transducer(STTR("id", BT, BT, "c", tuple(bt_ident())), solver)
        assert ident.is_deterministic()

    def test_nondeterministic_detected(self):
        solver = Solver()
        f = STTR(
            "f",
            BT,
            BT,
            "q",
            (
                trule("q", "L", OutNode("L", (x,), ()), rank=0),
                trule("q", "L", OutNode("L", (mk_int(5),), ()), rank=0),
            ),
        )
        assert not Transducer(f, solver).is_deterministic()

    def test_disjoint_guards_are_deterministic(self):
        solver = Solver()
        s = STTR(
            "s",
            BT,
            BT,
            "q",
            (
                trule("q", "L", OutNode("L", (x,), ()), guard=mk_gt(x, mk_int(0)), rank=0),
                trule("q", "L", OutNode("L", (mk_int(0),), ()), guard=mk_gt(mk_int(1), x), rank=0),
            ),
        )
        # guards overlap? x>0 and x<1 has no integer point: deterministic.
        assert Transducer(s, solver).is_deterministic()

    def test_disjoint_lookahead_deterministic(self):
        solver = Solver()
        la = STA(
            BT,
            (
                rule("oddL", "L", mk_eq(mk_mod(x, 2), mk_int(1))),
                rule("evenL", "L", mk_eq(mk_mod(x, 2), mk_int(0))),
            ),
        )
        s = STTR(
            "s",
            BT,
            BT,
            "q",
            (
                trule("q", "N", OutApply("q", 0), lookahead=[["oddL"], []]),
                trule("q", "N", OutApply("q", 1), lookahead=[["evenL"], []]),
                trule("q", "L", OutNode("L", (x,), ()), rank=0),
            ),
            lookahead_sta=la,
        )
        assert Transducer(s, solver).is_deterministic()
