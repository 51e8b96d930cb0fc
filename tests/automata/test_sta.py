"""Unit tests for STA structure, semantics, normalization, and emptiness."""

import pytest

from repro.automata import (
    STA,
    AutomatonError,
    Language,
    STARule,
    accepts,
    accepts_all,
    is_empty,
    normalize,
    rule,
    witness,
)
from repro.smt import (
    INT,
    STRING,
    Solver,
    mk_eq,
    mk_gt,
    mk_int,
    mk_lt,
    mk_mod,
    mk_ne,
    mk_str,
    mk_var,
)
from repro.trees import make_tree_type, node

BT = make_tree_type("BT", [("i", INT)], {"L": 0, "N": 2})
i = mk_var("i", INT)

# Paper Example 2.
EX2_RULES = (
    rule("p", "L", mk_gt(i, mk_int(0))),
    rule("p", "N", None, [["p"], ["p"]]),
    rule("o", "L", mk_eq(mk_mod(i, 2), mk_int(1))),
    rule("o", "N", None, [["o"], ["o"]]),
    rule("q", "N", None, [[], ["p", "o"]]),
)
EX2 = STA(BT, EX2_RULES)


@pytest.fixture()
def solver():
    return Solver()


class TestStructure:
    def test_states(self):
        assert EX2.states == {"p", "o", "q"}

    def test_rules_from(self):
        assert len(EX2.rules_from("p")) == 2
        assert len(EX2.rules_from("p", "L")) == 1
        assert EX2.rules_from("p", "missing") == []

    def test_rules_from_state_keeps_rule_order(self):
        interleaved = STA(BT, (EX2_RULES[0], EX2_RULES[2], EX2_RULES[1], EX2_RULES[3]))
        for state in ("p", "o"):
            expected = [r for r in interleaved.rules if r.state == state]
            assert interleaved.rules_from(state) == expected
        assert interleaved.rules_from("missing") == []

    def test_rank_mismatch_rejected(self):
        with pytest.raises(AutomatonError):
            STA(BT, (rule("x", "N", None, [["x"]]),))

    def test_unknown_constructor_rejected(self):
        from repro.trees import TreeTypeError

        with pytest.raises(TreeTypeError):
            STA(BT, (rule("x", "Z"),))

    def test_map_states(self):
        renamed = EX2.map_states(lambda s: ("t", s))
        assert ("t", "p") in renamed.states
        assert "p" not in renamed.states

    def test_size(self):
        assert EX2.size() == (3, 5)


class TestSemantics:
    def test_leaf_guard(self, solver):
        assert accepts(EX2, "p", node("L", 1), solver)
        assert not accepts(EX2, "p", node("L", 0), solver)

    def test_recursive(self, solver):
        t = node("N", 7, node("L", 2), node("L", 9))
        assert accepts(EX2, "p", t, solver)
        assert not accepts(EX2, "o", t, solver)  # 2 is even

    def test_alternation_conjunction(self, solver):
        # q requires the right subtree to be in BOTH p and o.
        good = node("N", 0, node("L", -1), node("L", 3))
        bad = node("N", 0, node("L", -1), node("L", 2))
        assert accepts(EX2, "q", good, solver)
        assert not accepts(EX2, "q", bad, solver)

    def test_no_rule_for_symbol(self, solver):
        # q has no rule for L (paper Example 2 remark).
        assert not accepts(EX2, "q", node("L", 1), solver)

    def test_empty_state_set_accepts_everything(self, solver):
        assert accepts_all(EX2, [], node("L", -100), solver)

    def test_attr_guard_on_root_only(self, solver):
        # The attribute of inner N nodes is unconstrained by p.
        t = node("N", -99, node("L", 1), node("L", 1))
        assert accepts(EX2, "p", t, solver)


class TestNormalize:
    def test_normalized_rules_have_singleton_lookahead(self, solver):
        norm = normalize(EX2, [["q"]], solver)
        for r in norm.sta.rules:
            assert all(len(l) == 1 for l in r.lookahead)

    def test_merged_state_language(self, solver):
        norm = normalize(EX2, [["p", "o"]], solver)
        merged = frozenset(["p", "o"])
        assert accepts(norm.sta, merged, node("L", 3), solver)
        assert not accepts(norm.sta, merged, node("L", 2), solver)
        assert not accepts(norm.sta, merged, node("L", -3), solver)

    def test_unsat_merges_dropped(self, solver):
        # p requires i > 0, this extra state requires i < 0: merged leaf
        # rules are unsatisfiable.
        sta = EX2.with_rules(
            [rule("neg", "L", mk_lt(i, mk_int(0))), rule("neg", "N", None, [["neg"], ["neg"]])]
        )
        norm = normalize(sta, [["p", "neg"]], solver)
        merged = frozenset(["p", "neg"])
        leaf_rules = norm.sta.rules_from(merged, "L")
        assert leaf_rules == []


class TestEmptiness:
    def test_nonempty_with_witness(self, solver):
        w = witness(EX2, ["q"], solver)
        assert w is not None and accepts(EX2, "q", w, solver)

    def test_empty_no_rules(self, solver):
        assert is_empty(EX2, ["nosuch"], solver)

    def test_empty_by_guards(self, solver):
        sta = STA(
            BT,
            (
                rule("z", "L", mk_lt(i, i)),  # unsatisfiable guard
                rule("z", "N", None, [["z"], ["z"]]),
            ),
        )
        assert is_empty(sta, ["z"], solver)

    def test_intersection_emptiness_via_sets(self, solver):
        # odd and even leaves: L^{o} with L^{e} is empty at the leaf.
        sta = EX2.with_rules(
            [
                rule("e", "L", mk_eq(mk_mod(i, 2), mk_int(0))),
                rule("e", "N", None, [["e"], ["e"]]),
            ]
        )
        # Not empty: N nodes can mix? No: both require all leaves odd/even.
        assert is_empty(sta, ["o", "e"], solver)

    def test_witness_respects_guard_model(self, solver):
        sta = STA(BT, (rule("big", "L", mk_gt(i, mk_int(100))),))
        w = witness(sta, ["big"], solver)
        assert w.ctor == "L" and w.attrs[0] > 100


class TestLanguageFacade:
    def test_universal_and_empty(self):
        assert Language.universal(BT).accepts(node("L", 5))
        assert Language.empty(BT).is_empty()

    def test_witness_none_for_empty(self):
        assert Language.empty(BT).witness() is None

    def test_string_type_guards(self):
        HT = make_tree_type("H", [("tag", STRING)], {"nil": 0, "n": 1})
        tag = mk_var("tag", STRING)
        lang = Language.build(
            HT,
            "s",
            [
                rule("s", "n", mk_ne(tag, mk_str("script")), [["s"]]),
                rule("s", "nil", mk_eq(tag, mk_str(""))),
            ],
        )
        assert lang.accepts(node("n", "div", node("nil", "")))
        assert not lang.accepts(node("n", "script", node("nil", "")))
