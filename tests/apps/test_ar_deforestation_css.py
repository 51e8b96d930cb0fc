"""Tests for the AR, deforestation, program-analysis, and CSS case studies."""

import itertools

import pytest

from repro.smt import Solver
from repro.apps.ar import (
    check_conflict,
    decode_world,
    double_tag_language,
    make_tagger,
    no_tags_language,
    world_tree,
)
from repro.apps.css import (
    CssParseError,
    check_unreadable_text,
    compile_css,
    element,
    parse_css,
    same_color_language,
)
from repro.apps.deforestation import (
    composed_n,
    encode_list,
    ILIST,
    map_caesar,
    measure,
    random_list,
    reference_caesar,
)
from repro.apps.program_analysis import analyze_map_filter
from repro.trees.unranked import decode_list


@pytest.fixture(scope="module")
def solver():
    return Solver()


class TestTaggers:
    def test_tagger_properties(self, solver):
        for seed in range(8):
            tagger, spec = make_tagger(seed, solver)
            assert 1 <= spec.states <= 95
            assert tagger.is_linear()
            # at most one tag per element on a concrete world
            w = world_tree([(i, 0.0, 0) for i in range(12)])
            out = tagger.apply_one(w)
            assert out is not None
            assert all(count <= 1 for _, count in decode_world(out))

    def test_tagger_deterministic(self, solver):
        tagger, _ = make_tagger(3, solver)
        assert tagger.is_deterministic()

    def test_languages(self, solver):
        no_tags = no_tags_language(solver)
        double = double_tag_language(solver)
        assert no_tags.accepts(world_tree([(1, 0.0, 0), (2, 0.0, 0)]))
        assert not no_tags.accepts(world_tree([(1, 0.0, 1)]))
        assert double.accepts(world_tree([(1, 0.0, 2)]))
        assert not double.accepts(world_tree([(1, 0.0, 1)]))
        assert no_tags.size()[0] == 2  # "3 states" incl. the shared nil/elem split
        assert double.size()[0] == 3

    def test_self_conflict(self, solver):
        # A tagger that certainly tags something conflicts with itself.
        for seed in range(20):
            tagger, spec = make_tagger(seed, solver)
            r = check_conflict(tagger, tagger, want_witness=True)
            if r.conflict:
                # the witness world really is double-tagged by the pipeline
                mid = tagger.apply_one(r.witness)
                out = tagger.apply_one(mid)
                assert any(c >= 2 for _, c in decode_world(out))
                return
        pytest.fail("no self-conflicting tagger in 20 seeds")

    def test_conflict_witness_consistency(self, solver):
        t1, _ = make_tagger(1, solver)
        t2, _ = make_tagger(2, solver)
        r = check_conflict(t1, t2, want_witness=True)
        if r.conflict:
            out = t2.apply_one(t1.apply_one(r.witness))
            assert any(c >= 2 for _, c in decode_world(out))

    def test_disjoint_taggers_do_not_conflict(self, solver):
        # Hand-build taggers with disjoint guards via distinct mod classes.
        from repro.smt import mk_eq, mk_int, mk_mod, mk_var
        from repro.smt.sorts import INT
        from repro.transducers import STTR, Transducer, trule
        from repro.apps.ar.taggers import WORLD, _copy_elem, _tag_elem, _ATTR_VARS
        from repro.transducers import OutNode

        def simple_tagger(residue):
            ident = mk_var("id", INT)
            guard = mk_eq(mk_mod(ident, 2), mk_int(residue))
            from repro.smt import mk_not

            rules = (
                trule("s0", "elem", _tag_elem("s0", "s0", 7), guard=guard, rank=2),
                trule("s0", "elem", _copy_elem("s0", "s0"), guard=mk_not(guard), rank=2),
                trule("s0", "nil", OutNode("nil", _ATTR_VARS, ()), rank=0),
                trule("copy", "nil", OutNode("nil", _ATTR_VARS, ()), rank=0),
                trule("copy", "tag", OutNode("tag", _ATTR_VARS, (OutNode("nil", _ATTR_VARS, ()),)), rank=1),
            )
            # copy state must handle all constructors
            from repro.transducers import OutApply

            rules = rules[:4] + (
                trule(
                    "copy",
                    "tag",
                    OutNode("tag", _ATTR_VARS, (OutApply("copy", 0),)),
                    rank=1,
                ),
                trule(
                    "copy",
                    "elem",
                    OutNode("elem", _ATTR_VARS, (OutApply("copy", 0), OutApply("copy", 1))),
                    rank=2,
                ),
            )
            return Transducer(STTR(f"mod{residue}", WORLD, WORLD, "s0", rules), solver)

        even = simple_tagger(0)
        odd = simple_tagger(1)
        assert check_conflict(even, odd).conflict is False
        assert check_conflict(even, even).conflict is True


class TestDeforestation:
    def test_composed_semantics(self, solver):
        values = random_list(64, seed=1)
        for n in (1, 2, 5):
            comp = composed_n(n, solver)
            out = comp.apply_one(encode_list(values, ILIST))
            assert decode_list(out) == reference_caesar(values, n)

    def test_composed_stays_small(self, solver):
        # Deforestation only pays off if the composed transducer does not
        # blow up: size must stay constant in n.
        s1 = composed_n(2, solver).size()
        s2 = composed_n(10, solver).size()
        assert s1 == s2

    def test_long_chain_composes(self, solver):
        # Pair state names nested once per fold used to overflow the
        # stack in hashing and comparison near 1,000 folds.
        values = [0, 7, 25, 13, 999]
        comp = composed_n(1200, solver)
        out = comp.apply_one(encode_list(values, ILIST))
        assert decode_list(out) == reference_caesar(values, 1200)

    def test_label_expression_simplifies(self, solver):
        comp = composed_n(12, solver)
        rule = comp.sttr.rules_from(comp.sttr.initial, "cons")[0]
        expr = rule.output.attr_exprs[0]
        # ((...((i+5)%26 + 5)%26 ...)) collapses to (i + 60) % 26
        from repro.smt import Mod

        assert isinstance(expr, Mod)
        assert len(list(expr.iter_subterms())) <= 5

    def test_measure_checks_outputs(self):
        sample = measure(3, random_list(32, seed=2))
        assert sample.compositions == 3
        assert sample.deforested_seconds > 0 and sample.naive_seconds > 0


class TestProgramAnalysis:
    def test_figure8(self, solver):
        result = analyze_map_filter(solver)
        assert result.comp2_always_empties
        assert result.comp1_can_produce_nonempty
        # paper: "the whole analysis can be done in less than 10 ms";
        # allow headroom for slow CI machines.
        assert result.seconds < 2.0


class TestCss:
    def test_parse(self):
        prog = parse_css("div p { color: red; } * { background-color: white; }")
        assert len(prog.rules) == 2
        assert prog.rules[0].selector.chain == ("div", "p")
        assert prog.mentioned_tags() == {"div", "p"}

    def test_parse_errors(self):
        with pytest.raises(CssParseError):
            parse_css("div > p { color: red; }")
        with pytest.raises(CssParseError):
            parse_css("p { color red }")

    def test_cascade_order(self, solver):
        prog = parse_css("p { color: red; } p { color: blue; }")
        trans = compile_css(prog, solver)
        out = trans.apply_one(element("p"))
        assert out.attrs == ("p", "blue", "")

    def test_descendant_selector(self, solver):
        prog = parse_css("div p { color: red; }")
        trans = compile_css(prog, solver)
        inside = trans.apply_one(element("div", [element("p")]))
        outside = trans.apply_one(element("p"))
        assert inside.children[0].attrs[1] == "red"
        assert outside.attrs[1] == ""

    def test_deep_descendant(self, solver):
        prog = parse_css("div p { color: red; }")
        trans = compile_css(prog, solver)
        doc = element("div", [element("span", [element("p")])])
        out = trans.apply_one(doc)
        assert out.children[0].children[0].attrs[1] == "red"

    def test_sibling_context_does_not_leak(self, solver):
        prog = parse_css("div p { color: red; }")
        trans = compile_css(prog, solver)
        # p is a SIBLING of div, not a descendant
        doc_forest = element("div")
        from repro.trees import Tree

        p_sib = Tree("node", ("p", "", ""), (Tree("nil", ("", "", "")), Tree("nil", ("", "", ""))))
        doc = Tree("node", ("div", "", ""), (Tree("nil", ("", "", "")), p_sib))
        out = trans.apply_one(doc)
        assert out.children[1].attrs[1] == ""

    def test_safe_program(self, solver):
        prog = parse_css("p { color: black; } p { background-color: white; }")
        assert check_unreadable_text(prog, solver).safe

    def test_unsafe_program_with_witness(self, solver):
        prog = parse_css("div p { color: black; } p { background-color: black; }")
        r = check_unreadable_text(prog, solver)
        assert not r.safe
        # the witness, styled, really contains black-on-black
        trans = compile_css(prog, solver)
        styled = trans.apply_one(r.bad_input)
        assert any(
            n.ctor == "node" and n.attrs[1] == "black" and n.attrs[2] == "black"
            for n in styled.iter_nodes()
        )

    def test_same_color_symbolic_check(self, solver):
        # color: x; background-color: x for the same value is caught even
        # though the value space is infinite (the paper's key point).
        prog = parse_css("p { color: teal; } div p { background-color: teal; }")
        from repro.apps.css import unstyled_language

        trans = compile_css(prog, solver)
        bad = trans.pre_image(same_color_language(solver)).intersect(
            unstyled_language(solver)
        )
        witness = bad.witness()
        assert witness is not None
