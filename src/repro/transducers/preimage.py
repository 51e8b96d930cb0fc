"""Inverse images of tree languages under STTRs — the ``Look`` procedure.

This module is the shared engine behind three operations:

* the user-facing ``pre-image t l`` of Fast (Section 3.5);
* the lookahead-language construction inside STTR composition
  (Section 4): the composed rule's lookahead entries ``p.q`` are states
  of the automaton built here with the target ``M = d(T)``;
* ``domain`` constraints for deleted subtrees (``R = {}`` degenerates to
  the domain automaton of ``S`` at ``p``).

A *pre-image state* ``("pre", p, R)`` (``p`` a state of the transducer
``S``, ``R`` a set of states of the target STA ``M`` over ``S``'s output
type) accepts the trees ``t`` such that some output in ``T^p_S(t)`` is
accepted by every state in ``R`` — with the caveat of paper Lemma 3:
when ``S`` duplicates subtrees *and* is not single-valued the copies are
constrained independently, yielding the same over-approximation as
``T_{S.T}`` in Theorem 4.

``look`` walks an output term of ``S`` (paper procedure ``Look``),
simultaneously simulating every ``M``-state in ``R``:

* at ``q~(y_i)`` it records the pre-image state ``("pre", q, R)`` as a
  lookahead constraint on child ``i`` (Look line 1);
* at ``g[e(x)](u1..un)`` it picks one ``M``-rule per state in ``R``
  (this inlines the paper's normalization of ``d(T)``), conjoins the
  rule guards *instantiated with the output attribute expressions*
  ``e(x)`` — this is where cross-level label dependencies such as paper
  Example 8 become unsatisfiable — and folds over the children
  (Look lines 2a-2d).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from ..automata.language import Language
from ..automata.sta import STA, STARule, State
from ..guard.budget import tick as _tick
from ..obs import config as obs_config
from ..obs import metrics as obs_metrics
from ..obs import provenance as prov
from ..obs import tracer as obs_tracer
from ..smt import builders as smt
from ..smt.solver import Solver
from ..smt.terms import Term
from .output_terms import OutApply, OutNode, OutputTerm
from .sttr import STTR

_OBS_STATES = obs_metrics.counter("preimage.states_built")
_OBS_RULES = obs_metrics.counter("preimage.rules_built")

#: Lookahead tuples: one frozenset of result-automaton states per child.
LookTuple = tuple[frozenset, ...]


def embed_lookahead(s: State) -> State:
    """The name of ``S``'s lookahead state ``s`` in a built automaton.

    ``("la", 1, s)``, except that an embedded state ``("la", k, x)`` is
    embedded again as ``("la", k + 1, x)``: a composition chain re-embeds
    its lookahead once per fold, and the names stay flat instead of
    nesting once per fold.
    """
    if isinstance(s, tuple) and len(s) == 3 and s[0] == "la" and isinstance(s[1], int):
        return ("la", s[1] + 1, s[2])
    return ("la", 1, s)


class PreimageBuilder:
    """Lazily builds the pre-image automaton of ``S`` against target ``M``.

    The result automaton's states are :func:`embed_lookahead` names for
    states of ``S``'s own lookahead STA (whose rules are embedded
    unchanged) and ``("pre", p, R)`` for pre-image states; rules are
    created on demand by :meth:`state` / :meth:`ensure`.
    """

    def __init__(self, sttr: STTR, target: STA, solver: Solver) -> None:
        if target.tree_type != sttr.output_type:
            raise ValueError(
                f"target automaton runs over {target.tree_type.name}, "
                f"expected the transducer's output type {sttr.output_type.name}"
            )
        self.sttr = sttr
        self.target = target
        self.solver = solver
        self._rules: list[STARule] = [
            STARule(
                embed_lookahead(r.state),
                r.ctor,
                r.guard,
                tuple(frozenset(map(embed_lookahead, l)) for l in r.lookahead),
            )
            for r in sttr.lookahead_sta.rules
        ]
        self._built: set[State] = set()
        self._pending: list[tuple[State, frozenset]] = []
        # Output attribute fields of S = attribute fields of M's tree type.
        self._out_fields = [f.name for f in sttr.output_type.fields]

    # -- state management ------------------------------------------------------

    def state(self, p: State, targets: Iterable[State]) -> State:
        """Intern the pre-image state ``("pre", p, frozenset(targets))``."""
        s = ("pre", p, frozenset(targets))
        if s not in self._built:
            self._built.add(s)
            self._pending.append((p, s[2]))
            if obs_config.ENABLED:
                _OBS_STATES.inc()
        return s

    def ensure(self) -> None:
        """Build rules for all pending pre-image states (to a fixpoint)."""
        while self._pending:
            p, targets = self._pending.pop()
            _tick(kind="preimage.state")
            source = ("pre", p, targets)
            for rule in self.sttr.rules_from(p):
                rank = len(rule.lookahead)
                empty: LookTuple = tuple(frozenset() for _ in range(rank))
                for guard, extra in self.look(rule.guard, empty, targets, rule.output):
                    lookahead = tuple(
                        frozenset(map(embed_lookahead, l)) | e
                        for l, e in zip(rule.lookahead, extra)
                    )
                    self._rules.append(STARule(source, rule.ctor, guard, lookahead))
                    if obs_config.ENABLED:
                        _OBS_RULES.inc()

    def sta(self) -> STA:
        """The automaton built so far (call :meth:`ensure` first)."""
        return STA(self.sttr.input_type, tuple(self._rules))

    # -- the Look procedure ------------------------------------------------------

    def look(
        self,
        guard: Term,
        lookahead: LookTuple,
        targets: frozenset,
        term: OutputTerm,
    ) -> Iterator[tuple[Term, LookTuple]]:
        """All ways the ``M``-states in ``targets`` can accept ``term``.

        Yields ``(guard', lookahead')`` pairs: the accumulated label
        constraint and the child lookahead extended with pre-image states.
        """
        if isinstance(term, OutApply):
            s = self.state(term.state, targets)
            i = term.index
            extended = lookahead[:i] + (lookahead[i] | {s},) + lookahead[i + 1 :]
            yield guard, extended
            return
        if not isinstance(term, OutNode):
            raise TypeError(f"look expects a pure output term, got {term!r}")

        attr_map = dict(zip(self._out_fields, term.attr_exprs))
        choices = [
            self.target.rules_from(q, term.ctor)
            for q in sorted(targets, key=repr)
        ]
        if any(not c for c in choices):
            return  # some target state cannot read this constructor
        for combo in itertools.product(*choices):
            conj = guard
            ok = True
            for m_rule in combo:
                conj = smt.mk_and(conj, m_rule.guard.substitute(attr_map))
                if conj == smt.FALSE:
                    ok = False
                    break
            if not ok or not self.solver.is_sat(conj):
                continue
            child_targets = [
                frozenset().union(*(m.lookahead[i] for m in combo))
                if combo
                else frozenset()
                for i in range(len(term.children))
            ]
            yield from self._fold_children(
                conj, lookahead, term.children, child_targets, 0
            )

    def _fold_children(
        self,
        guard: Term,
        lookahead: LookTuple,
        children: tuple[OutputTerm, ...],
        child_targets: list[frozenset],
        idx: int,
    ) -> Iterator[tuple[Term, LookTuple]]:
        if idx == len(children):
            yield guard, lookahead
            return
        for g2, l2 in self.look(guard, lookahead, child_targets[idx], children[idx]):
            yield from self._fold_children(g2, l2, children, child_targets, idx + 1)


def preimage(sttr: STTR, lang: Language, solver: Solver | None = None) -> Language:
    """Fast's ``pre-image t l``: inputs whose output can land in ``lang``.

    Exact when ``sttr`` is single-valued or never duplicates children
    feeding a nondeterministic choice; an over-approximation otherwise
    (paper Theorem 4, since pre-image factors through composition).
    """
    solver = solver or lang.solver
    with obs_tracer.span("preimage", trans=sttr.name) as sp:
        with prov.step("preimage", f"pre-image of {sttr.name}") as st:
            builder = PreimageBuilder(sttr, lang.sta, solver)
            root = builder.state(sttr.initial, [lang.state])
            builder.ensure()
            sta = builder.sta()
            st.set(states=len(builder._built), rules=len(sta.rules))
        sp.set(states=len(builder._built), rules=len(sta.rules))
    return Language(sta, root, solver)
