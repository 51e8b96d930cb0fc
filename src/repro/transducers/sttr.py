"""Symbolic tree transducers with regular lookahead (paper Definition 5).

An STTR rule ``(q, f, phi, lbar, t)`` fires at ``f[a](t1..tk)`` when the
guard ``phi(a)`` holds and every child ``ti`` is accepted by every state
in the lookahead set ``lbar[i]``; it then emits the output term ``t``
instantiated with ``x := a`` and the recursive transductions of the
children.

Design note (DESIGN.md): the paper's lookahead states live in the
transducer's own state space with semantics through the domain automaton
``d(T)``.  We carry an explicit *lookahead STA* instead: rule lookahead
sets reference its states, and :func:`repro.transducers.domain.domain_sta`
recombines both state spaces into the paper's ``d(T)``.  This keeps the
lookahead algebra of the composition algorithm (``lbar ⊎ Pbar``)
first-class and is semantically equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from ..errors import ReproError
from ..smt import builders as smt
from ..smt.terms import Term
from ..trees.types import TreeType
from ..automata.sta import STA
from .output_terms import (
    OutApply,
    OutNode,
    OutputTerm,
    TApp,
    is_linear as output_is_linear,
)

State = Hashable


class TransducerError(ReproError):
    """Structural errors in transducer construction."""


@dataclass(frozen=True)
class STTRRule:
    """``(state, ctor, guard, lookahead, output)`` — see Definition 5."""

    state: State
    ctor: str
    guard: Term
    lookahead: tuple[frozenset[State], ...]
    output: OutputTerm

    def is_linear(self) -> bool:
        return output_is_linear(self.output)

    def __repr__(self) -> str:
        las = ", ".join("{" + ",".join(map(str, l)) + "}" for l in self.lookahead)
        return (
            f"{self.state} --{self.ctor}[{self.guard!r}] given ({las})"
            f"--> {self.output!r}"
        )


def trule(
    state: State,
    ctor: str,
    output: OutputTerm,
    guard: Term | None = None,
    lookahead: Iterable[Iterable[State]] | None = None,
    rank: int | None = None,
) -> STTRRule:
    """Rule builder; lookahead defaults to no constraints."""
    if lookahead is None:
        if rank is None:
            raise TransducerError("trule needs either lookahead or rank")
        lookahead = [() for _ in range(rank)]
    return STTRRule(
        state,
        ctor,
        smt.TRUE if guard is None else guard,
        tuple(frozenset(l) for l in lookahead),
        output,
    )


@dataclass(frozen=True)
class STTR:
    """A symbolic tree transducer with regular lookahead.

    ``lookahead_sta`` interprets the states occurring in rule lookahead
    sets; it runs over the *input* tree type.
    """

    name: str
    input_type: TreeType
    output_type: TreeType
    initial: State
    rules: tuple[STTRRule, ...]
    lookahead_sta: STA = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.lookahead_sta is None:
            object.__setattr__(
                self, "lookahead_sta", STA(self.input_type, ())
            )
        if self.lookahead_sta.tree_type != self.input_type:
            raise TransducerError(
                f"lookahead automaton of {self.name} runs over "
                f"{self.lookahead_sta.tree_type.name}, expected "
                f"{self.input_type.name}"
            )
        for r in self.rules:
            self._check_rule(r)
        index: dict[tuple[State, str], list[STTRRule]] = {}
        by_state: dict[State, list[STTRRule]] = {}
        for r in self.rules:
            index.setdefault((r.state, r.ctor), []).append(r)
            by_state.setdefault(r.state, []).append(r)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_by_state", by_state)

    def _check_rule(self, r: STTRRule) -> None:
        ctor = self.input_type.constructor(r.ctor)
        if len(r.lookahead) != ctor.rank:
            raise TransducerError(
                f"{self.name}: rule {r!r} lookahead length mismatch "
                f"(rank {ctor.rank})"
            )
        # Lookahead states need not have rules in the lookahead automaton:
        # a rule-less state simply accepts no tree (its language is empty),
        # which arises naturally for pre-image states built by composition.
        self._check_output(r.output, ctor.rank)

    def _check_output(self, term: OutputTerm, rank: int) -> None:
        if isinstance(term, OutApply):
            if not 0 <= term.index < rank:
                raise TransducerError(
                    f"{self.name}: output references child y{term.index} "
                    f"but the input has rank {rank}"
                )
            return
        if isinstance(term, OutNode):
            out_ctor = self.output_type.constructor(term.ctor)
            if len(term.children) != out_ctor.rank:
                raise TransducerError(
                    f"{self.name}: output node {term.ctor} has rank "
                    f"{out_ctor.rank}, got {len(term.children)} children"
                )
            fields = self.output_type.fields
            if len(term.attr_exprs) != len(fields):
                raise TransducerError(
                    f"{self.name}: output node {term.ctor} needs "
                    f"{len(fields)} attribute expression(s)"
                )
            in_fields = {f.name: f.sort for f in self.input_type.fields}
            for f, e in zip(fields, term.attr_exprs):
                if e.sort != f.sort:
                    raise TransducerError(
                        f"{self.name}: attribute {f.name} of {term.ctor} "
                        f"expects sort {f.sort}, expression has {e.sort}"
                    )
                for v in e.free_vars():
                    if in_fields.get(v.name) != v.var_sort:
                        raise TransducerError(
                            f"{self.name}: output attribute expression "
                            f"{e!r} references {v.name}, which is not an "
                            f"input attribute field"
                        )
            for c in term.children:
                self._check_output(c, rank)
            return
        if isinstance(term, TApp):
            raise TransducerError(
                f"{self.name}: extended term {term!r} cannot appear in a "
                f"final transducer rule"
            )
        raise TransducerError(f"{self.name}: bad output term {term!r}")

    # -- queries ------------------------------------------------------------

    @property
    def states(self) -> frozenset[State]:
        out: set[State] = {self.initial}
        for r in self.rules:
            out.add(r.state)
            for t in r.output.iter_terms():
                if isinstance(t, OutApply):
                    out.add(t.state)
        return frozenset(out)

    def rules_from(self, state: State, ctor: str | None = None) -> list[STTRRule]:
        if ctor is not None:
            return self._index.get((state, ctor), [])  # type: ignore[attr-defined]
        return self._by_state.get(state, [])  # type: ignore[attr-defined]

    def size(self) -> tuple[int, int]:
        """(states, rules) — the measure used in the paper's Section 5.2."""
        return len(self.states), len(self.rules)

    def is_linear(self) -> bool:
        """No rule duplicates a child (Definition 5)."""
        return all(r.is_linear() for r in self.rules)
