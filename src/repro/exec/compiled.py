"""Code generation: an STTR becomes Python source, compiled once.

The reference interpreter (:mod:`repro.transducers.run`) walks every
guard and attribute-expression term at every task, runs the lookahead
automaton as a separate pass, and keys its side tables by ``id(node)``
and by state names (composed states are nested tuples, hashed afresh on
every lookup).  :class:`CompiledSTTR` instead turns one STTR into one
generated Python module, ``compile()``d once:

* **Classifiers.**  For each input constructor, one function evaluates
  every distinct guard of that constructor -- the transducer's and the
  lookahead STA's -- on a node's attribute tuple and returns the sign
  vector: a minterm id over those guards (paper Section 4).
* **A lookahead memo.**  ``(ctor, signs, child state-sets)`` fixes both
  the set of lookahead states accepting a node and, for every
  transducer state, the applicable rules.  The memo fills lazily (an
  observed vector is its own satisfiability proof) during the single
  post-order pass that numbers the distinct nodes.  Post-order numbers
  are topological, so there is no separate acceptance walk and no
  height map.
* **Integer states, flat slots.**  States are ``0 .. n_states - 1``;
  the result and taint of task ``(q, node i)`` live at
  ``i * n_states + q`` in flat lists.
* **Emitters.**  Each rule body is a function that builds the output
  ``Tree`` directly when every child result it reads is a singleton,
  and otherwise runs the interpreter's cross product (``run._cross``).

Terms lower to straight-line code with one local per distinct
(hash-consed) subterm, so a deep term never becomes a deeply nested
Python expression.  Every constant is bound in the module's namespace,
never written out with ``repr``.  Anything the generator cannot lower
raises :class:`~repro.transducers.run.TransductionError`.

:func:`run_compiled_checked` keeps the interpreter's observable
semantics exactly -- task discovery order, output order and dedup,
``limit``/probe truncation and taint propagation, one
``transducer.task`` budget tick per task, the provenance note -- and is
property-tested against it (``tests/exec/test_compiled_equivalence``).
"""

from __future__ import annotations

import gc
from typing import Callable, Optional

from ..guard.budget import current as _current_budget
from ..guard.budget import tick as _tick
from ..obs import config as obs_config
from ..obs import metrics as obs_metrics
from ..obs import provenance as prov
from ..smt.terms import (
    Add,
    And,
    Const,
    Eq,
    Le,
    Lt,
    Mod,
    Mul,
    Neg,
    Not,
    Or,
    Term,
    Var,
)
from ..transducers.output_terms import OutApply, OutNode, OutputTerm
from ..transducers.run import TransductionError, _cross, run_checked
from ..transducers.sttr import STTR, State
from ..trees.tree import Tree

_OBS_COMPILES = obs_metrics.counter("exec.compile")
_OBS_DISPATCH = obs_metrics.counter("exec.dispatch")
_OBS_DISPATCH_MEMO = obs_metrics.counter("exec.dispatch.table_fills")

#: Memo entries kept per transducer before the memo is flushed.
_MEMO_MAX = 1 << 16

#: Pass-1 stack entry: the node below it has all its children numbered.
_MARK = object()

_JOIN = {
    Add: " + ", Mul: " * ", And: " and ", Or: " or ",
    Lt: " < ", Le: " <= ", Eq: " == ",
}

#: ``emit(attrs, child indexes, results, probe) -> (outputs, capped?)``
Emit = Callable[[tuple, tuple, list, Optional[int]], tuple[list, bool]]


class _Module:
    """Generated source lines plus the namespace they run in."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.namespace: dict = {"Tree": Tree, "_cross": _cross}
        self._consts: dict[tuple, str] = {}

    def const(self, value) -> str:
        """The namespace name bound to ``value`` (one per distinct value)."""
        key = (value.__class__, value)
        name = self._consts.get(key)
        if name is None:
            name = f"k{len(self._consts)}"
            self._consts[key] = name
            self.namespace[name] = value
        return name


class _Body:
    """One generated function body: a local per distinct subterm."""

    def __init__(self, module: _Module, fields: dict[str, int]) -> None:
        self.module = module
        self.fields = fields
        self.lines: list[str] = []
        self._names: dict[Term, str] = {}
        #: Attribute positions read so far.
        self.read: set[int] = set()

    def local(self, expr: str) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {expr}")
        return name

    def term(self, term: Term) -> str:
        """Emit code computing ``term`` (iterative post-order over the DAG)."""
        names = self._names
        stack: list[tuple[Term, bool]] = [(term, False)]
        while stack:
            t, ready = stack.pop()
            if t in names:
                continue
            if not ready:
                stack.append((t, True))
                stack.extend((c, False) for c in t.children)
                continue
            names[t] = self._lower(t, [names[c] for c in t.children])
        return names[term]

    def _lower(self, t: Term, args: list[str]) -> str:
        cls = t.__class__
        if cls is Var:
            index = self.fields.get(t.name)
            if index is None:
                raise TransductionError(
                    f"cannot lower {t.name}: not an input attribute field"
                )
            self.read.add(index)
            return self.local(f"a[{index}]")
        if cls is Const:
            return self.module.const(t.value)
        if cls in _JOIN:
            if not args:  # the empty conjunction or disjunction
                return "True" if cls is And else "False"
            return self.local(_JOIN[cls].join(args))
        if cls is Neg:
            return self.local(f"-{args[0]}")
        if cls is Not:
            return self.local(f"not {args[0]}")
        if cls is Mod:
            return self.local(f"{args[0]} % {self.module.const(t.modulus)}")
        raise TransductionError(f"cannot lower term {t!r}")

    def define(self, header: str, tail: list[str]) -> None:
        self.module.lines.append(header)
        self.module.lines.extend("    " + line for line in self.lines + tail)


def _tuple(items: list[str]) -> str:
    if len(items) == 1:
        return f"({items[0]},)"
    return "(" + ", ".join(items) + ")"


class CompiledRule:
    """One rule after code generation."""

    __slots__ = ("rule", "state", "guard_slot", "lookahead", "targets", "emit")

    def __init__(self, rule, state: int, guard_slot, lookahead, targets) -> None:
        self.rule = rule
        self.state = state
        #: Index of the guard in its constructor's sign vector (None: true).
        self.guard_slot: Optional[int] = guard_slot
        #: Per child, the bit set of lookahead states it must be in.
        self.lookahead: tuple[int, ...] = lookahead
        #: ``(state id, child position)`` per child reference, in output
        #: term order (discovery and taint order depend on it).
        self.targets: tuple[tuple[int, int], ...] = targets
        self.emit: Emit = None  # type: ignore[assignment]  # set after exec


class CompiledSTTR:
    """An STTR turned into generated classifiers and emitters."""

    def __init__(self, sttr: STTR) -> None:
        self.sttr = sttr
        ids: dict[State, int] = {sttr.initial: 0}
        for r in sttr.rules:
            ids.setdefault(r.state, len(ids))
            for t in r.output.iter_terms():
                if isinstance(t, OutApply):
                    ids.setdefault(t.state, len(ids))
        self.state_ids = ids
        self.n_states = len(ids)
        sta = sttr.lookahead_sta
        la_bits: dict[State, int] = {}

        def bits(states) -> int:
            mask = 0
            for s in states:
                mask |= 1 << la_bits.setdefault(s, len(la_bits))
            return mask

        # Distinct non-trivial guards per constructor, transducer and
        # lookahead automaton together; hash-consing makes dict identity
        # term equality.
        guard_slots: dict[str, dict[Term, int]] = {}

        def slot(ctor: str, guard: Term) -> Optional[int]:
            if guard.__class__ is Const and guard.value is True:
                return None
            slots = guard_slots.setdefault(ctor, {})
            return slots.setdefault(guard, len(slots))

        #: ctor -> compiled rules in rule order
        self._rules: dict[str, list[CompiledRule]] = {}
        for r in sttr.rules:
            targets = tuple(
                (ids[t.state], t.index)
                for t in r.output.iter_terms()
                if isinstance(t, OutApply)
            )
            self._rules.setdefault(r.ctor, []).append(
                CompiledRule(
                    r, ids[r.state], slot(r.ctor, r.guard),
                    tuple(map(bits, r.lookahead)), targets,
                )
            )
        #: Does any rule need a child in some lookahead state?  If not,
        #: the lookahead automaton cannot change which rules apply, and
        #: neither its guards nor child state-sets enter the memo key.
        self.uses_lookahead = any(
            any(cr.lookahead) for crs in self._rules.values() for cr in crs
        )
        #: ctor -> [(state bit, guard slot, per-child lookahead bits)]
        self._sta_rules: dict[str, list] = {}
        for r in sta.rules if self.uses_lookahead else ():
            self._sta_rules.setdefault(r.ctor, []).append(
                (bits((r.state,)), slot(r.ctor, r.guard), tuple(map(bits, r.lookahead)))
            )
        module = _Module()
        fields = {f.name: i for i, f in enumerate(sttr.input_type.fields)}
        ctors = [c.name for c in sttr.input_type.constructors]
        for k, ctor in enumerate(ctors):
            body = _Body(module, fields)
            signs = [body.term(g) for g in guard_slots.get(ctor, {})]
            # Reading the last field makes a short attribute tuple fail
            # here, before any task runs (see run_compiled_checked).
            last = len(fields) - 1
            check = [f"a[{last}]"] if fields and last not in body.read else []
            body.define(f"def classify_{k}(a):", check + [f"return {_tuple(signs)}"])
        rules = [cr for crs in self._rules.values() for cr in crs]
        for k, cr in enumerate(rules):
            self._emitter(module, fields, k, cr.rule.output)
        self.source = "\n".join(module.lines) + "\n"
        namespace = module.namespace
        exec(compile(self.source, f"<generated {sttr.name}>", "exec"), namespace)
        for k, cr in enumerate(rules):
            cr.emit = namespace[f"emit_{k}"]
        self._classify: dict[str, Callable] = {
            ctor: namespace[f"classify_{k}"] for k, ctor in enumerate(ctors)
        }
        self._memo: dict[tuple, tuple[int, tuple]] = {}
        _OBS_COMPILES.inc()

    def _emitter(
        self, module: _Module, fields: dict[str, int], k: int, output: OutputTerm
    ) -> None:
        """Generate ``emit_k`` for one rule body."""
        body = _Body(module, fields)
        ns = self.n_states
        reads: dict[tuple[int, int], str] = {}  # one local per child result
        for t in output.iter_terms():
            if isinstance(t, OutApply):
                key = (self.state_ids[t.state], t.index)
                if key not in reads:
                    slot = f"c[{t.index}]" + (f" * {ns}" if ns > 1 else "")
                    if key[0]:
                        slot += f" + {key[0]}"
                    reads[key] = body.local(f"R[{slot}]")

        def read(t: OutApply) -> str:
            return reads[(self.state_ids[t.state], t.index)]

        header = f"def emit_{k}(a, c, R, probe):"
        if isinstance(output, OutApply):
            body.define(header, [f"return {read(output)}, False"])
            return
        attrs: dict[int, str] = {}
        for t in output.iter_terms():
            if isinstance(t, OutNode):
                attrs[id(t)] = _tuple([body.term(e) for e in t.attr_exprs])
            elif not isinstance(t, OutApply):
                raise TransductionError(f"cannot lower extended term {t!r}")
        fast: list[str] = []
        slow: list[str] = []

        def build(t: OutputTerm) -> tuple[str, str, str]:
            """(fast-path tree, slow-path list, slow-path capped flag)."""
            if isinstance(t, OutApply):
                return f"{read(t)}[0]", read(t), "False"
            kids = [build(c) for c in t.children]
            n = len(fast)
            ctor = module.const(t.ctor)
            fast.append(f"n{n} = Tree({ctor}, {attrs[id(t)]}, {_tuple([f for f, _, _ in kids])})")
            slow.append(f"o{n} = []")
            capped = " or ".join(
                [f"_cross({_tuple([o for _, o, _ in kids])}, 0, [], "
                 f"{attrs[id(t)]}, {ctor}, o{n}, probe)"]
                + [p for _, _, p in kids if p != "False"]
            )
            slow.append(f"p{n} = {capped}")
            return f"n{n}", f"o{n}", f"p{n}"

        tree, out, capped = build(output)
        singletons = " and ".join(
            ["(probe is None or probe > 0)"] + [f"len({r}) == 1" for r in reads.values()]
        )
        tail = [f"if {singletons}:"]
        tail += ["    " + line for line in fast] + [f"    return [{tree}], False"]
        tail += slow + [f"return {out}, {capped}"]
        body.define(header, tail)

    def _fill(self, key: tuple) -> tuple[int, tuple]:
        """Memo miss: lookahead states and applicable rules for a key."""
        ctor, signs, masks = key
        accepted = 0
        for bit, g, need in self._sta_rules.get(ctor, ()):
            if (g is None or signs[g]) and all(
                n & m == n for n, m in zip(need, masks)
            ):
                accepted |= bit
        per_state: list[tuple] = [()] * self.n_states
        for cr in self._rules.get(ctor, ()):
            g = cr.guard_slot
            if (g is None or signs[g]) and all(
                n & m == n for n, m in zip(cr.lookahead, masks)
            ):
                per_state[cr.state] += (cr,)
        entry = (accepted, tuple(per_state))
        memo = self._memo
        if len(memo) >= _MEMO_MAX:
            memo.clear()
        memo[key] = entry
        if obs_config.ENABLED:
            _OBS_DISPATCH_MEMO.inc()
        return entry


def run_compiled_checked(
    compiled: CompiledSTTR,
    tree: Tree,
    state: State | None = None,
    limit: Optional[int] = None,
) -> tuple[list[Tree], bool]:
    """``T_state(tree)`` plus a truncation flag, via generated code.

    Same contract and the same observable effects (output order, budget
    ticks, provenance note) as :func:`repro.transducers.run.run_checked`.

    The cyclic garbage collector is paused for the run.  A run builds
    several container objects per task and creates no reference cycle
    (trees are acyclic), so reference counting frees everything, while
    the collections the allocations would trigger re-walk the whole
    input and output: 40-60% of the run time on 32-128 KB pages.
    """
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        return _run(compiled, tree, state, limit)
    finally:
        if paused:
            gc.enable()


def _run(
    compiled: CompiledSTTR, tree: Tree, state: State | None, limit: Optional[int]
) -> tuple[list[Tree], bool]:
    sttr = compiled.sttr
    root_state = sttr.initial if state is None else state
    q0 = compiled.state_ids.get(root_state)
    if q0 is None:
        # A state with no rules and no references: nothing to generate.
        return run_checked(sttr, tree, state=root_state, limit=limit)
    ns = compiled.n_states
    classify = compiled._classify
    memo = compiled._memo
    fill = compiled._fill
    lookahead = compiled.uses_lookahead

    # Pass 1, post-order over distinct node objects: number each node,
    # classify it, and look its memo entry up.  A node with children is
    # pushed under a marker and numbered when the marker resurfaces.
    index: dict[int, int] = {}
    attrs: list[tuple] = []
    kids: list[tuple[int, ...]] = []
    rules_at: list[tuple] = []
    accepted: list[int] = []
    stack: list = [tree]
    pop = stack.pop
    while stack:
        t = pop()
        if t is _MARK:
            t = pop()
            c = tuple(map(index.__getitem__, map(id, t.children)))
            masks = tuple(map(accepted.__getitem__, c)) if lookahead else ()
        else:
            if id(t) in index:
                continue
            ch = t.children
            if ch:
                index[id(t)] = -1
                stack.append(t)
                stack.append(_MARK)
                stack.extend(ch)
                continue
            c = masks = ()
        ctor = t.ctor
        try:
            signs = classify[ctor](t.attrs)
        except KeyError:  # a constructor the input type does not have
            signs = ()
        except IndexError:
            # An attribute tuple shorter than the input type's fields.
            # The interpreter defines what that means (an error only if
            # a guard or attribute expression reads a missing field),
            # and no task has run yet.
            return run_checked(sttr, tree, state=root_state, limit=limit)
        key = (ctor, signs, masks)
        entry = memo.get(key)
        if entry is None:
            entry = fill(key)
        index[id(t)] = len(attrs)
        attrs.append(t.attrs)
        kids.append(c)
        accepted.append(entry[0])
        rules_at.append(entry[1])
    del index
    n = len(attrs)
    if obs_config.ENABLED:
        _OBS_DISPATCH.inc(n)

    # Pass 2, discovery: the interpreter's traversal order, on slots.
    tasks: list[int] = []
    seen = bytearray(n * ns)
    root = (n - 1) * ns + q0
    work = [root]
    while work:
        s = work.pop()
        if seen[s]:
            continue
        seen[s] = 1
        tasks.append(s)
        i = s // ns
        applicable = rules_at[i][s - i * ns]
        if applicable:
            c = kids[i]
            for cr in applicable:
                for tq, pos in cr.targets:
                    work.append(c[pos] * ns + tq)

    # Pass 3, evaluation in post-order (dependencies point at strict
    # subtrees, which have smaller numbers).
    tasks.sort()
    probe = None if limit is None else limit + 1
    results: list = [None] * (n * ns)
    tainted: Optional[bytearray] = None  # allocated at the first cut
    charged = _current_budget() is not None  # no run opens a budget scope
    for s in tasks:
        if charged:
            _tick(1, "transducer.task")
        i = s // ns
        applicable = rules_at[i][s - i * ns]
        a = attrs[i]
        c = kids[i]
        if len(applicable) == 1:
            # One rule's outputs are already distinct: its child lists are.
            kept, cut = applicable[0].emit(a, c, results, probe)
            if limit is not None and len(kept) > limit:
                cut = True
                kept = kept[:limit]
        else:
            outputs: dict[Tree, None] = {}
            cut = False
            for cr in applicable:
                produced, capped = cr.emit(a, c, results, probe)
                cut = cut or capped
                for out in produced:
                    outputs.setdefault(out)
                if limit is not None and len(outputs) > limit:
                    cut = True
                    break
            kept = list(outputs)
            if limit is not None and len(kept) > limit:
                cut = True
                kept = kept[:limit]
        results[s] = kept
        if cut or tainted is not None:
            if tainted is None:
                tainted = bytearray(n * ns)
            if cut or any(
                tainted[c[pos] * ns + tq]
                for cr in applicable
                for tq, pos in cr.targets
            ):
                tainted[s] = 1
    if prov.is_active():
        prov.note(
            "run",
            f"ran {sttr.name} from state {root_state}: {len(tasks)} tasks, "
            f"{len(results[root])} output(s)",
        )
    return results[root], bool(tainted and tainted[root])
