"""Concrete trees.

A :class:`Tree` is an immutable node ``f[a1 .. am](t1 .. tk)``: a
constructor name, a tuple of attribute values, and a tuple of children.
Trees are structural — a tree belongs to a :class:`~repro.trees.types.TreeType`
if it validates against it — which keeps transducer outputs cheap to build.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from ..smt.terms import Value


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Tree:
    """An attributed ranked tree ``ctor[attrs](children)``."""

    ctor: str
    attrs: tuple[Value, ...] = ()
    children: tuple["Tree", ...] = ()

    def __init__(
        self, ctor: str, attrs: tuple[Value, ...] = (), children: tuple["Tree", ...] = ()
    ) -> None:
        # Written straight into the instance dict: transducer runs build
        # one tree per task, and the frozen dataclass's generated
        # ``__init__`` costs about twice as much.
        d = self.__dict__
        d["ctor"] = ctor
        d["attrs"] = attrs
        d["children"] = children
        d["_hash"] = None

    def __hash__(self) -> int:
        # Cached on first use: trees key memoization tables in the
        # automaton algorithms, and recomputing a deep hash per lookup
        # is quadratic.  Lazy, because most trees a run builds are never
        # hashed at all.
        h = self._hash  # type: ignore[attr-defined]
        return _hash_tree(self) if h is None else h

    def __getstate__(self) -> dict:
        # String hashes differ between processes: never ship a cached one.
        return {**self.__dict__, "_hash": None}

    def __eq__(self, other: object) -> bool:
        """Structural equality, iterative: lists can be thousands deep.

        Identical subtrees match at once and a cached-hash mismatch
        rejects at once; only equal-hash, non-identical pairs are
        walked.
        """
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (
                hash(a) != hash(b)
                or a.ctor != b.ctor
                or a.attrs != b.attrs
                or len(a.children) != len(b.children)
            ):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __repr__(self) -> str:
        return format_tree(self)

    @property
    def rank(self) -> int:
        return len(self.children)

    def size(self) -> int:
        """Number of nodes (iterative: trees can be thousands deep).

        Shared subtree objects are counted once per occurrence.
        """
        return sum(1 for _ in self.iter_nodes())

    def depth(self) -> int:
        """Length of the longest root-to-leaf path (leaf = 1).

        Computed over distinct subtree objects: witness trees produced by
        the emptiness fixpoint share subtrees aggressively (they are DAGs
        in memory), so a path-walking implementation would be exponential.
        """
        memo: dict[int, int] = {}
        for t in dag_post_order(self):
            memo[id(t)] = 1 + max((memo[id(c)] for c in t.children), default=0)
        return memo[id(self)]

    def iter_nodes(self) -> Iterator["Tree"]:
        """All nodes, pre-order."""
        stack = [self]
        while stack:
            t = stack.pop()
            yield t
            stack.extend(reversed(t.children))

    def count(self, ctor: str) -> int:
        """How many nodes use the given constructor."""
        return sum(1 for n in self.iter_nodes() if n.ctor == ctor)

    def replace_children(self, children: Sequence["Tree"]) -> "Tree":
        return Tree(self.ctor, self.attrs, tuple(children))


def _hash_tree(tree: Tree) -> int:
    """Compute and cache the hashes ``tree`` needs, children first.

    Iterative, so hashing a list thousands of nodes deep does not
    recurse through ``__hash__``.
    """
    stack = [tree]
    while stack:
        t = stack[-1]
        pending = [c for c in t.children if c._hash is None]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        t.__dict__["_hash"] = hash((t.ctor, t.attrs, t.children))
    return tree._hash  # type: ignore[attr-defined]


def dag_post_order(tree: Tree) -> list[Tree]:
    """Distinct subtree objects, children before parents (iterative).

    Visits each *object* exactly once, so it is linear even when subtrees
    are shared (DAG-shaped witnesses); use this for bottom-up analyses.
    """
    out: list[Tree] = []
    seen: set[int] = set()
    stack: list[tuple[Tree, bool]] = [(tree, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            out.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        for c in t.children:
            stack.append((c, False))
    return out


def node(ctor: str, attrs: Sequence[Value] = (), *children: Tree) -> Tree:
    """Build a tree node; ``attrs`` may be a single value for 1-field types."""
    if not isinstance(attrs, (tuple, list)):
        attrs = (attrs,)
    return Tree(ctor, tuple(attrs), tuple(children))


def _format_attr(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return f"{value.numerator}.0"
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def format_tree(tree: Tree) -> str:
    """Render in the paper's surface syntax: ``f["a"](c1, c2)``.

    Iterative, so a list thousands of nodes deep renders without
    recursion.
    """
    parts: list[str] = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        attrs = " ".join(_format_attr(a) for a in item.attrs)
        parts.append(item.ctor + (f"[{attrs}]" if attrs else "[]" if item.attrs else ""))
        if item.children:
            parts.append("(")
            stack.append(")")
            for k, child in enumerate(reversed(item.children)):
                if k:
                    stack.append(", ")
                stack.append(child)
    return "".join(parts)
