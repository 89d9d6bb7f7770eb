"""Inversion sets with convex orders, biconvexity, flattening, phi."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .arrangement import Arrangement
from .rootsys import Root, RootSystem, Subsystem, subsystem
from .weyl import WeylElement, WeylGroup


@dataclass(frozen=True)
class OrderedInversionSet:
    roots: Tuple[Root, ...]             # convex order beta_1 < ... < beta_l

    def __len__(self):
        return len(self.roots)

    def as_set(self) -> FrozenSet[Root]:
        return frozenset(self.roots)


def inversion_set(w: WeylElement, word: Optional[Sequence[int]] = None) -> OrderedInversionSet:
    """I(w) in the convex order beta_i = s_1 ... s_{i-1}(alpha_{s_i})."""
    g = w.group
    if word is None:
        word = w.word()
    else:
        word = tuple(word)
        if g.from_word(word) is not w or len(word) != w.length():
            raise ValueError("word is not a reduced word for w")
    roots: List[Root] = []
    prefix = g.identity
    for s in word:
        roots.append(prefix.apply(g.system.simple_roots[s]))
        prefix = g.mul(prefix, g.generators[s])
    return OrderedInversionSet(tuple(roots))


def is_biconvex(roots: Iterable[Root], system: RootSystem) -> bool:
    inside = frozenset(tuple(r) for r in roots)
    if not inside <= system.positive_set:
        return False
    outside = system.positive_set - inside
    for part in (inside, outside):
        for a in part:
            for b in part:
                if a < b:
                    c = tuple(x + y for x, y in zip(a, b))
                    if c in system.positive_set and c not in part:
                        return False
    return True


def element_from_biconvex(roots: Iterable[Root], group: WeylGroup) -> WeylElement:
    """The unique w with I(w) equal to the given biconvex set."""
    system = group.system
    current: Set[Root] = {tuple(r) for r in roots}
    word: List[int] = []
    simples = system.simple_roots
    while current:
        s = next((i for i, a in enumerate(simples) if a in current), None)
        if s is None:
            raise ValueError("set is not biconvex (no simple root present)")
        word.append(s)
        nxt = set()
        for beta in current:
            if beta == simples[s]:
                continue
            img = system.simple_reflect(s, beta)
            if sum(img) < 0:
                raise ValueError("set is not biconvex")
            nxt.add(img)
        if len(nxt) != len(current) - 1:
            raise ValueError("set is not biconvex")
        current = nxt
    return group.from_word(word)


def is_convex_order(roots: Sequence[Root], system: RootSystem) -> bool:
    """The two defining conditions for a convex order on a biconvex set."""
    inside = {tuple(r): i for i, r in enumerate(roots)}
    pos = system.positive_set
    items = [tuple(r) for r in roots]
    for i, a in enumerate(items):
        for j, b in enumerate(items):
            if i >= j:
                continue
            c = tuple(x + y for x, y in zip(a, b))
            if c in inside and not (i < inside[c] < j):
                return False
    for a in items:
        for b in pos:
            if b in inside:
                continue
            d = tuple(x - y for x, y in zip(a, b))
            if d in inside and not (inside[d] < inside[a]):
                return False
    return True


def phi(subset: Sequence[Root], w: WeylElement) -> WeylElement:
    """t_{beta_1} ... t_{beta_k} w, the subset listed in the inherited order."""
    g = w.group
    x = g.identity
    for beta in subset:
        x = g.mul(x, g.reflection_of(tuple(beta)))
    return g.mul(x, w)


def flatten(w: WeylElement, U_basis: Sequence[Sequence[int]]) -> Tuple[WeylElement, Subsystem]:
    """The element of W_U with inversion set I(w) cap U, in subsystem coordinates."""
    g = w.group
    sub = subsystem(g.system, U_basis)
    inv = inversion_set(w).as_set()
    if sub.datum is None:
        return None, sub
    sub_group = WeylGroup.get(sub.system())
    picked = [sub.coords(beta) for beta in sub.positive_roots if beta in inv]
    return element_from_biconvex(picked, sub_group), sub


def inversion_arrangement(w: WeylElement) -> Arrangement:
    return Arrangement(w.group.rank, inversion_set(w).roots)
