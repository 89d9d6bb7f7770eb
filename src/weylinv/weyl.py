"""Weyl group elements, Bruhat order, Poincare polynomials.

Elements are canonically represented by their signature: the tuple of images
of the simple roots (the columns of the matrix of w in the simple-root
basis).  Words are certificates; the canonical reduced word strips the
smallest left descent first.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .linalg import rank as matrix_rank
from .polynomials import IntPolynomial, q_int, q_integer_factorization  # noqa: F401
from .rootsys import Root, RootSystem, root_height


def _is_negative(vec: Sequence[int]) -> bool:
    # images of roots are roots: all entries share a sign
    return sum(vec) < 0


def _mul_cols(cols_a, cols_b, n: int):
    out = []
    for j in range(n):
        acc = [0] * n
        for k, c in enumerate(cols_b[j]):
            if c:
                col = cols_a[k]
                for i in range(n):
                    acc[i] += c * col[i]
        out.append(tuple(acc))
    return tuple(out)


class WeylElement:
    __slots__ = ("group", "cols", "inv_cols", "_hash", "_length", "_word")

    def __init__(self, group: "WeylGroup", cols, inv_cols):
        self.group = group
        self.cols = cols
        self.inv_cols = inv_cols
        self._hash = hash(cols)
        self._length: Optional[int] = None
        self._word: Optional[Tuple[int, ...]] = None

    def __eq__(self, other):
        return self is other or (isinstance(other, WeylElement) and self.group is other.group
                                 and self.cols == other.cols)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<{self.group.system.datum.type_label} {list(g + 1 for g in self.word())}>"

    def apply(self, beta: Sequence[int]) -> Root:
        """Image w(beta) for beta in simple-root coordinates."""
        n = self.group.rank
        acc = [0] * n
        for j, b in enumerate(beta):
            if b:
                col = self.cols[j]
                for i in range(n):
                    acc[i] += b * col[i]
        return tuple(acc)

    def apply_inverse(self, beta: Sequence[int]) -> Root:
        n = self.group.rank
        acc = [0] * n
        for j, b in enumerate(beta):
            if b:
                col = self.inv_cols[j]
                for i in range(n):
                    acc[i] += b * col[i]
        return tuple(acc)

    def inverse(self) -> "WeylElement":
        return self.group.intern(self.inv_cols, self.cols)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return self.group.mul(self, other)

    def length(self) -> int:
        if self._length is None:
            self._length = sum(
                1 for beta in self.group.system.positive_roots if _is_negative(self.apply(beta))
            )
        return self._length

    def is_identity(self) -> bool:
        return self is self.group.identity or self.cols == self.group.identity.cols

    def right_descents(self) -> FrozenSet[int]:
        return frozenset(i for i, col in enumerate(self.cols) if _is_negative(col))

    def left_descents(self) -> FrozenSet[int]:
        return frozenset(i for i, col in enumerate(self.inv_cols) if _is_negative(col))

    def word(self) -> Tuple[int, ...]:
        """Canonical reduced word (0-based generator indices)."""
        if self._word is None:
            out = []
            x = self
            while not x.is_identity():
                s = min(x.left_descents())
                out.append(s)
                x = self.group.generators[s] * x
            self._word = tuple(out)
        return self._word

    def support(self) -> FrozenSet[int]:
        return frozenset(self.word())


class WeylGroup:
    _cache: Dict[object, "WeylGroup"] = {}

    def __init__(self, system: RootSystem):
        self.system = system
        self.rank = system.rank
        self._elements: Dict[tuple, WeylElement] = {}
        n = self.rank
        ident = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
        self.identity = self.intern(ident, ident)
        self.generators = tuple(
            self.intern(*(2 * (tuple(system.simple_reflect(i, a) for a in system.simple_roots),)))
            for i in range(n)
        )
        self.reflections = tuple(
            self.intern(*(2 * (tuple(system.reflect(beta, a) for a in system.simple_roots),)))
            for beta in system.positive_roots
        )
        self._intervals: Dict[WeylElement, FrozenSet[WeylElement]] = {}
        self._leq_memo: Dict[tuple, bool] = {}
        self._all: Optional[FrozenSet[WeylElement]] = None

    @classmethod
    def get(cls, name_or_system) -> "WeylGroup":
        system = name_or_system if isinstance(name_or_system, RootSystem) else RootSystem.get(name_or_system)
        key = id(system)
        if key not in cls._cache:
            cls._cache[key] = cls(system)
        return cls._cache[key]

    def intern(self, cols, inv_cols) -> WeylElement:
        w = self._elements.get(cols)
        if w is None:
            w = WeylElement(self, cols, inv_cols)
            self._elements[cols] = w
        return w

    def mul(self, a: WeylElement, b: WeylElement) -> WeylElement:
        cols = _mul_cols(a.cols, b.cols, self.rank)
        w = self._elements.get(cols)
        if w is None:
            w = WeylElement(self, cols, _mul_cols(b.inv_cols, a.inv_cols, self.rank))
            self._elements[cols] = w
        return w

    def from_word(self, word: Iterable[int]) -> WeylElement:
        """Product of generators; 0-based indices; word need not be reduced."""
        x = self.identity
        for s in word:
            if not 0 <= s < self.rank:
                raise ValueError(f"generator index out of range: s{s + 1}")
            x = self.mul(x, self.generators[s])
        return x

    def reflection_of(self, beta: Root) -> WeylElement:
        """t_beta for a (positive) root beta."""
        idx = self.system.positive_roots.index(tuple(beta))
        return self.reflections[idx]

    # -- Bruhat order ------------------------------------------------------

    def bruhat_leq(self, u: WeylElement, w: WeylElement) -> bool:
        if u.is_identity():
            return True
        if u.length() > w.length():
            return False
        if u is w:
            return True
        key = (u.cols, w.cols)
        memo = self._leq_memo
        if key not in memo:
            s = min(w.left_descents())
            sw = self.generators[s] * w
            if s in u.left_descents():
                memo[key] = self.bruhat_leq(self.generators[s] * u, sw)
            else:
                memo[key] = self.bruhat_leq(u, sw)
        return memo[key]

    def bruhat_interval(self, w: WeylElement) -> FrozenSet[WeylElement]:
        """[e, w] via downward closure along reflection edges."""
        if w not in self._intervals:
            pos = self.system.positive_roots
            refl = self.reflections
            seen: Set[WeylElement] = {w}
            stack = [w]
            while stack:
                x = stack.pop()
                for i, beta in enumerate(pos):
                    # l(t x) < l(x) iff x^{-1}(beta) is negative
                    if _is_negative(x.apply_inverse(beta)):
                        tx = self.mul(refl[i], x)
                        if tx not in seen:
                            seen.add(tx)
                            stack.append(tx)
            self._intervals[w] = frozenset(seen)
        return self._intervals[w]

    def elements(self) -> FrozenSet[WeylElement]:
        if self._all is None:
            seen: Set[WeylElement] = {self.identity}
            frontier = [self.identity]
            while frontier:
                x = frontier.pop()
                for g in self.generators:
                    y = self.mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
            self._all = frozenset(seen)
        return self._all

    def order(self) -> int:
        return len(self.elements())


# -- free functions matching the operation contract ------------------------


def descents(w: WeylElement, side: str) -> FrozenSet[int]:
    if side == "left":
        return w.left_descents()
    if side == "right":
        return w.right_descents()
    raise ValueError("side must be 'left' or 'right'")


def support(w: WeylElement) -> FrozenSet[int]:
    return w.support()


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    if u.group is not w.group:
        raise ValueError("elements from different groups")
    return u.group.bruhat_leq(u, w)


def bruhat_interval(w: WeylElement) -> FrozenSet[WeylElement]:
    return w.group.bruhat_interval(w)


def poincare(w: WeylElement) -> IntPolynomial:
    counts = [0] * (w.length() + 1)
    for x in w.group.bruhat_interval(w):
        counts[x.length()] += 1
    return IntPolynomial(counts)


def is_minimal_coset_rep(v: WeylElement, J: Iterable[int], side: str) -> bool:
    J = frozenset(J)
    dec = v.left_descents() if side == "left" else v.right_descents()
    return not (dec & J)


def coset_poincare(v: WeylElement, J: Iterable[int], side: str = "left") -> IntPolynomial:
    """^J P_v for side='left' (v in ^J W); P^J_v for side='right' (v in W^J)."""
    J = frozenset(J)
    if not is_minimal_coset_rep(v, J, side):
        raise ValueError("v is not a minimal coset representative")
    counts = [0] * (v.length() + 1)
    for x in v.group.bruhat_interval(v):
        dec = x.left_descents() if side == "left" else x.right_descents()
        if not (dec & J):
            counts[x.length()] += 1
    return IntPolynomial(counts)


def is_palindromic(p: IntPolynomial) -> bool:
    return p.is_palindromic()


def parabolic_decomposition(w: WeylElement, J: Iterable[int], side: str = "left"):
    """side='left': w = u * v with u in W_J, v in ^J W; side='right': w = v * u."""
    J = frozenset(J)
    g = w.group
    u = g.identity
    v = w
    if side == "left":
        while True:
            ds = v.left_descents() & J
            if not ds:
                return u, v
            s = min(ds)
            v = g.generators[s] * v
            u = g.mul(u, g.generators[s])
    elif side == "right":
        while True:
            ds = v.right_descents() & J
            if not ds:
                return u, v
            s = min(ds)
            v = g.mul(v, g.generators[s])
            u = g.mul(g.generators[s], u)
    raise ValueError("side must be 'left' or 'right'")


def absolute_length(w: WeylElement) -> int:
    n = w.group.rank
    rows = [tuple(w.cols[j][i] - int(i == j) for j in range(n)) for i in range(n)]
    return matrix_rank(rows)


def bruhat_graph_distance(u: WeylElement, w: WeylElement) -> Optional[int]:
    """al(u, w); None means infinite (u not below w)."""
    g = u.group
    if not g.bruhat_leq(u, w):
        return None
    interval = g.bruhat_interval(w)
    pos = g.system.positive_roots
    refl = g.reflections
    dist = {u: 0}
    frontier = [u]
    d = 0
    while frontier:
        if w in dist:
            return dist[w]
        d += 1
        nxt = []
        for x in frontier:
            for i, beta in enumerate(pos):
                if not _is_negative(x.apply_inverse(beta)):  # l(t x) > l(x)
                    tx = g.mul(refl[i], x)
                    if tx not in dist and tx in interval:
                        dist[tx] = d
                        nxt.append(tx)
        frontier = nxt
    return dist.get(w)


def longest_element(group: WeylGroup, J: Optional[Iterable[int]] = None) -> WeylElement:
    J = frozenset(range(group.rank)) if J is None else frozenset(J)
    x = group.identity
    while True:
        avail = [s for s in J if s not in x.right_descents()]
        if not avail:
            return x
        x = group.mul(x, group.generators[min(avail)])
