"""Weyl group elements, Bruhat order, Poincare polynomials.

An element w is stored as the permutation it induces on the roots:
``perm[i]`` is the index of w(roots[i]) in ``group.roots``, which lists the
n_pos positive roots (by height) and then their negatives, so a root is
positive iff its index is below n_pos.  Multiplication is composition of
index tuples, and the length and the descents are read off the signs of the
images.  Elements are interned
per group, so equal elements are the same object.  Words are certificates;
the canonical reduced word strips the smallest left descent first.

[e, w] is built by the subword property and u <= w is decided by the lifting
property (Bjorner-Brenti, Combinatorics of Coxeter Groups, Thm 2.2.2 and
Prop 2.2.7).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from .cache import cached
from .linalg import rank as matrix_rank
from .polynomials import IntPolynomial
from .rootsys import Root, RootSystem


class WeylElement:
    __slots__ = ("group", "perm", "_hash", "_inverse", "_length", "_word")

    def __init__(self, group: "WeylGroup", perm: Tuple[int, ...]):
        self.group = group
        self.perm = perm
        self._hash = hash(perm)
        self._inverse: Optional[WeylElement] = None
        self._length: Optional[int] = None
        self._word: Optional[Tuple[int, ...]] = None

    def __eq__(self, other):
        return self is other or (isinstance(other, WeylElement) and self.group is other.group
                                 and self.perm == other.perm)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<{self.group.system.datum.type_label} {list(g + 1 for g in self.word())}>"

    def apply(self, beta: Sequence[int]) -> Root:
        """Image w(beta) of a root beta, in simple-root coordinates."""
        g = self.group
        return g.roots[self.perm[g.root_index[tuple(beta)]]]

    def inverse(self) -> "WeylElement":
        if self._inverse is None:
            inv = [0] * len(self.perm)
            for i, j in enumerate(self.perm):
                inv[j] = i
            self._inverse = self.group._intern(tuple(inv))
            self._inverse._inverse = self
        return self._inverse

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return self.group.mul(self, other)

    def length(self) -> int:
        """Number of positive roots sent to negative roots."""
        if self._length is None:
            n_pos = self.group.n_pos
            self._length = sum(1 for j in self.perm[:n_pos] if j >= n_pos)
        return self._length

    def is_identity(self) -> bool:
        return self is self.group.identity

    def right_descents(self) -> FrozenSet[int]:
        """s_i with w(alpha_i) negative."""
        n_pos = self.group.n_pos
        return frozenset(i for i, k in enumerate(self.group.simple) if self.perm[k] >= n_pos)

    def left_descents(self) -> FrozenSet[int]:
        return self.inverse().right_descents()

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
    _cache: Dict[object, "WeylGroup"] = {}   # emptied by clear_caches

    def __init__(self, system: RootSystem):
        self.system = system
        self.rank = system.rank
        pos = system.positive_roots
        self.n_pos = len(pos)
        self.roots: Tuple[Root, ...] = pos + tuple(tuple(-x for x in b) for b in pos)
        self.root_index: Dict[Root, int] = {b: i for i, b in enumerate(self.roots)}
        self.simple = tuple(self.root_index[a] for a in system.simple_roots)
        self._elements: Dict[Tuple[int, ...], WeylElement] = {}
        self.identity = self._intern(tuple(range(len(self.roots))))
        self.generators = tuple(
            self._intern(tuple(self.root_index[system.simple_reflect(i, b)] for b in self.roots))
            for i in range(self.rank)
        )
        # t_beta = s_i t_{s_i beta} s_i with s_i beta lower than beta; positive
        # roots are sorted by height, so lower means a smaller index
        refl = []
        for k in range(self.n_pos):
            if k in self.simple:
                refl.append(self.generators[self.simple.index(k)])
            else:
                s = next(s for s in self.generators if s.perm[k] < k)
                refl.append(s * refl[s.perm[k]] * s)
        self.reflections = tuple(refl)

    @classmethod
    def get(cls, name_or_system) -> "WeylGroup":
        system = name_or_system if isinstance(name_or_system, RootSystem) else RootSystem.get(name_or_system)
        key = id(system)
        if key not in cls._cache:
            cls._cache[key] = cls(system)
        return cls._cache[key]

    def _intern(self, perm: Tuple[int, ...]) -> WeylElement:
        w = self._elements.get(perm)
        if w is None:
            w = self._elements[perm] = WeylElement(self, perm)
        return w

    def mul(self, a: WeylElement, b: WeylElement) -> WeylElement:
        # (ab)(roots[i]) = a(b(roots[i])); itemgetter returns a tuple because
        # a perm has at least two entries
        return self._intern(itemgetter(*b.perm)(a.perm))

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
        """Lifting property: for a left descent s of w, u <= w iff
        su <= sw when s is a left descent of u, and u <= sw otherwise."""
        while u is not w:
            if u.is_identity():
                return True
            if u.length() > w.length():
                return False
            s = min(w.left_descents())
            if s in u.left_descents():
                u = self.generators[s] * u
            w = self.generators[s] * w
        return True

    @cached
    def bruhat_interval(self, w: WeylElement) -> FrozenSet[WeylElement]:
        """[e, w] by the subword property: X <- X u Xs along a reduced word."""
        n_pos = self.n_pos
        X: Set[WeylElement] = {self.identity}
        for s in w.word():
            gen, k = self.generators[s], self.simple[s]
            # x s < x lies in X already, since X is a lower interval
            X.update([self.mul(x, gen) for x in X if x.perm[k] < n_pos])
        return frozenset(X)

    @cached
    def elements(self) -> FrozenSet[WeylElement]:
        seen: Set[WeylElement] = {self.identity}
        frontier = [self.identity]
        while frontier:
            x = frontier.pop()
            for g in self.generators:
                y = self.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def order(self) -> int:
        return len(self.elements())


# -- free functions matching the operation contract ------------------------


def descents(w: WeylElement, side: str) -> FrozenSet[int]:
    if side == "left":
        return w.left_descents()
    if side == "right":
        return w.right_descents()
    raise ValueError("side must be 'left' or 'right'")


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
    # rank of w - 1, read off its columns w(alpha_j) - alpha_j
    rows = [tuple(x - int(i == j) for i, x in enumerate(w.apply(a)))
            for j, a in enumerate(w.group.system.simple_roots)]
    return matrix_rank(rows)


def bruhat_graph_distance(u: WeylElement, w: WeylElement) -> Optional[int]:
    """al(u, w); None means infinite (u not below w)."""
    g = u.group
    if not g.bruhat_leq(u, w):
        return None
    interval = g.bruhat_interval(w)
    dist = {u: 0}
    frontier = [u]
    d = 0
    while frontier:
        if w in dist:
            return dist[w]
        d += 1
        nxt = []
        for x in frontier:
            inv = x.inverse().perm
            for t, j in zip(g.reflections, inv):
                if j < g.n_pos:  # l(t x) > l(x) iff x^-1(beta) is positive
                    tx = g.mul(t, x)
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
