"""Crystallographic root systems of types A-G with exact integer coordinates.

Roots are integer tuples in the simple-root basis.  The Cartan matrix
convention is cartan[i][j] = 2(a_i, a_j)/(a_i, a_i), so the simple
reflection acts by s_i(b) = b - (sum_j b_j * cartan[i][j]) * a_i.

Node numbering (1-based in the CLI, 0-based internally):
  A_n      1 - 2 - ... - n
  B_n      1 - 2 - ... => n        (node n short)
  C_n      1 - 2 - ... => n        (node n long)
  D_n      1 - 2 - 4 - 5 - ... - n with 3 attached to 2
  E_n      8 - 7 - 6 - 5 - 4 - 3 - 2 chain with 1 attached to 4 (restricted to 1..n)
  F_4      1 - 2 => 3 - 4          (1, 2 long)
  G_2      1 => 2                  (node 2 long)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import Eliminator, det

Root = Tuple[int, ...]


@dataclass(frozen=True)
class CartanDatum:
    type_label: str
    rank: int
    cartan_matrix: Tuple[Tuple[int, ...], ...]
    symmetrizer: Tuple[Fraction, ...]

    def __post_init__(self):
        A = self.cartan_matrix
        n = self.rank
        if len(A) != n or any(len(row) != n for row in A):
            raise ValueError("Cartan matrix shape does not match rank")
        for i in range(n):
            if A[i][i] != 2:
                raise ValueError("Cartan diagonal must be 2")
            for j in range(n):
                if i != j and A[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
        B = self.form()
        for i in range(n):
            for j in range(n):
                if B[i][j] != B[j][i]:
                    raise ValueError("symmetrizer does not symmetrize the Cartan matrix")
        # B = diag(symmetrizer)·A, so its k-th leading principal minor is that
        # of A times the first k symmetrizer entries: B is positive definite
        # exactly when those entries and A's leading principal minors are > 0
        if any(d <= 0 for d in self.symmetrizer) or any(
                det([row[:k] for row in A[:k]]) <= 0 for k in range(1, n + 1)):
            raise ValueError("symmetrized Cartan form is not positive definite")

    def form(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """Matrix of the Euclidean form: form[i][j] = (a_i, a_j)."""
        return tuple(
            tuple(self.symmetrizer[i] * self.cartan_matrix[i][j] for j in range(self.rank))
            for i in range(self.rank)
        )


def _edges_for(label: str, n: int) -> List[Tuple[int, int]]:
    """0-based undirected Dynkin edges for the labelling documented above."""
    if label in ("A", "B", "C"):
        return [(i, i + 1) for i in range(n - 1)]
    if label == "D":
        if n < 4:
            raise ValueError("type D requires rank >= 4")
        return [(0, 1), (2, 1)] + [(i, i + 1) for i in range(3, n - 1)] + [(1, 3)]
    if label == "E":
        if n not in (6, 7, 8):
            raise ValueError("type E requires rank in {6, 7, 8}")
        return [(0, 3)] + [(i, i + 1) for i in range(1, n - 1)]
    if label == "F":
        if n != 4:
            raise ValueError("type F requires rank 4")
        return [(0, 1), (1, 2), (2, 3)]
    if label == "G":
        if n != 2:
            raise ValueError("type G requires rank 2")
        return [(0, 1)]
    raise ValueError(f"unknown type label {label!r}")


def cartan_datum(name: str) -> CartanDatum:
    """Build the Cartan datum for a name like 'A3', 'B3', 'E6', 'G2'."""
    if len(name) < 2 or name[0] not in "ABCDEFG" or not name[1:].isdigit():
        raise ValueError(f"not a valid root system name: {name!r}")
    label, n = name[0], int(name[1:])
    if n < 1:
        raise ValueError("rank must be positive")
    if label in ("B", "C") and n < 2:
        raise ValueError(f"type {label} requires rank >= 2")
    edges = _edges_for(label, n)

    # norms: (a_i, a_i), long roots normalized to 2
    norms = [Fraction(2)] * n
    if label == "B":
        norms[n - 1] = Fraction(1)
    elif label == "C":
        norms = [Fraction(1)] * (n - 1) + [Fraction(2)]
    elif label == "F":
        norms = [Fraction(2), Fraction(2), Fraction(1), Fraction(1)]
    elif label == "G":
        norms = [Fraction(2, 3), Fraction(2)]

    A = [[0] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = 2
    for i, j in edges:
        # adjacent simple roots satisfy (a_i, a_j) = -max(norm_i, norm_j)/2
        prod = -max(norms[i], norms[j]) / 2
        aij = 2 * prod / norms[i]
        aji = 2 * prod / norms[j]
        assert aij.denominator == 1 and aji.denominator == 1
        A[i][j] = int(aij)
        A[j][i] = int(aji)
    symmetrizer = tuple(x / 2 for x in norms)
    return CartanDatum(name, n, tuple(tuple(row) for row in A), symmetrizer)


def root_height(beta: Root) -> int:
    return sum(beta)


def is_positive_root_vector(beta: Sequence[int]) -> bool:
    return all(x >= 0 for x in beta) and any(x > 0 for x in beta)


class RootSystem:
    """A root system built from a Cartan datum, with exact reflection arithmetic."""

    _cache: Dict[object, "RootSystem"] = {}   # emptied by clear_caches

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        self.rank = datum.rank
        self.cartan = datum.cartan_matrix
        self.form_matrix = datum.form()
        self.simple_roots: Tuple[Root, ...] = tuple(
            tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)
        )
        self.positive_roots = self._closure()
        self.positive_set = frozenset(self.positive_roots)
        self.all_roots = frozenset(self.positive_roots) | frozenset(
            tuple(-x for x in b) for b in self.positive_roots
        )

    @classmethod
    def get(cls, name_or_datum) -> "RootSystem":
        if isinstance(name_or_datum, CartanDatum):
            key = (name_or_datum.cartan_matrix, name_or_datum.symmetrizer)
        else:
            key = name_or_datum
        if key not in cls._cache:
            datum = name_or_datum if isinstance(name_or_datum, CartanDatum) else cartan_datum(name_or_datum)
            cls._cache[key] = cls(datum)
        return cls._cache[key]

    # -- construction ------------------------------------------------------

    def simple_reflect(self, i: int, beta: Root) -> Root:
        """s_i applied to beta."""
        c = sum(beta[j] * self.cartan[i][j] for j in range(self.rank))
        if c == 0:
            return beta
        out = list(beta)
        out[i] -= c
        return tuple(out)

    def _closure(self) -> Tuple[Root, ...]:
        seen = set(self.simple_roots)
        frontier = list(self.simple_roots)
        while frontier:
            beta = frontier.pop()
            for i in range(self.rank):
                gamma = self.simple_reflect(i, beta)
                if gamma not in seen:
                    seen.add(gamma)
                    frontier.append(gamma)
        pos = [b for b in seen if is_positive_root_vector(b)]
        for b in seen:
            if not (all(x >= 0 for x in b) or all(x <= 0 for x in b)):
                raise AssertionError("mixed-sign vector generated; invalid Cartan datum")
        pos.sort(key=lambda b: (root_height(b), b))
        return tuple(pos)

    # -- arithmetic --------------------------------------------------------

    def inner_product(self, a: Sequence[int], b: Sequence[int]) -> Fraction:
        if len(a) != len(b) or len(a) != self.rank:
            raise ValueError("dimension mismatch")
        B = self.form_matrix
        total = Fraction(0)
        for i, x in enumerate(a):
            if x:
                row = B[i]
                total += x * sum(row[j] * b[j] for j in range(self.rank) if b[j])
        return total


# -- subsystems ------------------------------------------------------------


@dataclass(frozen=True)
class Subsystem:
    """R intersected with a subspace U, with a classification of its type."""
    ambient: RootSystem
    positive_roots: Tuple[Root, ...]        # ambient coordinates
    simple_roots: Tuple[Root, ...]          # ambient coordinates, canonical order
    datum: Optional[CartanDatum]            # None when empty
    type_components: Tuple[str, ...]        # e.g. ("A1", "B2"), sorted
    # ambient root -> its coordinates in the Delta_U basis, built on first use
    _coords: Optional[Dict[Root, Root]] = field(default=None, init=False, repr=False,
                                                compare=False)

    @property
    def type_string(self) -> str:
        return "+".join(self.type_components) if self.type_components else "empty"

    def coords(self, beta: Root) -> Root:
        """Coordinates in the Delta_U basis of a root of the subsystem, given
        in ambient coordinates; ValueError on any other vector."""
        if self._coords is None:
            dims = range(self.ambient.rank)
            object.__setattr__(self, "_coords", {
                tuple(sum(c * d[j] for c, d in zip(gamma, self.simple_roots)) for j in dims): gamma
                for gamma in self.system().all_roots})
        try:
            return self._coords[tuple(beta)]
        except KeyError:
            raise ValueError("vector is not a root of the subsystem") from None

    def system(self) -> RootSystem:
        """Abstract copy of the subsystem in its own simple-root coordinates."""
        if self.datum is None:
            raise ValueError("empty subsystem has no root system")
        return RootSystem.get(self.datum)


def subsystem(system: RootSystem, U_basis: Sequence[Sequence[int]]) -> Subsystem:
    """Positive roots of R intersected with span(U_basis), simple system, type."""
    elim = Eliminator()
    for v in U_basis:
        if not elim.add(v):
            raise ValueError("U_basis must be linearly independent")
    pos = tuple(b for b in system.positive_roots if elim.in_span(b))
    pos_set = set(pos)
    simples = []
    for b in pos:
        if not any((tuple(x - y for x, y in zip(b, c)) in pos_set) for c in pos if c != b):
            simples.append(b)
    simples.sort(key=lambda b: (root_height(b), b))
    if not simples:
        return Subsystem(system, (), (), None, ())
    # b_j - b_i is not a root for simple b_i != b_j, so the b_i-string through
    # b_j runs b_j, ..., b_j + q*b_i and <b_j, b_i^vee> = -q (Humphreys 9.4, 10.1)
    n = len(simples)
    cart = [[2 if i == j else -_string_length(system.positive_set, simples[i], simples[j])
             for j in range(n)] for i in range(n)]
    labels = []
    symmetrizer: List[Fraction] = [Fraction(0)] * n
    for comp in _components(cart):
        label, p = _classify([[cart[i][j] for j in comp] for i in comp])
        labels.append(label)
        # std node k is component node p[k]; long roots of each component get norm 2
        for k, d in enumerate(RootSystem.get(label).datum.symmetrizer):
            symmetrizer[comp[p[k]]] = d
    datum = CartanDatum("sub", n, tuple(map(tuple, cart)), tuple(symmetrizer))
    return Subsystem(system, pos, tuple(simples), datum, tuple(sorted(labels)))


def _string_length(positive_set, a: Root, b: Root) -> int:
    """The largest q with b + q*a a positive root."""
    q = 0
    while tuple(y + (q + 1) * x for x, y in zip(a, b)) in positive_set:
        q += 1
    return q


def _components(cart) -> List[List[int]]:
    n = len(cart)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and cart[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _candidate_labels(r: int) -> List[str]:
    out = [f"A{r}"]
    if r == 2:
        out.append("B2")
        out.append("G2")
    if r >= 3:
        out.append(f"B{r}")
        out.append(f"C{r}")
    if r >= 4:
        out.append(f"D{r}")
    if r in (6, 7, 8):
        out.append(f"E{r}")
    if r == 4:
        out.append("F4")
    return out


def classify_irreducible(cart: Sequence[Sequence[int]]) -> str:
    """Match a connected Cartan matrix against the finite types, canonically."""
    return _classify(cart)[0]


def _classify(cart: Sequence[Sequence[int]]) -> Tuple[str, Tuple[int, ...]]:
    """(label, p): the finite type of a connected Cartan matrix and the first
    Cartan isomorphism p from that type's standard matrix onto it."""
    for label in _candidate_labels(len(cart)):
        p = next(cartan_isomorphisms(RootSystem.get(label).cartan, cart), None)
        if p is not None:
            return label, p
    raise ValueError("Cartan matrix is not of finite type")


def cartan_isomorphisms(source: Sequence[Sequence[int]], target: Sequence[Sequence[int]]):
    """Yield permutations p with target[p[i]][p[j]] == source[i][j] for all i, j."""
    n = len(source)
    if len(target) != n:
        return
    src_rows = [tuple(sorted(row)) for row in source]
    tgt_rows = [tuple(sorted(row)) for row in target]
    for p in itertools.permutations(range(n)):
        ok = True
        for i in range(n):
            if src_rows[i] != tgt_rows[p[i]]:
                ok = False
                break
            for j in range(n):
                if target[p[i]][p[j]] != source[i][j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield p
