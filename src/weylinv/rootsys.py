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

from .linalg import Eliminator, det, solve_coords

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
        # positive definiteness via leading principal minors
        for k in range(1, n + 1):
            if det([row[:k] for row in B[:k]]) <= 0:
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


def datum_from_cartan(matrix: Sequence[Sequence[int]], norms: Sequence[Fraction],
                      label: str = "sub") -> CartanDatum:
    """Datum for an explicitly given (valid) Cartan matrix, e.g. a subsystem."""
    n = len(matrix)
    return CartanDatum(label, n, tuple(tuple(int(x) for x in row) for row in matrix),
                       tuple(Fraction(x) / 2 for x in norms))


def root_height(beta: Root) -> int:
    return sum(beta)


def is_positive_root_vector(beta: Sequence[int]) -> bool:
    return all(x >= 0 for x in beta) and any(x > 0 for x in beta)


class RootSystem:
    """A root system built from a Cartan datum, with exact reflection arithmetic."""

    _cache: Dict[object, "RootSystem"] = {}

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

    @property
    def type_string(self) -> str:
        return "+".join(self.type_components) if self.type_components else "empty"

    def coords(self, beta: Root) -> Root:
        """Coordinates of an ambient subsystem root in the Delta_U basis."""
        c = solve_coords(self.simple_roots, beta)
        if c is None or any(x.denominator != 1 for x in c):
            raise ValueError("vector is not in the subsystem lattice")
        return c

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
    n = len(simples)
    norms = [system.inner_product(d, d) for d in simples]
    # normalize so long roots of each component have norm 2; scaling the form
    # leaves the Cartan matrix unchanged, so just build the Cartan matrix
    cart = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = 2 * system.inner_product(simples[i], simples[j]) / norms[i]
            assert c.denominator == 1
            cart[i][j] = int(c)
    comps = _components(cart)
    labels = []
    for comp in comps:
        sub = [[cart[i][j] for j in comp] for i in comp]
        labels.append(classify_irreducible(sub))
    datum = datum_from_cartan(cart, _normalized_norms(cart, norms))
    return Subsystem(system, pos, tuple(simples), datum, tuple(sorted(labels)))


def _normalized_norms(cart, norms) -> List[Fraction]:
    """Rescale norms so that each component's long roots have norm 2."""
    out = [Fraction(x) for x in norms]
    for comp in _components(cart):
        top = max(out[i] for i in comp)
        for i in comp:
            out[i] = out[i] * 2 / top
    return out


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
    r = len(cart)
    for label in _candidate_labels(r):
        std = cartan_datum(label).cartan_matrix
        if next(cartan_isomorphisms(std, cart), None) is not None:
            return label
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
