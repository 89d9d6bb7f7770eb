"""Exact central hyperplane arrangements.

An arrangement is a canonical set of primitive, sign-normalized integer
normal vectors; hyperplanes are kernels of the corresponding dot-product
functionals.  All computations are exact over the rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .cache import cached
from .linalg import Eliminator, pivot_columns, primitive, rank as matrix_rank
from .polynomials import IntPolynomial

Normal = Tuple[int, ...]


@dataclass(frozen=True)
class Arrangement:
    dim: int
    normals: Tuple[Normal, ...]

    def __init__(self, dim: int, normals: Iterable[Sequence[int]]):
        try:
            canon = sorted({primitive(v) for v in normals if any(v)})
        except TypeError:
            raise ValueError("normal entries must be integers") from None
        for v in canon:
            if len(v) != dim:
                raise ValueError("normal has wrong dimension")
        self._set(int(dim), tuple(canon))

    @classmethod
    def _canonical(cls, dim: int, normals: Tuple[Normal, ...]) -> "Arrangement":
        """The arrangement of normals that are already canonical: distinct,
        sorted, primitive, first nonzero entry positive, of length dim."""
        A = object.__new__(cls)
        A._set(dim, normals)
        return A

    def _set(self, dim: int, normals: Tuple[Normal, ...]):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "normals", normals)
        # every memo lookup hashes its key, so the hash is computed once
        object.__setattr__(self, "_hash", hash((dim, normals)))

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.normals)

    def rank(self) -> int:
        return matrix_rank(self.normals)


@dataclass(frozen=True)
class Flat:
    """A flat, stored as the set of hyperplanes containing it."""
    contains: FrozenSet[int]             # closed set of hyperplane indices


def _closure(A: Arrangement, indices: Iterable[int]) -> FrozenSet[int]:
    elim = Eliminator()
    for i in indices:
        elim.add(A.normals[i])
    return frozenset(i for i, v in enumerate(A.normals) if elim.in_span(v))


def flat_of(A: Arrangement, indices: Iterable[int]) -> Flat:
    return Flat(_closure(A, indices))


def _hyperplane(A: Arrangement, normal: Sequence[int]) -> Normal:
    """A's own normal equal to `normal`, which is already canonical, or
    else the primitive form of `normal`."""
    try:
        return A.normals[A.normals.index(normal)]
    except ValueError:
        try:
            return primitive(normal)
        except TypeError:
            raise ValueError("normal entries must be integers") from None


def deletion(A: Arrangement, normal: Sequence[int]) -> Arrangement:
    return _deletion(A, _hyperplane(A, normal))


@cached
def _deletion(A: Arrangement, h: Normal) -> Arrangement:
    try:
        i = A.normals.index(h)
    except ValueError:
        raise ValueError("hyperplane not in arrangement") from None
    return Arrangement._canonical(A.dim, A.normals[:i] + A.normals[i + 1:])


def restriction(A: Arrangement, normal: Sequence[int]) -> Arrangement:
    return _restriction(A, _hyperplane(A, normal))


@cached
def _restriction(A: Arrangement, h: Normal) -> Arrangement:
    """A^H in the coordinates of the canonical (RREF-derived) basis of
    ker(h).  With p the first nonzero column of h, that basis has one vector
    per column f != p, ±(h_p·e_f − h_f·e_p)/gcd(h_p, h_f), negated exactly
    when p < f and h_f > 0 so that its first nonzero entry is positive; the
    coordinate f of a normal v is its dot product with that vector."""
    if h not in A.normals:
        raise ValueError("hyperplane not in arrangement")
    p = next(j for j, x in enumerate(h) if x)
    hp = h[p]
    coeffs = []   # (f, a, b): coordinate f of v is a·v_f − b·v_p
    for f, hf in enumerate(h):
        if f != p:
            g = -gcd(hp, hf) if f > p and hf > 0 else gcd(hp, hf)
            coeffs.append((f, hp // g, hf // g))
    return Arrangement(A.dim - 1, [tuple([a * v[f] - b * v[p] for f, a, b in coeffs])
                                   for v in A.normals if v != h])


def localization(A: Arrangement, X: Flat) -> Arrangement:
    if _closure(A, X.contains) != X.contains:
        raise ValueError("not a flat of this arrangement")
    return Arrangement._canonical(A.dim, tuple(A.normals[i] for i in sorted(X.contains)))


@cached
def quotient_by_center(A: Arrangement) -> Arrangement:
    """Re-coordinatize so the center becomes 0: express normals in the
    canonical RREF basis of their span, whose rows are unit vectors on its
    pivot columns, so a normal's coordinates are its entries there."""
    pivots = pivot_columns(A.normals)
    if len(pivots) == A.dim:
        return A
    return Arrangement(len(pivots), [tuple(v[p] for p in pivots) for v in A.normals])


def nbc_sets(A: Arrangement, order: Optional[Sequence[Normal]] = None) -> List[Tuple[Normal, ...]]:
    """All NBC subsets under the given total order (default: canonical order).

    A subset B is NBC iff it is independent and no gamma outside B lies in
    the span of {b in B : b < gamma} (broken circuit = circuit minus its
    largest element).
    """
    ordered = list(A.normals) if order is None else [primitive(v) for v in order]
    if sorted(ordered) != list(A.normals):
        raise ValueError("order must be a permutation of the arrangement's normals")
    out: List[Tuple[Normal, ...]] = []
    m = len(ordered)

    def rec(i: int, taken: List[Normal], elim: Eliminator):
        if i == m:
            out.append(tuple(taken))
            return
        gamma = ordered[i]
        ext = elim.copy()
        if not ext.add(gamma):
            # gamma is in the span: it can be neither taken (dependent) nor
            # skipped (it would be a broken-circuit witness for every completion)
            return
        taken.append(gamma)
        rec(i + 1, taken, ext)
        taken.pop()
        rec(i + 1, taken, elim)

    rec(0, [], Eliminator())
    return out


def nbc_counts_by_size(A: Arrangement, order: Optional[Sequence[Normal]] = None) -> List[int]:
    counts: List[int] = []
    for b in nbc_sets(A, order):
        k = len(b)
        while len(counts) <= k:
            counts.append(0)
        counts[k] += 1
    return counts or [1]


@cached
def poincare_polynomial(A: Arrangement) -> IntPolynomial:
    """π(A) by deletion-restriction, π(B) = π(B − H) + t·π(B^H) (Orlik-Terao
    Thm 2.56), on the essential form B with H its first normal.  The deletion
    chain is walked in a loop and only restrictions recurse, so the depth is
    at most the rank; at rank <= 2, π of m hyperplanes is 1, 1 + t or
    1 + m·t + (m − 1)·t²."""
    B = quotient_by_center(A)
    acc = IntPolynomial((0,))
    while B.dim > 2:
        H = B.normals[0]
        res = poincare_polynomial(restriction(B, H))
        acc = acc + IntPolynomial((0,) + res.coeffs)   # + t·π(B^H)
        B = quotient_by_center(deletion(B, H))
    m = len(B.normals)
    return acc + IntPolynomial((1, m, m - 1)[:B.dim + 1])


def characteristic_polynomial(A: Arrangement) -> IntPolynomial:
    q = poincare_polynomial(A).coeffs
    l = A.dim
    coeffs = [0] * (l + 1)
    for i, c in enumerate(q):
        coeffs[l - i] += c * (-1) ** i
    return IntPolynomial(coeffs)


def flats_of_rank(A: Arrangement, target: int) -> List[Flat]:
    """All flats of the given matroid rank, generated level by level.

    The flats covering F partition the hyperplanes outside F, one block per
    line of V/span(F) (Orlik-Terao §2.1): each normal outside F is reduced
    once against F's normals, and the normals whose residues are parallel
    form one block.  Blocks come in order of their smallest index."""
    if target < 0:
        return []
    level: Dict[FrozenSet[int], None] = {frozenset(): None}
    for _ in range(target):
        nxt: Dict[FrozenSet[int], None] = {}
        for closed in level:
            elim = Eliminator()
            for i in closed:
                elim.add(A.normals[i])
            blocks: Dict[Normal, List[int]] = {}
            for i, v in enumerate(A.normals):
                if i not in closed:
                    blocks.setdefault(primitive(elim.reduce(v)), []).append(i)
            for block in blocks.values():
                nxt[closed.union(block)] = None
        level = nxt
    return [Flat(closed) for closed in level]


def coatoms(A: Arrangement) -> List[Flat]:
    return flats_of_rank(A, A.rank() - 1)


def is_modular_coatom(A: Arrangement, X: Flat) -> bool:
    if matrix_rank([A.normals[i] for i in X.contains]) != A.rank() - 1:
        raise ValueError("flat is not a coatom")
    return pairs_meet_flat(A, X)


def pairs_meet_flat(A: Arrangement, X: Flat) -> bool:
    """The pair test of a modular coatom X: whether every two normals of A
    outside X span a plane that holds a normal of X."""
    return every_pair_meets([v for i, v in enumerate(A.normals) if i not in X.contains],
                            [A.normals[i] for i in sorted(X.contains)])


def every_pair_meets(outside: Sequence[Sequence[int]], inside: Sequence[Sequence[int]]) -> bool:
    """Whether every two of the nonzero vectors `outside` span a plane that
    holds a vector of `inside` (two parallel vectors pass)."""
    for a, b in itertools.combinations(outside, 2):
        plane = Eliminator()
        plane.add(a)
        if plane.add(b) and not any(plane.in_span(g) for g in inside):
            return False
    return True


def is_supersolvable(A: Arrangement):
    """(True, witness chain) or (False, None).

    The witness lists, outermost first, the hyperplane normals of the
    localization at each successive modular coatom.
    """
    chain = _supersolvable_chain(A)
    return (True, chain) if chain is not None else (False, None)


@cached
def _supersolvable_chain(A: Arrangement):
    if A.rank() <= 2:
        return ()
    for X in coatoms(A):
        # X comes from coatoms(A), so only the pair test of is_modular_coatom is due
        if pairs_meet_flat(A, X):
            sub = _supersolvable_chain(localization(A, X))
            if sub is not None:
                return (frozenset(A.normals[i] for i in X.contains),) + sub
    return None
