"""Exact central hyperplane arrangements.

An arrangement is a canonical set of primitive, sign-normalized integer
normal vectors; hyperplanes are kernels of the corresponding dot-product
functionals.  All computations are exact over the rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .cache import cached
from .linalg import Eliminator, kernel_basis, pivot_columns, primitive, rank as matrix_rank
from .polynomials import IntPolynomial

Normal = Tuple[int, ...]


@dataclass(frozen=True)
class Arrangement:
    dim: int
    normals: Tuple[Normal, ...]

    def __init__(self, dim: int, normals: Iterable[Sequence[int]]):
        canon = sorted({primitive(v) for v in normals if any(v)})
        for v in canon:
            if len(v) != dim:
                raise ValueError("normal has wrong dimension")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "normals", tuple(canon))

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


def deletion(A: Arrangement, normal: Sequence[int]) -> Arrangement:
    h = primitive(normal)
    if h not in A.normals:
        raise ValueError("hyperplane not in arrangement")
    return Arrangement(A.dim, [v for v in A.normals if v != h])


def restriction_basis(normal: Sequence[int]) -> Tuple[Tuple, ...]:
    """Canonical (RREF-derived) basis of the hyperplane ker(normal)."""
    return kernel_basis([primitive(normal)], len(normal))


def restriction(A: Arrangement, normal: Sequence[int]) -> Arrangement:
    h = primitive(normal)
    if h not in A.normals:
        raise ValueError("hyperplane not in arrangement")
    basis = restriction_basis(h)
    restricted = []
    for v in A.normals:
        if v == h:
            continue
        restricted.append(tuple(sum(x * y for x, y in zip(v, b)) for b in basis))
    return Arrangement(A.dim - 1, [r for r in restricted if any(r)])


def localization(A: Arrangement, X: Flat) -> Arrangement:
    if _closure(A, X.contains) != X.contains:
        raise ValueError("not a flat of this arrangement")
    return Arrangement(A.dim, [A.normals[i] for i in sorted(X.contains)])


def quotient_by_center(A: Arrangement) -> Arrangement:
    """Re-coordinatize so the center becomes 0: express normals in the
    canonical RREF basis of their span, whose rows are unit vectors on its
    pivot columns, so a normal's coordinates are its entries there."""
    pivots = pivot_columns(A.normals)
    if len(pivots) == A.dim:
        return A
    return Arrangement(len(pivots), [tuple(v[p] for p in pivots) for v in A.normals])


def matroid_rank(A: Arrangement, subset: Iterable[int]) -> int:
    return matrix_rank([A.normals[i] for i in subset])


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
    return IntPolynomial(nbc_counts_by_size(A))


def characteristic_polynomial(A: Arrangement) -> IntPolynomial:
    q = poincare_polynomial(A).coeffs
    l = A.dim
    coeffs = [0] * (l + 1)
    for i, c in enumerate(q):
        coeffs[l - i] += c * (-1) ** i
    return IntPolynomial(coeffs)


def flats_of_rank(A: Arrangement, target: int) -> List[Flat]:
    """All flats of the given matroid rank, generated level by level.

    The flats covering F partition the hyperplanes outside F, so each one is
    closed once, from the first index it holds."""
    level: Dict[FrozenSet[int], None] = {_closure(A, ()): None}
    for _ in range(target):
        nxt: Dict[FrozenSet[int], None] = {}
        for closed in level:
            covered = set(closed)
            for i in range(len(A.normals)):
                if i not in covered:
                    bigger = _closure(A, [*closed, i])
                    covered |= bigger
                    nxt[bigger] = None
        level = nxt
    return [Flat(closed) for closed in level]


def coatoms(A: Arrangement) -> List[Flat]:
    return flats_of_rank(A, A.rank() - 1)


def is_modular_coatom(A: Arrangement, X: Flat) -> bool:
    if matroid_rank(A, X.contains) != A.rank() - 1:
        raise ValueError("flat is not a coatom")
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
        if is_modular_coatom(A, X):
            sub = _supersolvable_chain(localization(A, X))
            if sub is not None:
                return (frozenset(A.normals[i] for i in X.contains),) + sub
    return None
