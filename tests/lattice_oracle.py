"""Reference lattice-of-flats code: the flats engine before each covering
flat was closed once and the pair-meets test was shared.

`flats_of_rank` closes F + {i} for every i outside every flat F of the level
below; `flat_of` also stores a kernel basis of the flat; `is_modular_coatom`
and `pair_span_chain` test every pair against every vector with one 3-row
rank each.  Differential tests compare `weylinv.arrangement` and the chain
pre-filter of `weylinv.smoothness` against them.
"""

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Tuple

from weylinv.arrangement import localization
from weylinv.inversion import inversion_set
from weylinv.linalg import Eliminator, kernel_basis, rank as matrix_rank


@dataclass(frozen=True)
class Flat:
    subspace: Tuple[Tuple, ...]          # RREF basis rows of the subspace
    contains: FrozenSet[int]             # closed set of hyperplane indices


def _closure(A, indices):
    elim = Eliminator()
    for i in indices:
        elim.add(A.normals[i])
    return frozenset(i for i, v in enumerate(A.normals) if elim.in_span(v))


def flat_of(A, indices):
    closed = _closure(A, indices)
    sub = kernel_basis([A.normals[i] for i in sorted(closed)], A.dim) if closed else \
        tuple(tuple(int(i == j) for j in range(A.dim)) for i in range(A.dim))
    return Flat(sub, closed)


def flats_of_rank(A, target):
    level = {_closure(A, ()): None}
    r = 0
    while r < target:
        nxt = {}
        for closed in level:
            for i in range(len(A.normals)):
                if i not in closed:
                    bigger = _closure(A, list(closed) + [i])
                    nxt.setdefault(bigger, None)
        level = nxt
        r += 1
        if not level:
            break
    return [flat_of(A, closed) for closed in level]


def is_modular_coatom(A, X):
    if matrix_rank([A.normals[i] for i in X.contains]) != A.rank() - 1:
        raise ValueError("flat is not a coatom")
    inside = [A.normals[i] for i in sorted(X.contains)]
    outside = [v for i, v in enumerate(A.normals) if i not in X.contains]
    for a in range(len(outside)):
        for b in range(a + 1, len(outside)):
            h1, h2 = outside[a], outside[b]
            if not any(matrix_rank([h1, h2, h3]) <= 2 for h3 in inside):
                return False
    return True


def supersolvable_chain(A):
    """The witness chain of `is_supersolvable`, or None; uncached."""
    if A.rank() <= 2:
        return ()
    for X in flats_of_rank(A, A.rank() - 1):
        if is_modular_coatom(A, X):
            sub = supersolvable_chain(localization(A, X))
            if sub is not None:
                return (frozenset(A.normals[i] for i in X.contains),) + sub
    return None


def pair_span_chain(v, J):
    """Every pair of inversions of v must span a plane meeting R_J."""
    inv = inversion_set(v).roots
    RJ = [b for b in v.group.system.positive_roots
          if all(c == 0 for i, c in enumerate(b) if i not in J)]
    for a, b in itertools.combinations(inv, 2):
        if not any(matrix_rank([a, b, g]) <= 2 for g in RJ):
            return False
    return True
