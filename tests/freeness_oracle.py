"""Reference freeness search: the search that `weylinv.freeness._decide`
replaced.

Before recursing on a pivot it checks the addition theorem on the split
Poincaré polynomials of both the deletion and the restriction, after each
recursion it compares the child's exponents with that split, and its memo
stores the essential coexponents next to the status and pivot.  It also
keeps the modular-coatom shortcut, which the package no longer has: its
coexponents come from the localization's, and its certificate, peeled off
the hyperplanes outside the coatom, is the one certificate in the tests that
the search did not build.  Differential tests compare `weylinv.freeness`
against it; it shares only the arrangement primitives.  `leaf_exponents` is the
certificate verifier's leaf before the closed form: it splits π counted by a
self-contained brute-force NBC enumeration.
"""

from collections import Counter
from typing import Dict, Optional, Tuple

from weylinv.arrangement import (
    Arrangement, Flat, deletion, is_modular_coatom, localization,
    poincare_polynomial, quotient_by_center, restriction,
)
from weylinv.cache import CACHE_SIZE
from weylinv.linalg import pivot_columns, primitive, rank as matrix_rank
from weylinv.polynomials import IntPolynomial, linear_split

FREE = "free"
NOT_INDUCTIVELY_FREE = "not_inductively_free"
UNDETERMINED = "undetermined"


class Search:
    def __init__(self, budget: Optional[int] = None):
        self.memo: Dict[tuple, tuple] = {}   # key -> (status, ess_exps, pivot)
        self.budget = budget

    def pivot_order(self, ess: Arrangement, order: str):
        if order == "height":
            return sorted(ess.normals, key=lambda v: (-sum(abs(x) for x in v), v))
        return list(ess.normals)

    def decide(self, A: Arrangement, order: str):
        """(status, essential coexponents) for the essentialization of A."""
        ess = quotient_by_center(A)
        l = ess.dim
        if l <= 2:
            m = len(ess.normals)
            exps = (() if l == 0 else ((1,) if l == 1 else (1, m - 1)))
            return FREE, exps
        key = (order, ess.dim, ess.normals)
        hit = self.memo.get(key)
        if hit is not None:
            return hit[0], hit[1]
        if self.budget is not None and len(self.memo) >= self.budget:
            return UNDETERMINED, None

        roots = linear_split(poincare_polynomial(ess))
        if roots is None:
            return self._store(key, NOT_INDUCTIVELY_FREE, None, None)

        target = Counter(roots)
        undetermined = False
        for pivot in self.pivot_order(ess, order):
            del_A = deletion(ess, pivot)
            res_A = restriction(ess, pivot)
            mdel = self._padded_split(del_A, l)
            mres = self._padded_split(res_A, l - 1)
            if mdel is None or mres is None:
                continue
            extra = Counter(mdel) - Counter(mres)
            if sum(extra.values()) != 1:
                continue
            e = next(iter(extra))
            if Counter(mres) + Counter([e + 1]) != target:
                continue
            s1, x1 = self.decide(del_A, order)
            if s1 == UNDETERMINED:
                undetermined = True
                continue
            if s1 != FREE or Counter(self._pad(x1, l)) != Counter(mdel):
                continue
            s2, x2 = self.decide(res_A, order)
            if s2 == UNDETERMINED:
                undetermined = True
                continue
            if s2 != FREE or Counter(self._pad(x2, l - 1)) != Counter(mres):
                continue
            return self._store(key, FREE, tuple(roots), pivot)
        if undetermined:
            return UNDETERMINED, None
        return self._store(key, NOT_INDUCTIVELY_FREE, None, None)

    @staticmethod
    def _padded_split(child: Arrangement, width: int):
        roots = linear_split(poincare_polynomial(quotient_by_center(child)))
        if roots is None:
            return None
        return sorted(roots + [0] * (width - len(roots)))

    @staticmethod
    def _pad(ess_exps, width: int):
        return sorted(list(ess_exps) + [0] * (width - len(ess_exps)))

    def _store(self, key, status, exps, pivot):
        if len(self.memo) >= (CACHE_SIZE if self.budget is None else self.budget):
            if self.budget is not None:
                return UNDETERMINED, None
            self.memo.clear()
        self.memo[key] = (status, exps, pivot)
        return status, exps

    def certificate(self, A: Arrangement, order: str):
        ess = quotient_by_center(A)
        if ess.dim <= 2:
            return None
        status, _ = self.decide(ess, order)
        if status != FREE:
            raise ValueError("arrangement is not known to be inductively free")
        pivot = self.memo[(order, ess.dim, ess.normals)][2]
        return {
            "pivot": list(pivot),
            "del": self.certificate(deletion(ess, pivot), order),
            "res": self.certificate(restriction(ess, pivot), order),
        }


_search = Search()


def inductively_free(A: Arrangement, budget: Optional[int] = None, order: str = "lex",
                     with_certificate: bool = True) -> Tuple:
    """(status, coexponents, certificate), as the replaced search gave them."""
    search = _search if budget is None else Search(budget)
    status, ess_exps = search.decide(A, order)
    if status != FREE:
        return status, None, None
    padded = tuple(sorted(list(ess_exps) + [0] * (A.dim - matrix_rank(A.normals))))
    cert = search.certificate(A, order) if with_certificate else None
    return FREE, padded, cert


def freeness_certificate(A: Arrangement, budget: Optional[int] = None, order: str = "lex"):
    return (_search if budget is None else Search(budget)).certificate(A, order)


def modular_coatom_freeness(A: Arrangement, X: Flat, budget: Optional[int] = None,
                            order: str = "lex") -> Tuple:
    """(status, coexponents, certificate) of the replaced coatom shortcut."""
    if not is_modular_coatom(A, X):
        raise ValueError("flat is not a modular coatom")
    AX = localization(A, X)
    status, inner, _ = inductively_free(AX, budget, order, with_certificate=False)
    if status != FREE:
        return status, None, None
    peeled = len(A.normals) - len(AX.normals)
    inner_nonzero = [d for d in inner if d]
    exps = tuple(sorted(inner_nonzero + [peeled] + [0] * (A.dim - matrix_rank(A.normals))))
    return FREE, exps, _peel_certificate(A, frozenset(AX.normals), budget, order)


def _peel_certificate(A: Arrangement, inside: frozenset, budget, order):
    ess = quotient_by_center(A)
    if ess.dim <= 2:
        return None
    outside = [v for v in A.normals if v not in inside]
    if not outside:
        return freeness_certificate(A, budget, order)
    images = _ess_images(A)
    pivot = max(images[v] for v in outside)
    ess_in = frozenset(images[v] for v in A.normals if v in inside)
    return {
        "pivot": list(pivot),
        "del": _peel_certificate(deletion(ess, pivot), ess_in, budget, order),
        "res": freeness_certificate(restriction(ess, pivot), budget, order),
    }


def _ess_images(A: Arrangement):
    pivots = pivot_columns(A.normals)
    return {v: primitive(tuple(v[p] for p in pivots)) for v in A.normals}


def nbc_count_poly(A: Arrangement):
    """Self-contained NBC size counts (brute force, used only at rank <= 2)."""
    normals = list(A.normals)
    m = len(normals)
    counts = [0] * (A.dim + 1)

    def independent(vs):
        return matrix_rank(vs) == len(vs)

    def span_contains(vs, g):
        return matrix_rank(list(vs) + [g]) == matrix_rank(vs)

    def subsets(i, current):
        yield current
        for j in range(i, m):
            if independent(current + [normals[j]]):
                yield from subsets(j + 1, current + [normals[j]])

    for B in subsets(0, []):
        ok = True
        for g in normals:
            if g in B:
                continue
            smaller = [b for b in B if b < g]
            if smaller and span_contains(smaller, g):
                ok = False
                break
        if ok:
            counts[len(B)] += 1
    return counts


def leaf_exponents(A: Arrangement):
    """Essential exponents of a certificate leaf of essential rank <= 2, or
    None if its counted π does not split."""
    ess = quotient_by_center(A)
    roots = linear_split(IntPolynomial(nbc_count_poly(ess)))
    if roots is None:
        return None
    return sorted(roots + [0] * (ess.dim - len(roots)))
