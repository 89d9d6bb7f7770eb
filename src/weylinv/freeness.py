"""Inductive-freeness search with memoization, pivot pre-filtering and
rank-2 early termination, plus emission and independent verification of
freeness certificates.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .arrangement import (
    Arrangement, Flat, deletion, is_modular_coatom, localization,
    poincare_polynomial, quotient_by_center, restriction,
)
from .linalg import pivot_columns, primitive, rank as matrix_rank
from .polynomials import IntPolynomial, linear_split

DEFAULT_MEMO_CAP = 10 ** 6

FREE = "free"
NOT_INDUCTIVELY_FREE = "not_inductively_free"
UNDETERMINED = "undetermined"


@dataclass
class FreenessResult:
    status: str
    coexponents: Optional[Tuple[int, ...]]   # zero-padded to ambient dim, sorted
    q_poly: IntPolynomial
    q_splits: bool
    certificate: Optional[dict] = None       # nested pivot tree; None at leaves

    @property
    def free(self) -> bool:
        return self.status == FREE


class _Search:
    """One memo table; shared across calls via the module-level instance."""

    def __init__(self):
        self.memo: Dict[tuple, tuple] = {}   # key -> (status, ess_exps, pivot)
        self.q_cache: Dict[tuple, IntPolynomial] = {}

    def clear(self):
        self.memo.clear()
        self.q_cache.clear()

    def q(self, ess: Arrangement) -> IntPolynomial:
        key = (ess.dim, ess.normals)
        if key not in self.q_cache:
            self.q_cache[key] = poincare_polynomial(ess)
        return self.q_cache[key]

    def pivot_order(self, ess: Arrangement, order: str) -> List[tuple]:
        if order == "height":
            return sorted(ess.normals, key=lambda v: (-sum(abs(x) for x in v), v))
        return list(ess.normals)

    def decide(self, A: Arrangement, cap: int, order: str) -> Tuple[str, Optional[Tuple[int, ...]]]:
        """(status, essential coexponents) for the essentialization of A."""
        ess = quotient_by_center(A)
        l = ess.dim
        if l <= 2:
            m = len(ess.normals)
            exps = (() if l == 0 else ((1,) if l == 1 else (1, m - 1)))
            return FREE, exps
        key = (ess.dim, ess.normals)
        hit = self.memo.get(key)
        if hit is not None:
            return hit[0], hit[1]
        if len(self.memo) >= cap:
            # over budget: give up instead of re-deriving without the memo
            return UNDETERMINED, None

        q = self.q(ess)
        roots = linear_split(q)
        if roots is None:
            return self._store(key, cap, NOT_INDUCTIVELY_FREE, None, None)

        target = Counter(roots)
        undetermined = False
        for pivot in self.pivot_order(ess, order):
            del_A = deletion(ess, pivot)
            res_A = restriction(ess, pivot)
            # pre-filter on split Poincare polynomials of the children
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
            s1, x1 = self.decide(del_A, cap, order)
            if s1 == UNDETERMINED:
                undetermined = True
                continue
            if s1 != FREE or Counter(self._pad(x1, l)) != Counter(mdel):
                continue
            s2, x2 = self.decide(res_A, cap, order)
            if s2 == UNDETERMINED:
                undetermined = True
                continue
            if s2 != FREE or Counter(self._pad(x2, l - 1)) != Counter(mres):
                continue
            return self._store(key, cap, FREE, tuple(roots), pivot)
        if undetermined:
            return UNDETERMINED, None
        return self._store(key, cap, NOT_INDUCTIVELY_FREE, None, None)

    def _padded_split(self, child: Arrangement, width: int):
        ess = quotient_by_center(child)
        roots = linear_split(self.q(ess))
        if roots is None:
            return None
        return sorted(roots + [0] * (width - len(roots)))

    @staticmethod
    def _pad(ess_exps: Tuple[int, ...], width: int):
        return sorted(list(ess_exps) + [0] * (width - len(ess_exps)))

    def _store(self, key, cap, status, exps, pivot):
        if len(self.memo) >= cap:
            return UNDETERMINED, None
        self.memo[key] = (status, exps, pivot)
        return status, exps

    def certificate(self, A: Arrangement, cap: int, order: str):
        """Nested pivot tree (None = leaf) for an arrangement already decided free."""
        ess = quotient_by_center(A)
        if ess.dim <= 2:
            return None
        status, _ = self.decide(ess, cap, order)
        if status != FREE:
            raise ValueError("arrangement is not known to be inductively free")
        pivot = self.memo[(ess.dim, ess.normals)][2]
        return {
            "pivot": list(pivot),
            "del": self.certificate(deletion(ess, pivot), cap, order),
            "res": self.certificate(restriction(ess, pivot), cap, order),
        }


_search = _Search()


def clear_memo():
    _search.clear()


def memo_cap(budget: Optional[int] = None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get("WEYLINV_MEMO_CAP")
    return int(env) if env else DEFAULT_MEMO_CAP


def inductively_free(A: Arrangement, budget: Optional[int] = None,
                     order: str = "lex", with_certificate: bool = False) -> FreenessResult:
    cap = memo_cap(budget)
    q = poincare_polynomial(A)
    splits = linear_split(q) is not None
    status, ess_exps = _search.decide(A, cap, order)
    if status == FREE:
        padded = tuple(sorted(list(ess_exps) + [0] * (A.dim - matrix_rank(A.normals))))
        cert = _search.certificate(A, cap, order) if with_certificate else None
        return FreenessResult(FREE, padded, q, splits, cert)
    return FreenessResult(status, None, q, splits, None)


def freeness_certificate(A: Arrangement, budget: Optional[int] = None, order: str = "lex"):
    return _search.certificate(A, memo_cap(budget), order)


# -- independent verifier --------------------------------------------------
#
# The verifier shares only the basic arrangement primitives (deletion,
# restriction, essentialization); none of the search logic, memo, or the
# split-polynomial pre-filter.  Leaf exponents come from a self-contained
# NBC enumeration.


class CertificateReject(Exception):
    def __init__(self, path, reason):
        self.path = tuple(path)
        self.reason = reason
        super().__init__(f"{reason} at {'/'.join(self.path) or 'root'}")


def _nbc_count_poly(A: Arrangement) -> List[int]:
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


def _verify(A: Arrangement, cert, path) -> List[int]:
    ess = quotient_by_center(A)
    l = ess.dim
    if cert is None:
        if l > 2:
            raise CertificateReject(path, "leaf certificate at effective rank > 2")
        counts = _nbc_count_poly(ess)
        poly = IntPolynomial(counts)
        roots = linear_split(poly)
        if roots is None:
            raise CertificateReject(path, "leaf Poincare polynomial does not split")
        return sorted(roots + [0] * (l - len(roots)))
    if not isinstance(cert, dict) or set(cert) != {"pivot", "del", "res"}:
        raise CertificateReject(path, "malformed certificate node")
    pivot = cert["pivot"]
    if not isinstance(pivot, (list, tuple)) or any(type(x) is not int for x in pivot):
        raise CertificateReject(path, "pivot entries must be integers")
    pivot = tuple(pivot)
    if pivot not in ess.normals:
        raise CertificateReject(path, "pivot not a hyperplane of the arrangement")
    exps_del = _verify(deletion(ess, pivot), cert["del"], path + ["del"])
    exps_res = _verify(restriction(ess, pivot), cert["res"], path + ["res"])
    exps_del = sorted(exps_del + [0] * (l - len(exps_del)))
    exps_res = sorted(exps_res + [0] * (l - 1 - len(exps_res)))
    extra = Counter(exps_del) - Counter(exps_res)
    if sum(extra.values()) != 1:
        raise CertificateReject(path, "child exponents violate the addition theorem")
    e = next(iter(extra))
    return sorted(exps_res + [e + 1])


def verify_certificate(A: Arrangement, cert):
    """('accept', coexponent tuple) or ('reject', (path, reason))."""
    try:
        ess_exps = _verify(A, cert, [])
    except CertificateReject as rej:
        return "reject", (rej.path, rej.reason)
    except (KeyError, TypeError, ValueError) as e:
        # structurally broken certificates (wrong dimensions, bad types)
        return "reject", ((), f"malformed certificate: {e}")
    full = sorted(ess_exps + [0] * (A.dim - len(ess_exps)))
    return "accept", tuple(full)


def modular_coatom_freeness(A: Arrangement, X: Flat,
                            budget: Optional[int] = None, order: str = "lex") -> FreenessResult:
    """Freeness shortcut through a modular coatom (with certificate synthesis)."""
    if not is_modular_coatom(A, X):
        raise ValueError("flat is not a modular coatom")
    AX = localization(A, X)
    inner = inductively_free(AX, budget, order)
    q = poincare_polynomial(A)
    splits = linear_split(q) is not None
    if not inner.free:
        return FreenessResult(inner.status, None, q, splits, None)
    peeled = len(A.normals) - len(AX.normals)
    ess_rank = matrix_rank(A.normals)
    inner_nonzero = [d for d in inner.coexponents if d]
    exps = tuple(sorted(inner_nonzero + [peeled] + [0] * (A.dim - ess_rank)))
    cert = _peel_certificate(A, frozenset(AX.normals), budget, order)
    return FreenessResult(FREE, exps, q, splits, cert)


def _peel_certificate(A: Arrangement, inside: frozenset, budget, order):
    ess = quotient_by_center(A)
    if ess.dim <= 2:
        return None
    outside = [v for v in A.normals if v not in inside]
    if not outside:
        return freeness_certificate(A, budget, order)
    # peeling changes coordinates under essentialization; recompute which
    # essential normals came from outside the localization
    ess_out = _map_outside(A, inside)
    if not ess_out:
        return freeness_certificate(ess, budget, order)
    pivot = max(ess_out)
    return {
        "pivot": list(pivot),
        "del": _peel_certificate(deletion(ess, pivot), _map_inside(A, inside), budget, order),
        "res": freeness_certificate(restriction(ess, pivot), budget, order),
    }


def _ess_images(A: Arrangement):
    """Original normal -> its (primitive) image in essential coordinates."""
    pivots = pivot_columns(A.normals)
    return {v: primitive(tuple(v[p] for p in pivots)) for v in A.normals}


def _map_outside(A: Arrangement, inside: frozenset):
    images = _ess_images(A)
    return [images[v] for v in A.normals if v not in inside]


def _map_inside(A: Arrangement, inside: frozenset):
    images = _ess_images(A)
    return frozenset(images[v] for v in A.normals if v in inside)
