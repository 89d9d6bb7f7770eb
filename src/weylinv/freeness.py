"""Inductive-freeness search with memoization and rank-2 early termination,
plus emission and independent verification of freeness certificates.

A pivot H of the essential arrangement B is tried only if π(B^H) splits
into the roots of π(B) less exactly one; by deletion-restriction that one
test is the addition theorem's condition on the Poincaré polynomials, and
π(B − H) then splits as well.  The memo keeps (status, pivot); the
coexponents of a free arrangement are the roots of its π (Terao's
factorization), padded with zeros to the ambient dimension.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .arrangement import (
    Arrangement, Flat, deletion, is_modular_coatom, localization,
    poincare_polynomial, quotient_by_center, restriction,
)
from .cache import CACHE_SIZE
from .linalg import pivot_columns, primitive
from .polynomials import IntPolynomial, linear_split

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
    """Memo of decided arrangements. Without a budget it is the shared,
    process-wide instance, emptied when it reaches CACHE_SIZE entries; with
    one it is fresh per call and gives up once it holds `budget` entries."""

    def __init__(self, budget: Optional[int] = None):
        self.memo: Dict[tuple, tuple] = {}   # key -> (status, pivot)
        self.budget = budget

    def pivot_order(self, ess: Arrangement, order: str) -> List[tuple]:
        if order == "height":
            return sorted(ess.normals, key=lambda v: (-sum(abs(x) for x in v), v))
        return list(ess.normals)

    def decide(self, A: Arrangement, order: str) -> str:
        """Status of the essentialization of A."""
        ess = quotient_by_center(A)
        if ess.dim <= 2:
            return FREE
        # the pivot found depends on the order, so the order is part of the key
        key = (order, ess)
        hit = self.memo.get(key)
        if hit is not None:
            return hit[0]
        if self.budget is not None and len(self.memo) >= self.budget:
            # over budget: give up instead of re-deriving without the memo
            return UNDETERMINED

        roots = linear_split(poincare_polynomial(ess))
        if roots is None:
            return self._store(key, NOT_INDUCTIVELY_FREE, None)

        target = Counter(roots)
        undetermined = False
        for pivot in self.pivot_order(ess, order):
            res_A = restriction(ess, pivot)
            # B^H is essential, one rank below B.  If π(B) = π(B^H)·(1 + (e+1)t),
            # then π(B - H) = π(B) - t·π(B^H) = π(B^H)·(1 + e·t) splits too,
            # so this one test is the whole addition-theorem condition
            mres = linear_split(poincare_polynomial(res_A))
            if mres is None or sum((target - Counter(mres)).values()) != 1:
                continue
            status = self.decide(deletion(ess, pivot), order)
            if status == FREE:
                status = self.decide(res_A, order)
            if status == FREE:
                return self._store(key, FREE, pivot)
            undetermined = undetermined or status == UNDETERMINED
        if undetermined:
            return UNDETERMINED
        return self._store(key, NOT_INDUCTIVELY_FREE, None)

    def _store(self, key, status, pivot):
        if len(self.memo) >= (CACHE_SIZE if self.budget is None else self.budget):
            if self.budget is not None:
                return UNDETERMINED
            self.memo.clear()   # entries are pure, so any of them may go
        self.memo[key] = (status, pivot)
        return status

    def certificate(self, A: Arrangement, order: str):
        """Nested pivot tree (None = leaf) for an arrangement already decided free."""
        ess = quotient_by_center(A)
        if ess.dim <= 2:
            return None
        if self.decide(ess, order) != FREE:
            raise ValueError("arrangement is not known to be inductively free")
        pivot = self.memo[(order, ess)][1]
        return {
            "pivot": list(pivot),
            "del": self.certificate(deletion(ess, pivot), order),
            "res": self.certificate(restriction(ess, pivot), order),
        }


_search = _Search()


def _coexponents(roots: List[int], dim: int) -> Tuple[int, ...]:
    """Terao's factorization: a free arrangement's coexponents are the roots
    of π, with one zero per dimension of the center."""
    return tuple([0] * (dim - len(roots)) + roots)


def inductively_free(A: Arrangement, budget: Optional[int] = None,
                     order: str = "lex", with_certificate: bool = False) -> FreenessResult:
    search = _search if budget is None else _Search(budget)
    q = poincare_polynomial(A)
    roots = linear_split(q)
    status = search.decide(A, order)
    if status == FREE:
        cert = search.certificate(A, order) if with_certificate else None
        return FreenessResult(FREE, _coexponents(roots, A.dim), q, True, cert)
    return FreenessResult(status, None, q, roots is not None, None)


def freeness_certificate(A: Arrangement, budget: Optional[int] = None, order: str = "lex"):
    return (_search if budget is None else _Search(budget)).certificate(A, order)


# -- independent verifier --------------------------------------------------
#
# The verifier shares only the basic arrangement primitives (deletion,
# restriction, essentialization); none of the search logic, memo, or the
# split-polynomial pre-filter.  Leaf exponents come from the closed form of
# π at essential rank <= 2.


class CertificateReject(Exception):
    def __init__(self, path, reason):
        self.path = tuple(path)
        self.reason = reason
        super().__init__(f"{reason} at {'/'.join(self.path) or 'root'}")


def _verify(A: Arrangement, cert, path) -> List[int]:
    ess = quotient_by_center(A)
    l = ess.dim
    if cert is None:
        if l > 2:
            raise CertificateReject(path, "leaf certificate at effective rank > 2")
        # m hyperplanes of essential rank l <= 2 have π = (1, m, m − 1)[:l + 1],
        # which is (1 + t)(1 + (m − 1)t) truncated to degree l
        return [1, len(ess.normals) - 1][:l]
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
    roots = linear_split(q)
    if not inner.free:
        return FreenessResult(inner.status, None, q, roots is not None, None)
    # π(A) = π(A_X)·(1 + |A - A_X|·t) for a modular coatom X, so A is free
    # with the roots of π(A) as coexponents
    cert = _peel_certificate(A, frozenset(AX.normals), budget, order)
    return FreenessResult(FREE, _coexponents(roots, A.dim), q, True, cert)


def _peel_certificate(A: Arrangement, inside: frozenset, budget, order):
    ess = quotient_by_center(A)
    if ess.dim <= 2:
        return None
    # peeling changes coordinates under essentialization; map every normal
    # to its essential image once and split the images by `inside`
    pivots = pivot_columns(A.normals)
    images = {v: primitive(tuple(v[p] for p in pivots)) for v in A.normals}
    ess_out = [images[v] for v in A.normals if v not in inside]
    if not ess_out:
        return freeness_certificate(ess, budget, order)
    pivot = max(ess_out)
    ess_in = frozenset(images[v] for v in A.normals if v in inside)
    return {
        "pivot": list(pivot),
        "del": _peel_certificate(deletion(ess, pivot), ess_in, budget, order),
        "res": freeness_certificate(restriction(ess, pivot), budget, order),
    }
