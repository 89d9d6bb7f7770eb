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
    Arrangement, deletion, poincare_polynomial, quotient_by_center, restriction,
)
from .cache import CACHE_SIZE
from .polynomials import IntPolynomial, linear_split

FREE = "free"
NOT_INDUCTIVELY_FREE = "not_inductively_free"


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


# (order, essential arrangement) -> (status, pivot); the pivot found depends
# on the order, so the order is part of the key.  A plain dict, not `cached`:
# the memo check and the pivot loop stay in one function, so each level of
# the deletion chain costs one Python frame.  Emptied at CACHE_SIZE entries.
_memo: Dict[tuple, tuple] = {}


def _pivot_order(ess: Arrangement, order: str) -> List[tuple]:
    if order == "height":
        return sorted(ess.normals, key=lambda v: (-sum(abs(x) for x in v), v))
    return list(ess.normals)


def _decide(A: Arrangement, order: str) -> tuple:
    """(status, pivot) of the essentialization of A; the pivot is None at
    essential rank <= 2 and when the arrangement is not inductively free."""
    ess = quotient_by_center(A)
    if ess.dim <= 2:
        return FREE, None
    key = (order, ess)
    hit = _memo.get(key)
    if hit is not None:
        return hit

    found = NOT_INDUCTIVELY_FREE, None
    roots = linear_split(poincare_polynomial(ess))
    if roots is not None:
        target = Counter(roots)
        for pivot in _pivot_order(ess, order):
            res_A = restriction(ess, pivot)
            # B^H is essential, one rank below B.  If π(B) = π(B^H)·(1 + (e+1)t),
            # then π(B - H) = π(B) - t·π(B^H) = π(B^H)·(1 + e·t) splits too,
            # so this one test is the whole addition-theorem condition
            mres = linear_split(poincare_polynomial(res_A))
            if mres is None or sum((target - Counter(mres)).values()) != 1:
                continue
            if (_decide(deletion(ess, pivot), order)[0] == FREE
                    and _decide(res_A, order)[0] == FREE):
                found = FREE, pivot
                break
    if len(_memo) >= CACHE_SIZE:
        _memo.clear()   # entries are pure, so any of them may go
    _memo[key] = found
    return found


def _certificate(A: Arrangement, order: str):
    """Nested pivot tree (None = leaf) of an inductively free arrangement."""
    ess = quotient_by_center(A)
    if ess.dim <= 2:
        return None
    pivot = _decide(ess, order)[1]
    return {
        "pivot": list(pivot),
        "del": _certificate(deletion(ess, pivot), order),
        "res": _certificate(restriction(ess, pivot), order),
    }


def _coexponents(roots: List[int], dim: int) -> Tuple[int, ...]:
    """Terao's factorization: a free arrangement's coexponents are the roots
    of π, with one zero per dimension of the center."""
    return tuple([0] * (dim - len(roots)) + roots)


def inductively_free(A: Arrangement, order: str = "lex",
                     with_certificate: bool = False) -> FreenessResult:
    q = poincare_polynomial(A)
    roots = linear_split(q)
    status = _decide(A, order)[0]
    if status == FREE:
        cert = _certificate(A, order) if with_certificate else None
        return FreenessResult(FREE, _coexponents(roots, A.dim), q, True, cert)
    return FreenessResult(status, None, q, roots is not None, None)


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
