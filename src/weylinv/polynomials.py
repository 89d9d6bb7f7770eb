"""Dense integer polynomials in one variable, lowest degree first."""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from .cache import cached


class IntPolynomial:
    """Immutable dense integer-coefficient polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = (0,)):
        cs = [int(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPolynomial(out)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def divide_exact(self, divisor: "IntPolynomial") -> Optional["IntPolynomial"]:
        """Quotient if divisor divides self exactly over Z, else None."""
        num = list(self.coeffs)
        den = divisor.coeffs
        if den == (0,):
            return None
        dd = len(den) - 1
        if len(num) - 1 < dd:
            return None if any(num) else IntPolynomial((0,))
        out = [0] * (len(num) - dd)
        lead = den[-1]
        for i in range(len(out) - 1, -1, -1):
            c = num[i + dd]
            if c % lead:
                return None
            q = c // lead
            out[i] = q
            if q:
                for j, d in enumerate(den):
                    num[i + j] -= q * d
        if any(num):
            return None
        return IntPolynomial(out)

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    def reversed(self) -> "IntPolynomial":
        return IntPolynomial(tuple(reversed(self.coeffs)))


ONE = IntPolynomial((1,))


def q_int(m: int) -> IntPolynomial:
    """[m]_q = 1 + q + ... + q^(m-1); [0]_q = 0."""
    if m <= 0:
        return IntPolynomial((0,))
    return IntPolynomial((1,) * m)


def product(polys) -> IntPolynomial:
    acc = ONE
    for p in polys:
        acc = acc * p
    return acc


@cached
def cyclotomic(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial, via q^d - 1 = prod_{e | d} Phi_e."""
    num = IntPolynomial((-1,) + (0,) * (d - 1) + (1,))
    for e in range(1, d):
        if d % e == 0:
            num = num.divide_exact(cyclotomic(e))
    return num


def q_integer_factorization(p: IntPolynomial):
    """Multiset of exponents {m_i} with p = prod [m_i + 1]_q, or None.

    Factors p into cyclotomic polynomials ([n]_q = prod_{d | n, d > 1}
    Phi_d), then rebuilds the q-integers from the largest index down; the
    factorization is unique when it exists.
    """
    if p.coeffs[0] != 1:
        raise ValueError("polynomial must have constant term 1")
    if p == ONE:
        return []
    mult = {}
    rem = p
    for d in range(2, p.degree + 2):
        while True:
            q = rem.divide_exact(cyclotomic(d))
            if q is None:
                break
            mult[d] = mult.get(d, 0) + 1
            rem = q
    if rem != ONE:
        return None
    out = []
    while mult:
        n = max(mult)
        out.append(n - 1)
        for d in range(2, n + 1):
            if n % d == 0:
                mult[d] = mult.get(d, 0) - 1
                if mult[d] < 0:
                    return None
                if mult[d] == 0:
                    del mult[d]
    return sorted(out)


def linear_split(p: IntPolynomial):
    """Multiset {d_i >= 1} with p = prod (1 + d_i t), sorted, or None if p does not split."""
    roots = _linear_split(p)
    return None if roots is None else list(roots)


@cached
def _linear_split(p: IntPolynomial) -> Optional[Tuple[int, ...]]:
    if p.coeffs[0] != 1:
        return None
    roots = []
    poly = p
    d = 1
    while poly.degree > 0:
        # any linear factor (1 + d t) has d dividing the leading coefficient
        if d > abs(poly.coeffs[-1]):
            return None
        q = poly.divide_exact(IntPolynomial((1, d))) if poly.coeffs[-1] % d == 0 else None
        if q is not None:
            roots.append(d)
            poly = q
        else:
            d += 1
    return tuple(sorted(roots)) if poly == ONE else None
