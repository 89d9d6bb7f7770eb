"""Reference Fraction elimination: the routines the integer kernel replaced.

Differential tests compare `weylinv.linalg`, the essentialization in
`weylinv.arrangement`, the flats scanned by `weylinv.smoothness.pattern_hits`
and `weylinv.rootsys.Subsystem.coords` against these straightforward
rational versions.
"""

from fractions import Fraction
from math import gcd, lcm

from weylinv.arrangement import Arrangement


def primitive(vec):
    """Clear denominators, divide by the gcd, make the first nonzero entry positive."""
    vec = [Fraction(x) for x in vec]
    d = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (d // x.denominator) for x in vec]
    g = gcd(*ints)
    if g == 0:
        return tuple(ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def cofactor_det(sub):
    """Determinant by cofactor expansion along the first row."""
    k = len(sub)
    if k == 0:
        return 1
    out = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1:] for row in sub[1:]]
        out += (-1) ** j * sub[0][j] * cofactor_det(minor)
    return out


def rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination over Fractions."""
    work = [[Fraction(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        c = work[r][col]
        work[r] = [x / c for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                d = work[i][col]
                work[i] = [x - d * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r])


def kernel_basis(rows, ncols):
    R = rref(rows)
    pivots = [next(j for j, x in enumerate(row) if x) for row in R]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(R, pivots):
            vec[p] = -row[f]
        basis.append(primitive(vec))
    return tuple(basis)


def solve_coords(basis, vec):
    n = len(basis)
    if n == 0:
        return () if not any(vec) else None
    aug = [[Fraction(b[j]) for b in basis] + [Fraction(vec[j])] for j in range(len(vec))]
    coords = [Fraction(0)] * n
    for row in rref(aug):
        p = next(j for j, x in enumerate(row) if x)
        if p == n:
            return None
        coords[p] = row[n]
    return tuple(coords)


def quotient_by_center(A):
    """Normals re-expressed in the RREF basis of their span, one solve per
    normal, each scaled to primitive integer coordinates."""
    if not A.normals:
        return Arrangement(0, [])
    basis = rref(A.normals)
    return Arrangement(len(basis), [primitive(solve_coords(basis, v)) for v in A.normals])
