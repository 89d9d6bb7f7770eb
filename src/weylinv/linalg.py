"""Exact fraction-free linear algebra on small integer matrices.

Vectors are tuples and matrices are sequences of row tuples. `Eliminator`
takes rows of Python ints; `rank`, `pivot_columns`, `rref`, `kernel_basis`,
`solve_coords`, `det` and `primitive` also accept Fraction entries and scale
each row to integers first. Every elimination uses one step, `_clear`:
a·row − x·pivot_row with a the pivot entry and x the entry of the row in the
pivot column, so no loop does Fraction arithmetic and nothing here ever
touches floating point. Results with rational entries (`rref`,
`solve_coords`, `det`) divide once per row at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, List, Sequence, Tuple

Vector = Tuple
Matrix = Tuple[Vector, ...]


def _clear(row, prow, p: int) -> List[int]:
    """a·row − x·prow with a = prow[p] and x = row[p], so column p becomes 0."""
    a, x = prow[p], row[p]
    return [a * u - x * v for u, v in zip(row, prow)]


def _integral(row: Sequence) -> Sequence[int]:
    """The row itself if it is all ints, else its multiple by the lcm of its denominators."""
    try:
        gcd(*row)   # raises TypeError on any entry that is not an int
        return row
    except TypeError:
        d = lcm(*(x.denominator for x in row))
        return [x.numerator * (d // x.denominator) for x in row]


class Eliminator:
    """Incremental fraction-free Gaussian elimination over the integers.

    Keeps a list of primitive integer rows with distinct pivots, the first
    nonzero column of each; a row is 0 at the pivots of the rows before it.
    `add` takes a row of ints and returns True when it increased the rank.
    `in_span` tests membership without mutating.
    """

    def __init__(self):
        self.rows = []      # primitive integer rows; never mutated in place
        self.pivots = []    # pivot column per row

    def _reduce(self, row):
        for r, p in zip(self.rows, self.pivots):
            if row[p]:
                row = _clear(row, r, p)
        return row

    def add(self, row) -> bool:
        work = self._reduce(row)
        for j, x in enumerate(work):
            if x:
                g = gcd(*work)
                self.rows.append([u // g for u in work] if g > 1 else work)
                self.pivots.append(j)
                return True
        return False

    def in_span(self, row) -> bool:
        return not any(self._reduce(row))

    def copy(self) -> "Eliminator":
        other = Eliminator()
        other.rows = self.rows[:]
        other.pivots = self.pivots[:]
        return other


def _echelon(rows: Iterable[Sequence]) -> Eliminator:
    elim = Eliminator()
    for row in rows:
        row = _integral(row)
        elim.add(row)
        if len(elim.pivots) == len(row):
            break
    return elim


def rank(rows: Iterable[Sequence]) -> int:
    """Rank over the rationals."""
    return len(_echelon(rows).pivots)


def pivot_columns(rows: Iterable[Sequence]) -> Tuple[int, ...]:
    """Pivot columns of the reduced row echelon form of the rows, ascending.

    The rows of that form are unit vectors on these columns, so the
    coordinates of a vector v of the row space in it are (v[p] for p in pivots).
    """
    return tuple(sorted(_echelon(rows).pivots))


def _reduced(rows: Iterable[Sequence]):
    """(pivots, integer rows) of a reduced echelon form, by ascending pivot.

    Each row is 0 at every pivot but its own; dividing a row by its pivot
    entry gives the rows of the canonical reduced row echelon form.
    """
    elim = _echelon(rows)
    order = sorted(range(len(elim.pivots)), key=elim.pivots.__getitem__)
    pivots = [elim.pivots[i] for i in order]
    work = [elim.rows[i] for i in order]
    for i in reversed(range(len(work))):
        for j in range(i + 1, len(work)):
            if work[i][pivots[j]]:
                work[i] = _clear(work[i], work[j], pivots[j])
    return pivots, work


def rref(rows: Iterable[Sequence]) -> Matrix:
    """Reduced row echelon form, canonical for a given row space.

    Entries are ints where they are integral and Fractions elsewhere.
    """
    out = []
    for p, row in zip(*_reduced(rows)):
        d = row[p]
        out.append(tuple(x // d if x % d == 0 else Fraction(x, d) for x in row))
    return tuple(out)


def kernel_basis(rows: Iterable[Sequence], ncols: int) -> Matrix:
    """Canonical basis of the right kernel {x : Mx = 0}, primitive integer rows."""
    pivots, work = _reduced(rows)
    scale = lcm(*(row[p] for p, row in zip(pivots, work)))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = scale
        for p, row in zip(pivots, work):
            vec[p] = -row[f] * (scale // row[p])
        basis.append(primitive(vec))
    return tuple(basis)


def primitive(vec: Sequence) -> Vector:
    """Clear denominators, divide by the gcd, make the first nonzero entry positive."""
    ints = _integral(vec)
    g = gcd(*ints)
    if g == 0:
        return tuple(0 for _ in ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(ints) if g == 1 else tuple(x // g for x in ints)


def solve_coords(basis: Sequence[Sequence], vec: Sequence):
    """Coordinates of `vec` in terms of the rows of `basis`, or None."""
    n = len(basis)
    if n == 0:
        return () if not any(vec) else None
    # augmented system: transpose(basis) * c = vec
    R = rref([b[j] for b in basis] + [vec[j]] for j in range(len(vec)))
    coords = [0] * n
    for row in R:
        p = next(j for j, x in enumerate(row) if x)
        if p == n:
            return None  # inconsistent
        coords[p] = row[n]
    return tuple(coords)


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix."""
    scale = 1   # det(rows) * scale == det of the reduced rows
    done = []   # (pivot, row); row k is 0 at the pivots of rows before it
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        scale *= d
        row = [x.numerator * (d // x.denominator) for x in row]
        for p, r in done:
            if row[p]:
                scale *= r[p]
                row = _clear(row, r, p)
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            return Fraction(0)
        done.append((p, row))
    # permuting columns into pivot order makes the reduced rows triangular
    pivots = [p for p, _ in done]
    swaps = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
    return Fraction((-1) ** swaps * prod(r[p] for p, r in done), scale)
