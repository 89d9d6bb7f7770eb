"""Exact fraction-free linear algebra on small integer matrices.

Vectors are tuples and matrices are sequences of row tuples, and every entry
is a Python int: the package's normals, roots and Cartan matrices are all
integral, so nothing here takes rationals and nothing ever touches floating
point. Every elimination uses one step, `_clear`: a·row − x·pivot_row with a
the pivot entry and x the entry of the row in the pivot column. `det`
divides once, exactly, at the end.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Iterable, List, Sequence, Tuple


def _clear(row, prow, p: int) -> List[int]:
    """a·row − x·prow with a = prow[p] and x = row[p], so column p becomes 0."""
    a, x = prow[p], row[p]
    return [a * u - x * v for u, v in zip(row, prow)]


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

    def reduce(self, row):
        """The residue of a row of ints against the rows: 0 at every pivot
        column, and c·row − (a vector of the span) for a nonzero integer c.
        The vectors that are 0 at the pivots are a complement of the span,
        so the residue is a nonzero multiple of the projection of the row
        along the span onto it: two rows outside the span have parallel
        residues exactly when each lies in the span of the rows and the
        other."""
        for r, p in zip(self.rows, self.pivots):
            if row[p]:
                row = _clear(row, r, p)
        return row

    def add(self, row) -> bool:
        work = self.reduce(row)
        for j, x in enumerate(work):
            if x:
                g = gcd(*work)
                self.rows.append([u // g for u in work] if g > 1 else work)
                self.pivots.append(j)
                return True
        return False

    def in_span(self, row) -> bool:
        return not any(self.reduce(row))

    def copy(self) -> "Eliminator":
        other = Eliminator()
        other.rows = self.rows[:]
        other.pivots = self.pivots[:]
        return other


def _echelon(rows: Iterable[Sequence[int]]) -> Eliminator:
    elim = Eliminator()
    for row in rows:
        elim.add(row)
        if len(elim.pivots) == len(row):
            break
    return elim


def rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over the rationals."""
    return len(_echelon(rows).pivots)


def pivot_columns(rows: Iterable[Sequence[int]]) -> Tuple[int, ...]:
    """Pivot columns of the reduced row echelon form of the rows, ascending.

    The rows of that form are unit vectors on these columns, so the
    coordinates of a vector v of the row space in it are (v[p] for p in pivots).
    """
    return tuple(sorted(_echelon(rows).pivots))


def primitive(vec: Sequence[int]) -> Tuple[int, ...]:
    """Divide by the gcd and make the first nonzero entry positive.

    Raises TypeError on an entry that is not an int."""
    g = gcd(*vec)
    if g == 0:
        return tuple(0 for _ in vec)
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(vec) if g == 1 else tuple(x // g for x in vec)


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix."""
    scale = 1   # det(rows) * scale == det of the reduced rows
    done = []   # (pivot, row); row k is 0 at the pivots of rows before it
    for row in rows:
        for p, r in done:
            if row[p]:
                scale *= r[p]
                row = _clear(row, r, p)
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            return 0
        done.append((p, row))
    # permuting columns into pivot order makes the reduced rows triangular
    pivots = [p for p, _ in done]
    swaps = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
    return (-1) ** swaps * prod(r[p] for p, r in done) // scale
