from fractions import Fraction
from itertools import combinations

from hypothesis import given, strategies as st

import fraction_linalg as ref
from weylinv.linalg import (
    Eliminator, det, kernel_basis, pivot_columns, primitive, rank, rref, solve_coords,
)

small_matrix = st.lists(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    min_size=1, max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


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


def minor_rank(rows):
    """Independent oracle: largest k with a nonzero k x k minor."""
    if not rows:
        return 0
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for ris in combinations(range(m), k):
            for cis in combinations(range(n), k):
                if cofactor_det([[rows[i][j] for j in cis] for i in ris]) != 0:
                    return k
    return 0


@given(small_matrix)
def test_rank_matches_minor_oracle(rows):
    assert rank(rows) == minor_rank(rows)


@given(small_matrix)
def test_rref_is_idempotent_and_spans(rows):
    r = rref(rows)
    assert rref(r) == r
    assert rank(list(rows) + list(r)) == rank(rows)
    assert len(r) == rank(rows)


@given(small_matrix)
def test_kernel_basis_annihilates(rows):
    n = len(rows[0])
    ker = kernel_basis(rows, n)
    for v in ker:
        for row in rows:
            assert sum(Fraction(x) * y for x, y in zip(row, v)) == 0
    assert len(ker) == n - rank(rows)
    assert rank(ker) == len(ker)


def test_primitive_normalization():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((-2, 4)) == (1, -2)
    assert primitive((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
    assert primitive((0, -3, 6)) == (0, 1, -2)


@given(small_matrix)
def test_solve_coords_round_trip(rows):
    basis = rref(rows)
    if not basis:
        return
    # any integer combination of basis rows must be recovered exactly
    vec = tuple(sum(r[j] for r in basis) for j in range(len(basis[0])))
    coords = solve_coords(basis, vec)
    assert coords is not None
    rebuilt = [sum(Fraction(c) * b[j] for c, b in zip(coords, basis))
               for j in range(len(vec))]
    assert [Fraction(x) for x in vec] == rebuilt


def test_solve_coords_rejects_outside_span():
    assert solve_coords(((1, 0, 0),), (0, 1, 0)) is None


@given(small_matrix)
def test_eliminator_matches_minor_oracle(rows):
    e = Eliminator()
    seen = []
    for row in rows:
        grows = minor_rank(seen + [row]) > minor_rank(seen)
        assert e.in_span(row) == (not grows)
        assert e.add(row) == grows
        seen.append(row)
        assert len(e.pivots) == minor_rank(seen)
        assert all(e.in_span(r) for r in seen)


@given(small_matrix, st.lists(st.integers(-4, 4), min_size=4, max_size=4))
def test_elimination_matches_fraction_versions(rows, vec):
    n = len(rows[0])
    vec = vec[:n]
    assert rref(rows) == ref.rref(rows)
    assert kernel_basis(rows, n) == ref.kernel_basis(rows, n)
    assert solve_coords(rows, vec) == ref.solve_coords(rows, vec)
    assert pivot_columns(rows) == tuple(
        next(j for j, x in enumerate(row) if x) for row in ref.rref(rows))


@given(st.integers(0, 4).flatmap(lambda k: st.lists(
    st.lists(st.integers(-4, 4), min_size=k, max_size=k), min_size=k, max_size=k)))
def test_det_matches_cofactor_expansion(rows):
    assert det(rows) == cofactor_det(rows)
    halves = [[Fraction(x, 2) for x in row] for row in rows]
    assert det(halves) == Fraction(cofactor_det(rows), 2 ** len(rows))


def test_eliminator_tracks_span():
    e = Eliminator()
    assert e.add((1, 0, 1))
    assert e.add((0, 1, 0))
    assert not e.add((1, 1, 1))
    assert e.in_span((2, 3, 2))
    assert not e.in_span((0, 0, 1))
    c = e.copy()
    c.add((0, 0, 1))
    assert not e.in_span((0, 0, 1))
