import ast
from itertools import combinations
from pathlib import Path

from hypothesis import given, strategies as st

import fraction_linalg as ref
from fraction_linalg import cofactor_det
import weylinv
from weylinv.linalg import Eliminator, det, pivot_columns, primitive, rank

small_matrix = st.lists(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    min_size=1, max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


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


def test_primitive_normalization():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((-2, 4)) == (1, -2)
    assert primitive((0, -3, 6)) == (0, 1, -2)


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


@given(small_matrix)
def test_elimination_matches_fraction_versions(rows):
    assert pivot_columns(rows) == tuple(
        next(j for j, x in enumerate(row) if x) for row in ref.rref(rows))


@given(st.integers(0, 4).flatmap(lambda k: st.lists(
    st.lists(st.integers(-4, 4), min_size=k, max_size=k), min_size=k, max_size=k)))
def test_det_matches_cofactor_expansion(rows):
    d = det(rows)
    assert type(d) is int and d == cofactor_det(rows)


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


def test_only_rootsys_imports_fractions():
    """linalg and everything built on it are integer-only; rootsys keeps exact
    rationals for the Euclidean form."""
    offenders = []
    for path in sorted(Path(weylinv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
                [node.module] if isinstance(node, ast.ImportFrom) else []
            if any(n and n.split(".")[0] == "fractions" for n in names):
                offenders.append(path.name)
    assert set(offenders) <= {"rootsys.py"}, offenders
