import itertools
import random

import pytest
from hypothesis import given, strategies as st

import fraction_linalg as ref
import lattice_oracle as lat
from weylinv.arrangement import (
    Arrangement, characteristic_polynomial, coatoms, deletion, flat_of,
    flats_of_rank, is_modular_coatom, is_supersolvable, localization,
    nbc_counts_by_size, nbc_sets, poincare_polynomial, quotient_by_center,
    restriction,
)
from weylinv.inversion import inversion_arrangement, inversion_set
from weylinv.polynomials import IntPolynomial
from weylinv.weyl import WeylGroup, longest_element


def braid(n):
    """The braid arrangement of A_{n-1} in simple root coordinates."""
    return inversion_arrangement(longest_element(WeylGroup.get(f"A{n-1}")))


def test_canonicalization():
    A = Arrangement(2, [(2, 0), (-1, 0), (0, 3), (0, 1)])
    assert A.normals == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        Arrangement(2, [(1, 2, 3)])


def test_nbc_counts_order_independent():
    # Whitney's theorem: the counts depend only on the matroid, not the order
    rng = random.Random(41)
    for name in ("B3", "D4"):
        g = WeylGroup.get(name)
        els = sorted(g.elements(), key=lambda x: (x.length(), x.word()))
        for w in rng.sample(els, 25):
            A = inversion_arrangement(w)
            base = nbc_counts_by_size(A)
            for _ in range(3):
                order = list(A.normals)
                rng.shuffle(order)
                assert nbc_counts_by_size(A, order=order) == base


def test_nbc_sets_are_independent_and_contain_no_broken_circuit():
    from weylinv.linalg import rank as matrix_rank
    A = braid(4)
    for B in nbc_sets(A):
        assert matrix_rank(B) == len(B)
        for g in A.normals:
            if g in B:
                continue
            smaller = [b for b in B if b < g]
            if smaller and matrix_rank(list(smaller) + [g]) == matrix_rank(smaller):
                pytest.fail(f"{B} has broken circuit witness {g}")


def test_whitney_deletion_restriction_identity():
    # Q_A(t) = Q_{A minus H}(t) + t * Q_{A^H}(t) for the canonically last H
    g = WeylGroup.get("A3")
    t = IntPolynomial((0, 1))
    for w in g.elements():
        A = inversion_arrangement(w)
        if not A.normals:
            continue
        H = A.normals[-1]
        lhs = poincare_polynomial(A)
        rhs = poincare_polynomial(deletion(A, H)) + t * poincare_polynomial(restriction(A, H))
        assert lhs == rhs


def finite_field_points(A, p):
    """Points of F_p^l avoiding every hyperplane; equals chi_A(p) for good p."""
    import itertools as it
    count = 0
    for x in it.product(range(p), repeat=A.dim):
        if all(sum(a * b for a, b in zip(n, x)) % p for n in A.normals):
            count += 1
    return count


@pytest.mark.parametrize("name,p", [("A3", 7), ("A3", 11), ("B3", 7), ("D4", 5)])
def test_characteristic_polynomial_point_count(name, p):
    A = inversion_arrangement(longest_element(WeylGroup.get(name)))
    assert characteristic_polynomial(A)(p) == finite_field_points(A, p)


def test_characteristic_polynomial_random_elements():
    g = WeylGroup.get("B3")
    rng = random.Random(13)
    els = sorted(g.elements(), key=lambda x: (x.length(), x.word()))
    for w in rng.sample(els, 8):
        A = inversion_arrangement(w)
        assert characteristic_polynomial(A)(7) == finite_field_points(A, 7)


def test_quotient_by_center():
    A = Arrangement(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    ess = quotient_by_center(A)
    assert ess.dim == 2
    assert len(ess.normals) == 3
    assert quotient_by_center(Arrangement(3, [])) == Arrangement(0, [])


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=7)))
def test_quotient_by_center_matches_fraction_oracle(rows):
    A = Arrangement(len(rows[0]) if rows else 3, rows)
    assert quotient_by_center(A) == ref.quotient_by_center(A)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_quotient_by_center_matches_oracle_on_inversion_arrangements(name):
    for w in WeylGroup.get(name).elements():
        A = inversion_arrangement(w)
        assert quotient_by_center(A) == ref.quotient_by_center(A)
        for v in A.normals:
            for child in (deletion(A, v), restriction(A, v)):
                assert quotient_by_center(child) == ref.quotient_by_center(child)


def test_flats_and_coatoms_of_braid():
    A = braid(4)  # rank 3, 6 hyperplanes
    assert A.rank() == 3
    # rank-2 flats of the braid arrangement A3: 4 triple points + 3 doubles
    assert len(flats_of_rank(A, 2)) == 7
    assert len(coatoms(A)) == 7
    assert len(flats_of_rank(A, 1)) == 6


def test_modular_coatom_example():
    # J(w0) in A3: X1 = closure of {a1, a2, a1+a2} is a modular coatom
    g = WeylGroup.get("A3")
    w0 = longest_element(g)
    A = inversion_arrangement(w0)
    u1 = g.from_word([0, 1, 0])
    inv_u1 = inversion_set(u1).as_set()
    idx = [i for i, n in enumerate(A.normals) if n in inv_u1]
    X1 = flat_of(A, idx)
    assert is_modular_coatom(A, X1)
    # a coatom through two "skew" hyperplanes only is not modular
    other = flat_of(A, [i for i, n in enumerate(A.normals) if n in
                        {(1, 0, 0), (0, 0, 1)}])
    assert not is_modular_coatom(A, other)


def test_is_modular_coatom_rejects_non_coatoms():
    A = braid(4)
    with pytest.raises(ValueError):
        is_modular_coatom(A, flat_of(A, []))


def test_supersolvable_cases():
    ss, chain = is_supersolvable(braid(4))
    assert ss and len(chain) == 1
    # J(s2 s1 s3 s2) in A3 (the 3412 arrangement) is not supersolvable
    g = WeylGroup.get("A3")
    w = g.from_word([1, 0, 2, 1])
    ss2, chain2 = is_supersolvable(inversion_arrangement(w))
    assert not ss2 and chain2 is None
    # rank <= 2 is always supersolvable
    ss3, chain3 = is_supersolvable(Arrangement(2, [(1, 0), (0, 1), (1, 1)]))
    assert ss3 and chain3 == ()


def test_localization_is_sub_arrangement():
    A = braid(4)
    for X in coatoms(A):
        loc = localization(A, X)
        assert set(loc.normals) <= set(A.normals)
        assert loc.rank() == 2


# -- differential tests against the reference lattice code ------------------


def assert_lattice_matches_oracle(A):
    r = A.rank()
    for k in range(r + 2):
        assert [X.contains for X in flats_of_rank(A, k)] == \
            [X.contains for X in lat.flats_of_rank(A, k)]
    if r:
        for X, Y in zip(coatoms(A), lat.flats_of_rank(A, r - 1), strict=True):
            assert is_modular_coatom(A, X) == lat.is_modular_coatom(A, Y)
    chain = lat.supersolvable_chain(A)
    assert is_supersolvable(A) == (chain is not None, chain)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4"])
def test_lattice_matches_oracle_on_inversion_arrangements(name):
    for w in WeylGroup.get(name).elements():
        assert_lattice_matches_oracle(inversion_arrangement(w))


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=7)))
def test_lattice_matches_oracle_on_random_arrangements(rows):
    assert_lattice_matches_oracle(Arrangement(len(rows[0]) if rows else 3, rows))
