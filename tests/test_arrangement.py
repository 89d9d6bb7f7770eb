import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_linalg as ref
import lattice_oracle as lat
import restriction_oracle
from weylinv import arrangement, freeness
from weylinv.arrangement import (
    Arrangement, Flat, characteristic_polynomial, coatoms, deletion, flat_of,
    flats_of_rank, is_modular_coatom, is_supersolvable, localization,
    nbc_counts_by_size, nbc_sets, poincare_polynomial, quotient_by_center,
    restriction,
)
from weylinv.cache import clear_caches
from weylinv.freeness import inductively_free, verify_certificate
from weylinv.inversion import inversion_arrangement, inversion_set
from weylinv.linalg import primitive
from weylinv.polynomials import IntPolynomial
from weylinv.rootsys import RootSystem
from weylinv.smoothness import exceptional_element
from weylinv.weyl import WeylGroup, longest_element


# up to 7 normals with entries in [-3, 3], in dimension 1 to 5 (3 when there are none)
random_arrangements = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=7)).map(
    lambda rows: Arrangement(len(rows[0]) if rows else 3, rows))


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


def assert_pi_matches_nbc(A):
    assert poincare_polynomial(A) == IntPolynomial(nbc_counts_by_size(A))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4"])
def test_poincare_matches_nbc_on_inversion_arrangements(name):
    # deletion-restriction against the NBC count, on each arrangement and
    # every deletion and restriction of it
    for w in WeylGroup.get(name).elements():
        A = inversion_arrangement(w)
        assert_pi_matches_nbc(A)
        for v in A.normals:
            assert_pi_matches_nbc(deletion(A, v))
            assert_pi_matches_nbc(restriction(A, v))


@given(random_arrangements)
def test_poincare_matches_nbc_on_random_arrangements(A):
    assert_pi_matches_nbc(A)
    for v in A.normals:
        assert_pi_matches_nbc(deletion(A, v))
        assert_pi_matches_nbc(restriction(A, v))


def test_poincare_of_a_long_deletion_chain():
    # m generic planes in rank 3 (normals on the moment curve, any three
    # independent): the deletion chain is m - 2 steps long, the recursion
    # through restrictions one step deep
    m = 400
    A = Arrangement(3, [(1, k, k * k) for k in range(m)])
    assert poincare_polynomial(A) == IntPolynomial(
        (1, m, math.comb(m, 2), math.comb(m - 1, 2)))


def test_deletion_and_restriction_accept_a_list_normal():
    A = braid(4)
    H = A.normals[1]
    scaled = [-2 * x for x in H]
    assert deletion(A, scaled) == deletion(A, H)
    assert restriction(A, scaled) == restriction(A, H)
    # equal to one of A's normals, but not made of ints
    as_fractions = tuple(Fraction(x) for x in H)
    assert deletion(A, as_fractions) == deletion(A, H)
    assert restriction(A, as_fractions) == restriction(A, H)
    with pytest.raises(ValueError):
        deletion(A, [1, 1, 1, 1])


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5])
def test_non_integer_normals_are_refused(bad):
    with pytest.raises(ValueError, match="normal entries must be integers"):
        Arrangement(2, [(1, 0), (bad, 1)])
    A = Arrangement(2, [(1, 0), (0, 1), (1, 1)])
    for op in (deletion, restriction):
        with pytest.raises(ValueError, match="normal entries must be integers"):
            op(A, (bad, 1))


def assert_built_the_long_way(A):
    """A equals, and hashes like, the arrangement the canonicalizing
    constructor builds from its normals."""
    B = Arrangement(A.dim, A.normals)
    assert (A.dim, A.normals, hash(A)) == (B.dim, B.normals, hash(B))


def assert_deletion_and_restriction_match_oracle(A, v):
    """Deletion and restriction by v: the deletion is canonical as built, and
    the closed-form restriction is the kernel-basis projection."""
    D = deletion(A, v)
    assert D == Arrangement(A.dim, [u for u in A.normals if u != v])
    assert_built_the_long_way(D)
    R = restriction(A, v)
    assert R == restriction_oracle.restriction(A, v)
    assert_built_the_long_way(R)


@given(random_arrangements)
def test_deletion_and_restriction_match_oracle_on_random_arrangements(A):
    assert_built_the_long_way(A)
    for v in A.normals:
        assert_deletion_and_restriction_match_oracle(A, v)
        scaled = tuple(-2 * x for x in v)
        assert (deletion(A, scaled), restriction(A, scaled)) == (deletion(A, v), restriction(A, v))


def test_restriction_sign_rule_on_both_sides_of_the_pivot():
    # h = (0, 2, 3, -4, 0): pivot column 1, columns after it with h_f > 0,
    # h_f < 0 and h_f = 0, and one column before it
    A = Arrangement(5, [(0, 2, 3, -4, 0), (1, 1, 0, 0, 0), (0, 1, 1, 1, 1), (0, 0, 1, 2, -1),
                        (1, 0, -1, 0, 2), (0, 0, 0, 1, 3)])
    h = (0, 2, 3, -4, 0)
    assert restriction_oracle.restriction_basis(h) == \
        ((1, 0, 0, 0, 0), (0, 3, -2, 0, 0), (0, 2, 0, 1, 0), (0, 0, 0, 0, 1))
    assert restriction(A, h) == restriction_oracle.restriction(A, h)


def reached_by_search(A, monkeypatch):
    """Every (arrangement, normal) that the freeness search, its certificate
    walk, the verifier and π pass to deletion and restriction, in both pivot
    orders, from cold caches."""
    calls = {"deletion": set(), "restriction": set()}

    def recording(fn):
        def wrapper(B, normal):
            calls[fn.__name__].add((B, tuple(normal)))
            return fn(B, normal)
        return wrapper

    for module in (arrangement, freeness):
        monkeypatch.setattr(module, "deletion", recording(deletion))
        monkeypatch.setattr(module, "restriction", recording(restriction))
    clear_caches()
    try:
        for order in ("lex", "height"):
            res = inductively_free(A, order=order, with_certificate=True)
            if res.free:
                assert verify_certificate(A, res.certificate) == ("accept", res.coexponents)
    finally:
        clear_caches()
    return calls


def w65():
    return exceptional_element(6, 5)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4", "w65"])
def test_deletion_and_restriction_the_search_reaches_match_oracle(name, monkeypatch):
    elements = [w65()] if name == "w65" else WeylGroup.get(name).elements()
    for w in elements:
        A = inversion_arrangement(w)
        calls = reached_by_search(A, monkeypatch)
        for B, v in calls["deletion"] | calls["restriction"]:
            assert_deletion_and_restriction_match_oracle(B, v)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4", "w65"])
def test_inversion_arrangement_is_built_the_long_way(name):
    elements = [w65()] if name == "w65" else WeylGroup.get(name).elements()
    for w in elements:
        A = inversion_arrangement(w)
        assert A == Arrangement(w.group.rank, inversion_set(w).roots)
        assert_built_the_long_way(A)
        for X in coatoms(A):
            assert_built_the_long_way(localization(A, X))


ROOT_SYSTEMS = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
                + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", ROOT_SYSTEMS)
def test_positive_roots_are_canonical_normals(name):
    # inversion_arrangement builds on this without re-canonicalizing
    for beta in RootSystem.get(name).positive_roots:
        assert primitive(beta) == beta


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


@given(random_arrangements)
def test_quotient_by_center_matches_fraction_oracle(A):
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


def test_flats_of_negative_rank():
    # no flat has rank -1: the empty arrangement has no coatom, and a
    # rank-1 arrangement has the bottom flat as its only one
    empty = Arrangement(3, [])
    assert flats_of_rank(empty, -1) == coatoms(empty) == []
    assert flats_of_rank(empty, 0) == [Flat(frozenset())]
    line = Arrangement(2, [(1, 0)])
    assert flats_of_rank(line, -1) == []
    assert coatoms(line) == [Flat(frozenset())]
    assert is_modular_coatom(line, coatoms(line)[0])
    assert flats_of_rank(line, 1) == [Flat(frozenset({0}))]


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


def seeded_sample(name, k):
    """w0 and k other elements of the group, drawn with a fixed seed."""
    g = WeylGroup.get(name)
    w0 = longest_element(g)
    els = sorted((w for w in g.elements() if w != w0), key=lambda x: (x.length(), x.word()))
    return [w0] + random.Random(f"lattice:{name}").sample(els, k)


# roots with a coefficient 2 and up to 24 hyperplanes: w0 and a seeded sample
SAMPLED = {"B4": 5, "C4": 5, "F4": 2}


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4", *SAMPLED])
def test_lattice_matches_oracle_on_inversion_arrangements(name):
    elements = seeded_sample(name, SAMPLED[name]) if name in SAMPLED else \
        WeylGroup.get(name).elements()
    for w in elements:
        assert_lattice_matches_oracle(inversion_arrangement(w))


def assert_covering_flats_partition(A):
    """The flats of rank k+1 above a flat F of rank k split the indices outside F."""
    for k in range(A.rank()):
        above = [G.contains for G in flats_of_rank(A, k + 1)]
        for F in flats_of_rank(A, k):
            blocks = [G - F.contains for G in above if F.contains <= G]
            outside = set(range(len(A.normals))) - F.contains
            assert sum(map(len, blocks)) == len(outside)
            assert set().union(*blocks) == outside


@pytest.mark.parametrize("name", ["B3", "G2", "D4", "F4"])
def test_covering_flats_partition_on_inversion_arrangements(name):
    for w in seeded_sample(name, 5):
        assert_covering_flats_partition(inversion_arrangement(w))


# the slowest example measured took 273 ms with tier-1 running alongside on
# 2 cores (163 ms at most over 1500 examples on an idle machine), over
# hypothesis's default deadline of 200 ms
@settings(deadline=1000)
@given(random_arrangements)
def test_lattice_matches_oracle_on_random_arrangements(A):
    assert_lattice_matches_oracle(A)


@given(random_arrangements)
def test_covering_flats_partition_on_random_arrangements(A):
    assert_covering_flats_partition(A)
