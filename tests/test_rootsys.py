from fractions import Fraction

import pytest

from matrix_weyl import reflect
from weylinv.rootsys import (
    RootSystem, cartan_datum, cartan_isomorphisms, classify_irreducible,
    root_height, subsystem,
)

# number of positive roots per type, from the classical count formulas
POSITIVE_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15,
    "B2": 4, "B3": 9, "B4": 16,
    "C3": 9, "C4": 16,
    "D4": 12, "D5": 20,
    "G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120,
}


@pytest.mark.parametrize("name,count", sorted(POSITIVE_COUNTS.items()))
def test_positive_root_counts(name, count):
    assert len(RootSystem.get(name).positive_roots) == count


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_reflection_closure_and_involution(name):
    system = RootSystem.get(name)
    pos = system.positive_roots
    for a in pos:
        for b in pos:
            c = reflect(system, a, b)
            assert c in system.all_roots
            assert reflect(system, a, c) == b  # s_a is an involution
            # reflections preserve the invariant form
            assert system.inner_product(c, c) == system.inner_product(b, b)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2"])
def test_simple_reflection_permutes_other_positives(name):
    system = RootSystem.get(name)
    for i, alpha in enumerate(system.simple_roots):
        others = [b for b in system.positive_roots if b != alpha]
        images = {system.simple_reflect(i, b) for b in others}
        assert images == set(others)


def test_long_roots_have_norm_two():
    for name in ("A3", "B3", "C3", "D4", "F4", "G2", "E6"):
        system = RootSystem.get(name)
        norms = {system.inner_product(b, b) for b in system.positive_roots}
        assert max(norms) == 2


def test_bc_duality_norms():
    b = RootSystem.get("B3")
    c = RootSystem.get("C3")
    # B3: one short simple root (the last); C3: one long simple root (the last)
    bn = [b.inner_product(a, a) for a in b.simple_roots]
    cn = [c.inner_product(a, a) for a in c.simple_roots]
    assert bn == [2, 2, 1]
    assert cn == [1, 1, 2]


def test_roots_sorted_by_height_then_lex():
    system = RootSystem.get("B3")
    keys = [(root_height(b), b) for b in system.positive_roots]
    assert keys == sorted(keys)
    assert system.positive_roots[:3] == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_unknown_names_rejected():
    for bad in ("H3", "A0", "E9", "D3", "xyz", "B1"):
        with pytest.raises(ValueError):
            cartan_datum(bad)


def test_cartan_isomorphism_counts():
    a3 = cartan_datum("A3").cartan_matrix
    d4 = cartan_datum("D4").cartan_matrix
    b3 = cartan_datum("B3").cartan_matrix
    assert len(list(cartan_isomorphisms(a3, a3))) == 2   # diagram flip
    assert len(list(cartan_isomorphisms(d4, d4))) == 6   # S3 on the outer nodes
    assert len(list(cartan_isomorphisms(b3, b3))) == 1
    assert not list(cartan_isomorphisms(b3, a3))


def test_classify_irreducible_known_types():
    for name in ("A2", "A4", "B3", "C4", "D5", "F4", "G2", "E6"):
        assert classify_irreducible(cartan_datum(name).cartan_matrix) == name


def test_subsystem_in_b3():
    system = RootSystem.get("B3")
    # the two long simple roots span an A2
    a1, a2 = system.simple_roots[0], system.simple_roots[1]
    sub = subsystem(system, [a1, a2])
    assert sub.type_string == "A2"
    assert len(sub.positive_roots) == 3
    # a short and its neighbour span a B2
    sub2 = subsystem(system, [system.simple_roots[1], system.simple_roots[2]])
    assert sub2.type_string == "B2"
    assert len(sub2.positive_roots) == 4


def test_subsystem_full_space_recovers_type():
    for name in ("A3", "B3", "C3", "D4"):
        system = RootSystem.get(name)
        basis = system.simple_roots
        sub = subsystem(system, basis)
        assert sub.type_string == name
        assert set(sub.positive_roots) == set(system.positive_roots)


def test_subsystem_coords_are_roots_of_abstract_copy():
    system = RootSystem.get("D4")
    sub = subsystem(system, [system.positive_roots[0], system.positive_roots[-1]])
    abstract = sub.system()
    for beta in sub.positive_roots:
        assert sub.coords(beta) in abstract.all_roots


def test_g2_norms():
    g2 = RootSystem.get("G2")
    n1 = g2.inner_product(g2.simple_roots[0], g2.simple_roots[0])
    n2 = g2.inner_product(g2.simple_roots[1], g2.simple_roots[1])
    assert (n1, n2) == (Fraction(2, 3), Fraction(2))
