import itertools
from fractions import Fraction

import pytest

import fraction_linalg as ref
import subsystem_oracle
from matrix_weyl import reflect
from weylinv.cache import clear_caches
from weylinv.arrangement import flats_of_rank
from weylinv.inversion import inversion_arrangement
from weylinv.linalg import Eliminator
from weylinv.rootsys import (
    CartanDatum, RootSystem, cartan_datum, cartan_isomorphisms, classify_irreducible,
    root_height, subsystem,
)
from weylinv.smoothness import pattern_hits
from weylinv.weyl import WeylGroup, longest_element

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


@pytest.mark.parametrize("name", ["B3", "C3", "G2", "D4", "F4"])
def test_subsystem_coords_match_fraction_solve(name):
    """Subsystem.coords, a lookup over the abstract copy's roots, against a
    rational solve, on every subsystem spanned by a rank-2 or rank-3 flat of
    w0's arrangement."""
    system = RootSystem.get(name)
    A = inversion_arrangement(longest_element(WeylGroup.get(name)))
    checked = 0
    for r in (2, 3):
        for X in flats_of_rank(A, r):
            elim = Eliminator()
            sub = subsystem(system, [v for i, v in enumerate(A.normals)
                                     if i in X.contains and elim.add(v)])
            for beta in sub.positive_roots:
                for signed in (beta, tuple(-x for x in beta)):
                    assert sub.coords(signed) == ref.solve_coords(sub.simple_roots, signed)
                    checked += 1
            alpha = sub.positive_roots[0]
            with pytest.raises(ValueError):
                sub.coords(tuple(2 * x for x in alpha))
            # a root outside U, unless the flat spans the whole space
            outside = next((b for b in system.positive_roots if not elim.in_span(b)), None)
            if outside is not None:
                assert ref.solve_coords(sub.simple_roots, outside) is None
                with pytest.raises(ValueError):
                    sub.coords(outside)
    assert checked


SUBSYSTEM_TYPES = ["B3", "C3", "G2", "A4", "D4", "B4", "F4", "D5"]


def flat_bases(name):
    """A basis of normals of every flat of every rank of w0's arrangement,
    whose hyperplanes are all of Phi+."""
    A = inversion_arrangement(longest_element(WeylGroup.get(name)))
    for r in range(1, A.rank() + 1):
        for X in flats_of_rank(A, r):
            elim = Eliminator()
            yield [v for i, v in enumerate(A.normals) if i in X.contains and elim.add(v)]


@pytest.mark.parametrize("name", SUBSYSTEM_TYPES)
def test_subsystem_matches_inner_product_construction(name):
    """Cartan matrices by root strings and symmetrizers copied from the
    matched standard type, against Fraction inner products renormalized per
    component."""
    system = RootSystem.get(name)
    checked = 0
    for basis in flat_bases(name):
        sub = subsystem(system, basis)
        pos, simples, types, datum = subsystem_oracle.subsystem(system, basis)
        assert (sub.positive_roots, sub.simple_roots, sub.type_components) == (pos, simples, types)
        assert sub.datum.cartan_matrix == datum.cartan_matrix
        assert sub.datum.symmetrizer == datum.symmetrizer
        assert sub.datum.type_label == datum.type_label
        checked += 1
    assert checked


def test_subsystems_and_pattern_scan_never_use_the_form(monkeypatch):
    def refuse(self, a, b):
        raise AssertionError("the Euclidean form was evaluated")

    monkeypatch.setattr(RootSystem, "inner_product", refuse)
    clear_caches()   # pattern_hits and the flattenings behind it are memoized
    for name in SUBSYSTEM_TYPES:
        for basis in flat_bases(name):
            subsystem(RootSystem.get(name), basis)
    for name in ("B3", "D4"):
        for w in WeylGroup.get(name).elements():
            pattern_hits(w)


def old_cartan_verdict(A, symmetrizer):
    """The Cartan check before it went integer-only: symmetry of the Fraction
    form, then its leading principal minors by cofactor expansion."""
    n = len(A)
    B = [[Fraction(symmetrizer[i]) * A[i][j] for j in range(n)] for i in range(n)]
    if any(B[i][j] != B[j][i] for i in range(n) for j in range(n)):
        return "symmetrizer does not symmetrize the Cartan matrix"
    if any(ref.cofactor_det([row[:k] for row in B[:k]]) <= 0 for k in range(1, n + 1)):
        return "symmetrized Cartan form is not positive definite"
    return "ok"


def cartan_verdict(A, symmetrizer):
    try:
        CartanDatum("t", len(A), tuple(map(tuple, A)), tuple(symmetrizer))
    except ValueError as e:
        return str(e)
    return "ok"


def small_cartan_pairs():
    """Rank 1-3 generalized Cartan matrices with small off-diagonal entries,
    each with symmetrizers that include a negative and a zero entry."""
    scales = (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2))
    yield [[2]], [Fraction(1)]
    yield [[2]], [Fraction(-1)]
    for a, b in itertools.product(range(0, -5, -1), repeat=2):
        for sym in itertools.product(scales, repeat=2):
            yield [[2, a], [b, 2]], sym
    for off in itertools.product(range(0, -3, -1), repeat=6):
        A = [[2, off[0], off[1]], [off[2], 2, off[3]], [off[4], off[5], 2]]
        for sym in itertools.product((Fraction(-1), Fraction(1, 2), Fraction(1)), repeat=3):
            yield A, sym


def test_cartan_check_matches_fraction_minors():
    seen = set()
    for A, sym in small_cartan_pairs():
        verdict = old_cartan_verdict(A, sym)
        assert cartan_verdict(A, sym) == verdict, (A, sym)
        seen.add(verdict)
    assert len(seen) == 3
    # affine and hyperbolic rank 2: symmetric, but not positive definite
    for A in ([[2, -2], [-2, 2]], [[2, -3], [-3, 2]]):
        assert cartan_verdict(A, (1, 1)) == old_cartan_verdict(A, (1, 1)) == \
            "symmetrized Cartan form is not positive definite"


def test_standard_types_pass_the_cartan_check():
    names = [f"{t}{n}" for t, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4)) for n in range(lo, 9)]
    for name in names + ["E6", "E7", "E8", "F4", "G2"]:
        datum = cartan_datum(name)
        assert cartan_verdict(datum.cartan_matrix, datum.symmetrizer) == "ok"
