import random

import pytest

import lattice_oracle as lat
import pattern_oracle as ref
from weylinv.arrangement import is_supersolvable, poincare_polynomial, Arrangement
from weylinv.cache import clear_caches
from weylinv.inversion import flatten, inversion_arrangement, inversion_set
from weylinv.linalg import rank as matrix_rank
from weylinv.freeness import inductively_free
from weylinv.polynomials import q_int
from weylinv.smoothness import (
    PATTERNS, _pair_span_chain, avoids_perm_pattern, bp_decomposition, complete_chain_bp,
    contains_pattern, coset_chain_poincare, exceptional_element,
    exceptional_exponents, exceptional_poincare, exponents_of, find_chain_bp,
    hlss, inversion_graph, is_bp, is_chordal,
    parabolic_exponents, parabolic_poincare, pattern_hits, perm_of,
    rationally_smooth, tree_exponents, word_of,
)
from weylinv.weyl import (
    WeylGroup, absolute_length, bruhat_graph_distance, bruhat_leq, coset_poincare,
    longest_element, parabolic_decomposition, poincare,
)


def all_subsets(indices):
    import itertools
    idx = sorted(indices)
    for k in range(len(idx) + 1):
        yield from (frozenset(c) for c in itertools.combinations(idx, k))


def sorted_elements(g):
    return sorted(g.elements(), key=lambda x: (x.length(), x.word()))


# -- BP decomposition criteria ----------------------------------------------


def maximal_oracle(w, J, u):
    """u is the unique maximal element of the parabolic part of [e, w]."""
    g = w.group
    members = [x for x in g.elements() if x.support() <= J and bruhat_leq(x, w)]
    return all(bruhat_leq(x, u) for x in members)


def test_bp_criteria_agree_exhaustively_a3():
    g = WeylGroup.get("A3")
    for w in g.elements():
        for side in ("left", "right"):
            for J in all_subsets(range(g.rank)):
                holds, u, v = is_bp(w, J, side)
                # descent criterion vs maximal-parabolic-part criterion
                assert holds == maximal_oracle(w, J, u)
                # vs the Poincare factorization criterion
                factor = poincare(u) * coset_poincare(v, J, side)
                assert holds == (poincare(w) == factor)
                if holds:
                    dec = bp_decomposition(w, J, side)
                    assert dec is not None and dec.reassemble() is w


def test_bp_criteria_agree_sampled_b3():
    g = WeylGroup.get("B3")
    rng = random.Random(31)
    els = sorted_elements(g)
    for _ in range(40):
        w = rng.choice(els)
        J = frozenset(rng.sample(range(g.rank), rng.randint(0, g.rank)))
        side = rng.choice(("left", "right"))
        holds, u, v = is_bp(w, J, side)
        assert holds == maximal_oracle(w, J, u)
        assert holds == (poincare(w) == poincare(u) * coset_poincare(v, J, side))


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_chain_prefilters_never_change_the_verdict(name):
    # is_chain must equal the direct test ^J P_v == [l(v)+1]_q
    g = WeylGroup.get(name)
    rng = random.Random(7)
    els = sorted_elements(g)
    sample = els if name == "A3" else rng.sample(els, 16)
    for w in sample:
        for side in ("left", "right"):
            for J in all_subsets(range(g.rank)):
                u, v = parabolic_decomposition(w, J, side)
                chain, p = coset_chain_poincare(v, J, side)
                direct = coset_poincare(v, J, side) == q_int(v.length() + 1)
                assert chain == direct
                if chain:
                    assert p == q_int(v.length() + 1)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4"])
def test_pair_span_prefilter_matches_oracle(name):
    g = WeylGroup.get(name)
    for w in g.elements():
        for side in ("left", "right"):
            for J in all_subsets(range(g.rank)):
                _, v = parabolic_decomposition(w, J, side)
                probe = v if side == "left" else v.inverse()
                assert _pair_span_chain(probe, J) == lat.pair_span_chain(probe, J)


def test_complete_chain_bp_of_longest_a3():
    g = WeylGroup.get("A3")
    tree = complete_chain_bp(longest_element(g))
    assert tree is not None
    assert tree_exponents(tree, g.rank) == (1, 2, 3)
    for dec in tree.nodes():
        assert dec.is_chain and dec.v.length() >= 1


def test_no_complete_chain_bp_for_3412():
    g = WeylGroup.get("A3")
    w = word_of((3, 4, 1, 2), g)
    assert find_chain_bp(w) is None or complete_chain_bp(w) is None
    assert complete_chain_bp(w) is None


def simple_images(w):
    return [w.apply(a) for a in w.group.system.simple_roots]


def test_elements_of_different_groups_are_unequal():
    d4, b4 = WeylGroup.get("D4"), WeylGroup.get("B4")
    assert simple_images(d4.identity) == simple_images(b4.identity)
    assert d4.identity != b4.identity
    assert len({d4.identity, b4.identity}) == 2


def test_complete_chain_bp_does_not_depend_on_other_groups():
    # same simple-root images in both groups; only the D4 element has no tree
    d4w = WeylGroup.get("D4").from_word([1, 0, 2, 1, 0, 3, 1, 0, 2, 1, 3])
    b4w = WeylGroup.get("B4").from_word([1, 0, 2, 1, 0, 3, 2, 1, 0, 3, 2, 1, 3, 2, 3])
    assert simple_images(d4w) == simple_images(b4w)
    clear_caches()
    fresh = complete_chain_bp(b4w) is not None
    clear_caches()
    assert complete_chain_bp(d4w) is None
    assert (complete_chain_bp(b4w) is not None) == fresh
    assert fresh


def test_tree_exponents_multiply_to_interval_size():
    g = WeylGroup.get("B3")
    for w in sorted_elements(g):
        tree = complete_chain_bp(w)
        if tree is None:
            continue
        size = 1
        for m in tree_exponents(tree, g.rank):
            size *= m + 1
        assert size == len(g.bruhat_interval(w))


# -- exponents and exceptional elements -------------------------------------


def test_exponents_of_examples():
    g = WeylGroup.get("A3")
    assert exponents_of(longest_element(g)) == (1, 2, 3)
    assert exponents_of(g.identity) == (0, 0, 0)
    assert exponents_of(word_of((3, 4, 1, 2), g)) is None


def test_parabolic_exponents_known_values():
    from weylinv.rootsys import RootSystem
    assert parabolic_exponents(RootSystem.get("A3"), range(3)) == (1, 2, 3)
    assert parabolic_exponents(RootSystem.get("B3"), range(3)) == (1, 3, 5)
    assert parabolic_exponents(RootSystem.get("D4"), range(4)) == (1, 3, 3, 5)
    assert parabolic_exponents(RootSystem.get("E6"), range(6)) == (1, 4, 5, 7, 8, 11)
    assert parabolic_poincare(RootSystem.get("A3"), range(3))(1) == 24


def test_exceptional_range_checks():
    for k, l in ((5, 5), (6, 6), (9, 6), (6, 7), (4, 3)):
        with pytest.raises(ValueError):
            exceptional_element(k, l)
        with pytest.raises(ValueError):
            exceptional_poincare(k, l)


EXCEPTIONAL_LENGTHS = {(6, 5): 28, (7, 5): 38, (8, 5): 50,
                       (7, 6): 46, (8, 6): 58, (8, 7): 75}


def test_exceptional_poincare_degrees_and_symmetry():
    from weylinv.weyl import is_palindromic
    for (k, l), length in EXCEPTIONAL_LENGTHS.items():
        p = exceptional_poincare(k, l)
        assert p.degree == length
        assert is_palindromic(p)
        exps = exceptional_exponents(k, l)
        assert sum(exps) == length


def test_exceptional_element_e6_matches_factorization():
    w = exceptional_element(6, 5)
    assert w.length() == 28
    assert exceptional_exponents(6, 5) == (1, 4, 4, 5, 7, 7)


def test_exceptional_element_e7_interval_counted_directly():
    # Table 1's E7 row by enumerating all 230 400 elements of [e, w_75],
    # not through the coset formula; the group is dropped afterwards so
    # that the interval does not stay in memory for the rest of the run
    w = exceptional_element(7, 5)
    try:
        P = poincare(w)
        assert P(1) == 230400
        assert P == exceptional_poincare(7, 5)
    finally:
        clear_caches()


# -- HLSS --------------------------------------------------------------------


def hlss_by_distance(w):
    """Direct formulation: reflection distance to w equals absolute length."""
    winv = w.inverse()
    for u in w.group.bruhat_interval(w):
        if bruhat_graph_distance(u, w) != absolute_length(u * winv):
            return False
    return True


def test_hlss_formulations_agree_a3():
    g = WeylGroup.get("A3")
    for w in g.elements():
        assert hlss(w) == hlss_by_distance(w)


def test_hlss_formulations_agree_b3_sampled():
    g = WeylGroup.get("B3")
    rng = random.Random(19)
    for w in rng.sample(sorted_elements(g), 12):
        assert hlss(w) == hlss_by_distance(w)


# -- pattern containment -----------------------------------------------------


def test_patterns_contain_themselves():
    for pid, pat in PATTERNS.items():
        for label in pat.realizations:
            assert contains_pattern(pat.element(label), pid)


def test_a3_pattern_containment_examples():
    g = WeylGroup.get("A3")
    w3412 = word_of((3, 4, 1, 2), g)
    w4231 = word_of((4, 2, 3, 1), g)
    w0 = longest_element(g)
    assert contains_pattern(w3412, "A3-3412")
    assert not contains_pattern(w3412, "A3-4231")
    assert contains_pattern(w4231, "A3-4231")
    assert not contains_pattern(w4231, "A3-3412")
    assert not contains_pattern(w0, "A3-3412")
    assert not contains_pattern(w0, "A3-4231")


def test_root_pattern_matches_permutation_pattern_a4():
    g = WeylGroup.get("A4")
    rng = random.Random(3)
    for w in rng.sample(sorted_elements(g), 15):
        perm = perm_of(w)
        assert contains_pattern(w, "A3-3412") == \
            (not avoids_perm_pattern(perm, (3, 4, 1, 2)))
        assert contains_pattern(w, "A3-4231") == \
            (not avoids_perm_pattern(perm, (4, 2, 3, 1)))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2"])
def test_pattern_hits_match_all_roots_scan(name):
    for w in WeylGroup.get(name).elements():
        assert pattern_hits(w) == ref.pattern_hits(w)


@pytest.mark.parametrize("name", ["D4", "A4"])
def test_pattern_hits_match_all_roots_scan_sampled(name):
    g = WeylGroup.get(name)
    rng = random.Random(29)
    for w in rng.sample(sorted_elements(g), 12) + [longest_element(g)]:
        assert pattern_hits(w) == ref.pattern_hits(w)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "A4"])
def test_smoothness_methods_agree(name):
    g = WeylGroup.get(name)
    for w in g.elements():
        assert rationally_smooth(w, "palindromic") == rationally_smooth(w, "patterns")


def test_rationally_smooth_rejects_unknown_method():
    g = WeylGroup.get("A3")
    with pytest.raises(ValueError):
        rationally_smooth(g.identity, "magic")


# -- flattening closure properties -------------------------------------------


def random_root_subspace(system, rng, k):
    basis = rng.sample(system.positive_roots, k)
    return basis if matrix_rank(basis) == k else None


def test_hlss_closed_under_flattening():
    g = WeylGroup.get("B3")
    rng = random.Random(29)
    els = sorted_elements(g)
    checked = 0
    while checked < 12:
        w = rng.choice(els)
        if not hlss(w):
            continue
        basis = random_root_subspace(g.system, rng, 2)
        if basis is None:
            continue
        fl, sub = flatten(w, basis)
        if fl is None or sub.datum is None:
            continue
        assert hlss(fl)
        checked += 1


def test_freeness_closed_under_flattening():
    for name in ("B3", "D4"):
        g = WeylGroup.get(name)
        rng = random.Random(37)
        els = sorted_elements(g)
        checked = 0
        while checked < 10:
            w = rng.choice(els)
            if not inductively_free(inversion_arrangement(w)).free:
                continue
            basis = random_root_subspace(g.system, rng, 3)
            if basis is None:
                continue
            fl, sub = flatten(w, basis)
            if fl is None or sub.datum is None:
                continue
            assert inductively_free(inversion_arrangement(fl)).free
            checked += 1


def test_supersolvability_closed_under_flattening():
    g = WeylGroup.get("D4")
    rng = random.Random(41)
    els = sorted_elements(g)
    checked = 0
    while checked < 10:
        w = rng.choice(els)
        ss, _ = is_supersolvable(inversion_arrangement(w))
        if not ss:
            continue
        basis = random_root_subspace(g.system, rng, 3)
        if basis is None:
            continue
        fl, sub = flatten(w, basis)
        if fl is None or sub.datum is None:
            continue
        ss2, _ = is_supersolvable(inversion_arrangement(fl))
        assert ss2
        checked += 1


def test_localization_matches_flattened_arrangement():
    # J(w) restricted to a root subspace has the same Poincare polynomial
    # as the inversion arrangement of the flattened element
    g = WeylGroup.get("B3")
    rng = random.Random(43)
    els = sorted_elements(g)
    for _ in range(20):
        w = rng.choice(els)
        basis = random_root_subspace(g.system, rng, 2)
        if basis is None:
            continue
        fl, sub = flatten(w, basis)
        if sub.datum is None:
            continue
        A = inversion_arrangement(w)
        r = matrix_rank(basis)
        inside = [n for n in A.normals
                  if matrix_rank(list(basis) + [n]) == r]
        local = Arrangement(A.dim, inside)
        target = (poincare_polynomial(inversion_arrangement(fl))
                  if fl is not None else poincare_polynomial(Arrangement(1, [])))
        assert poincare_polynomial(local) == target


def test_bc_arrangements_have_equal_invariants():
    # B3 and C3 words give arrangements with the same Poincare polynomial
    gb = WeylGroup.get("B3")
    gc = WeylGroup.get("C3")
    for w in sorted_elements(gb):
        wc = gc.from_word(w.word())
        assert wc.length() == w.length()
        assert poincare_polynomial(inversion_arrangement(w)) == \
            poincare_polynomial(inversion_arrangement(wc))


# -- type A permutation utilities --------------------------------------------


def test_perm_word_round_trip_a3():
    g = WeylGroup.get("A3")
    for w in g.elements():
        assert word_of(perm_of(w), g) is w


def test_perm_of_simple_generator():
    g = WeylGroup.get("A3")
    assert perm_of(g.generators[0]) == (2, 1, 3, 4)
    assert perm_of(g.identity) == (1, 2, 3, 4)


def test_word_of_rejects_non_permutations():
    g = WeylGroup.get("A3")
    with pytest.raises(ValueError):
        word_of((1, 1, 2, 3), g)
    with pytest.raises(ValueError):
        word_of((0, 1, 2, 3), g)


def test_type_a_utilities_reject_other_types():
    g = WeylGroup.get("B3")
    with pytest.raises(ValueError):
        perm_of(g.identity)


def test_inversion_graph_examples():
    g = WeylGroup.get("A3")
    n, edges = inversion_graph(word_of((3, 4, 1, 2), g))
    assert n == 4
    assert edges == frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})
    assert not is_chordal((n, edges))
    n2, edges2 = inversion_graph(word_of((4, 2, 3, 1), g))
    assert is_chordal((n2, edges2))
    assert is_chordal(inversion_graph(g.identity))


def test_avoids_perm_pattern():
    assert avoids_perm_pattern((4, 3, 2, 1), (3, 4, 1, 2))
    assert avoids_perm_pattern((4, 3, 2, 1), (4, 2, 3, 1))
    assert not avoids_perm_pattern((4, 2, 3, 1), (4, 2, 3, 1))
    assert not avoids_perm_pattern((5, 2, 4, 3, 1), (4, 2, 3, 1))
    assert not avoids_perm_pattern((5, 3, 4, 1, 2), (3, 4, 1, 2))
    assert avoids_perm_pattern((1, 2, 3), (2, 1))
