import dataclasses
import itertools
import random
from typing import Optional

import pytest

import audit_oracle
import fraction_linalg
import lattice_oracle as lat
import pattern_oracle as ref
from weylinv.arrangement import flats_of_rank, is_supersolvable, poincare_polynomial, Arrangement
from weylinv import arrangement, freeness, smoothness
from weylinv.cache import clear_caches
from weylinv.inversion import flatten, inversion_arrangement, inversion_set
from weylinv.linalg import rank as matrix_rank
from weylinv.freeness import inductively_free
from weylinv.polynomials import q_int
from weylinv.smoothness import (
    ALL_CHECKS, PATTERNS, ChainBPTree, _pair_span_chain, avoids_perm_pattern, bp_decomposition, complete_chain_bp,
    contains_pattern, coset_chain_poincare, exceptional_element,
    exceptional_exponents, exceptional_poincare, exponents_of, find_chain_bp,
    hlss, inversion_graph, is_bp, is_chordal,
    parabolic_exponents, parabolic_poincare, pattern_hits, perm_of,
    rationally_smooth, theorem_audit, tree_exponents, word_of,
)
from weylinv.weyl import (
    WeylElement, WeylGroup, bruhat_leq, coset_poincare, longest_element,
    parabolic_decomposition, poincare,
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


@pytest.mark.parametrize("name", ["B3", "C3", "D4"])
def test_chain_bp_candidates_match_the_oracle_that_tries_the_full_support(name, monkeypatch):
    g = WeylGroup.get(name)
    tried = []

    def spy(w, J, side="left"):
        tried.append((w, frozenset(J)))
        return bp_decomposition(w, J, side)

    for w in sorted_elements(g):
        expected = list(audit_oracle.chain_bp_candidates(w))
        with monkeypatch.context() as m:
            m.setattr(smoothness, "bp_decomposition", spy)
            assert list(smoothness.chain_bp_candidates(w)) == expected
    # w lies in W_J for J = supp(w), so v = e there; that J is never decomposed
    assert tried and all(J != w.support() for w, J in tried)


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


def absolute_length(w: WeylElement) -> int:
    # rank of w - 1, read off its columns w(alpha_j) - alpha_j
    rows = [tuple(x - int(i == j) for i, x in enumerate(w.apply(a)))
            for j, a in enumerate(w.group.system.simple_roots)]
    return matrix_rank(rows)


def bruhat_graph_distance(u: WeylElement, w: WeylElement) -> Optional[int]:
    """al(u, w); None means infinite (u not below w)."""
    g = u.group
    if not g.bruhat_leq(u, w):
        return None
    interval = g.bruhat_interval(w)
    dist = {u: 0}
    frontier = [u]
    d = 0
    while frontier:
        if w in dist:
            return dist[w]
        d += 1
        nxt = []
        for x in frontier:
            inv = x.inverse().perm
            for t, j in zip(g.reflections, inv):
                if j < g.n_pos:  # l(t x) > l(x) iff x^-1(beta) is positive
                    tx = g.mul(t, x)
                    if tx not in dist and tx in interval:
                        dist[tx] = d
                        nxt.append(tx)
        frontier = nxt
    return dist.get(w)


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


def inversion_spans(w, r):
    """The scan pattern_hits replaced: RREFs of the r-subsets of I(w) that span r dimensions."""
    subsets = itertools.combinations(inversion_set(w).roots, r)
    return {key for key in map(fraction_linalg.rref, subsets) if len(key) == r}


def flat_spans(w, r):
    """RREFs of the spans of the rank-r flats of I(w), one per flat."""
    A = inversion_arrangement(w)
    flats = flats_of_rank(A, r)
    spans = {fraction_linalg.rref([A.normals[i] for i in sorted(X.contains)]) for X in flats}
    assert len(spans) == len(flats)
    return spans


@pytest.mark.parametrize("name", ["B3", "C3", "G2", "A4", "D4", "F4"])
def test_rank_r_flats_are_the_spans_of_r_inversions(name):
    g = WeylGroup.get(name)
    if name in ("D4", "F4"):
        els = random.Random(31).sample(sorted_elements(g), 8) + [longest_element(g)]
    else:
        els = g.elements()
    for w in els:
        for r in (2, 3, 4):
            assert flat_spans(w, r) == inversion_spans(w, r)


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


# -- the combined audit ------------------------------------------------------


@pytest.fixture
def fresh_caches():
    # injected faults reach the memos (complete_chain_bp recurses through its
    # module-level name); no other test may see them
    clear_caches()
    yield
    clear_caches()


def check_subsets():
    for k in range(1, len(ALL_CHECKS) + 1):
        yield from itertools.combinations(ALL_CHECKS, k)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4"])
def test_audit_matches_eager_oracle(name, fresh_caches):
    g = WeylGroup.get(name)
    for checks in check_subsets():
        assert theorem_audit(g, checks) == audit_oracle.theorem_audit(g, checks), checks


@pytest.mark.parametrize("name, checks, sample_j, seed", [
    ("B4", ("supersolvable", "hlss"), None, 0),
    ("D4", ALL_CHECKS, 12, 3),
])
def test_audit_matches_eager_oracle_on_benchmark_options(name, checks, sample_j, seed,
                                                         fresh_caches):
    g = WeylGroup.get(name)
    assert theorem_audit(g, checks, sample_j, seed) == \
        audit_oracle.theorem_audit(g, checks, sample_j, seed)


def first_non_smooth(g):
    return next(w for w in sorted_elements(g) if not rationally_smooth(w))


def tree_for_one_non_smooth_element(g):
    target = first_non_smooth(g)
    real = smoothness.complete_chain_bp
    return "complete_chain_bp", lambda w: ChainBPTree(None, None) if w == target else real(w)


def no_tree_for_one_smooth_element(g):
    target = longest_element(g)
    real = smoothness.complete_chain_bp
    return "complete_chain_bp", lambda w: None if w == target else real(w)


def never_supersolvable(g):
    return "is_supersolvable", lambda A: (False, None)


def never_free(g):
    real = freeness.inductively_free
    return "inductively_free", lambda A, **kw: dataclasses.replace(
        real(A, **kw), status=freeness.NOT_INDUCTIVELY_FREE, coexponents=None)


def one_non_smooth_element_smooth(g):
    # smooth with pi(1) != |[e, w]| (4231 in A3, which is free): the audit
    # skips the freeness search and must still report its status
    target = next(w for w in sorted_elements(g) if not rationally_smooth(w) and
                  poincare_polynomial(inversion_arrangement(w))(1) != len(g.bruhat_interval(w)))
    real = smoothness.rationally_smooth
    return "rationally_smooth", lambda w: True if w == target else real(w)


def every_coset_a_chain(g):
    real = smoothness.coset_chain_poincare
    return "coset_chain_poincare", lambda v, J, side: (True, real(v, J, side)[1])


def no_coset_a_chain(g):
    return "coset_chain_poincare", lambda v, J, side: (False, None)


def every_pair_meets_always(g):
    return "every_pair_meets", lambda outside, inside: True


@pytest.mark.parametrize("fault", [
    tree_for_one_non_smooth_element, no_tree_for_one_smooth_element,
    never_supersolvable, never_free, one_non_smooth_element_smooth,
    every_coset_a_chain, no_coset_a_chain, every_pair_meets_always,
])
@pytest.mark.parametrize("name", ["A3", "B3"])
def test_audit_reports_injected_faults_like_eager_oracle(name, fault, monkeypatch,
                                                         fresh_caches):
    g = WeylGroup.get(name)
    attr, fake = fault(g)
    # every module that holds the name, as each audit looks it up there
    # (`pairs_meet_flat` looks up every_pair_meets in arrangement)
    for module in (smoothness, freeness, arrangement, audit_oracle):
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, fake)
    report = theorem_audit(g)
    assert report["counterexamples"]
    assert report == audit_oracle.theorem_audit(g)


def modular_coatom_triples(g):
    """(w, side, J, u) for every pair the modular_coatom check visits."""
    for w in sorted_elements(g):
        for side in ("left", "right"):
            for J in smoothness._candidate_subsets(w):
                _, u, v = is_bp(w, J, side)
                if not v.is_identity():
                    yield w, side, J, u


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "A4", "D4"])
def test_modular_coatom_flat_is_read_off_root_supports(name):
    # the audit's flat of I(u) is I(w) ∩ Φ_J, of rank |supp(u)|; the eager
    # oracle closes I(u) by elimination and ranks the closure
    g = WeylGroup.get(name)
    for w, side, J, u in modular_coatom_triples(g):
        x = w if side == "left" else w.inverse()
        B = inversion_arrangement(x)
        inv_u = inversion_set(u if side == "left" else u.inverse()).as_set()
        closed = arrangement.flat_of(B, [i for i, b in enumerate(B.normals) if b in inv_u])
        by_support = frozenset(i for i, b in enumerate(B.normals)
                               if all(k in J for k, c in enumerate(b) if c))
        assert closed.contains == by_support, (w.word(), side, J)
        supp = {k for i in by_support for k, c in enumerate(B.normals[i]) if c}
        assert len(supp) == matrix_rank([B.normals[i] for i in closed.contains])
        assert len(supp) == len(u.support())


@pytest.mark.parametrize("name", ["B3", "D4"])
def test_modular_coatom_check_does_no_elimination(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the modular_coatom check eliminated")

    monkeypatch.setattr(arrangement, "_closure", refuse)
    monkeypatch.setattr(arrangement, "matrix_rank", refuse)
    g = WeylGroup.get(name)
    report = theorem_audit(g, ["modular_coatom"])
    assert report["checks"] == {"modular_coatom": g.order()}
    assert report["counterexamples"] == []
