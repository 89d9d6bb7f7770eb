import itertools
import random

import pytest

import matrix_weyl as ref
from weylinv.polynomials import q_int, product
from weylinv.weyl import (
    WeylGroup, absolute_length, bruhat_graph_distance, bruhat_interval,
    bruhat_leq, coset_poincare, descents, longest_element,
    parabolic_decomposition, poincare,
)

ORDERS = {"A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48, "C3": 48,
          "D4": 192, "G2": 12}


@pytest.mark.parametrize("name,order", sorted(ORDERS.items()))
def test_group_orders(name, order):
    assert WeylGroup.get(name).order() == order


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_word_length_and_canonical_word(name):
    g = WeylGroup.get(name)
    for w in g.elements():
        word = w.word()
        assert len(word) == w.length()
        assert g.from_word(word) is w
        # canonical word strips the smallest left descent first
        if word:
            assert word[0] == min(w.left_descents())


def test_nonreduced_words_are_accepted():
    g = WeylGroup.get("A3")
    assert g.from_word([0, 0]) is g.identity
    assert g.from_word([0, 1, 1, 0, 2]) is g.from_word([2])


def subword_leq(u, w):
    """Bruhat order oracle: u <= w iff some subword of a reduced word of w
    is a reduced word for u."""
    word = w.word()
    target = u.length()
    g = u.group
    for k in itertools.combinations(range(len(word)), target):
        if g.from_word([word[i] for i in k]) is u:
            return True
    return u.length() == 0


def test_bruhat_leq_matches_subword_oracle_a3():
    g = WeylGroup.get("A3")
    els = sorted(g.elements(), key=lambda x: (x.length(), x.word()))
    for u in els:
        for w in els:
            assert bruhat_leq(u, w) == subword_leq(u, w)


def test_bruhat_leq_matches_subword_oracle_b3_sampled():
    g = WeylGroup.get("B3")
    els = sorted(g.elements(), key=lambda x: (x.length(), x.word()))
    rng = random.Random(5)
    for _ in range(300):
        u, w = rng.choice(els), rng.choice(els)
        assert bruhat_leq(u, w) == subword_leq(u, w)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_interval_consistency(name):
    g = WeylGroup.get(name)
    for w in g.elements():
        interval = bruhat_interval(w)
        assert all(bruhat_leq(u, w) for u in interval)
        assert len(interval) == sum(1 for u in g.elements() if bruhat_leq(u, w))
        assert poincare(w)(1) == len(interval)


def test_descents_and_inverse():
    g = WeylGroup.get("B3")
    for w in g.elements():
        wi = w.inverse()
        assert w * wi is g.identity
        assert descents(w, "left") == descents(wi, "right")
        assert {s for s in range(g.rank) if (w * g.generators[s]).length() < w.length()} \
            == descents(w, "right")


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_parabolic_decomposition_properties(name):
    g = WeylGroup.get(name)
    rng = random.Random(11)
    els = sorted(g.elements(), key=lambda x: (x.length(), x.word()))
    for _ in range(60):
        w = rng.choice(els)
        J = frozenset(rng.sample(range(g.rank), rng.randint(0, g.rank)))
        u, v = parabolic_decomposition(w, J, "left")
        assert g.mul(u, v) is w
        assert u.support() <= J
        assert not (v.left_descents() & J)
        assert u.length() + v.length() == w.length()
        u2, v2 = parabolic_decomposition(w, J, "right")
        assert g.mul(v2, u2) is w
        assert u2.support() <= J
        assert not (v2.right_descents() & J)


def test_longest_element_properties():
    for name, n_pos in (("A3", 6), ("B3", 9), ("D4", 12)):
        g = WeylGroup.get(name)
        w0 = longest_element(g)
        assert w0.length() == n_pos
        assert w0 * w0 is g.identity
        assert descents(w0, "right") == frozenset(range(g.rank))
    g = WeylGroup.get("A3")
    assert longest_element(g, [0, 1]).word() == (0, 1, 0)


def test_poincare_of_longest_is_full_group():
    g = WeylGroup.get("A3")
    w0 = longest_element(g)
    assert poincare(w0) == product([q_int(2), q_int(3), q_int(4)])


def test_coset_poincare_factorization():
    # P_w = P_u * ^J P_v whenever w = uv is a BP decomposition; check the
    # identity on the longest element of A3
    g = WeylGroup.get("A3")
    w0 = longest_element(g)
    J = frozenset({0, 1})
    u, v = parabolic_decomposition(w0, J, "left")
    assert poincare(w0) == poincare(u) * coset_poincare(v, J, "left")
    assert coset_poincare(v, J, "left") == q_int(4)


def test_absolute_length_oracle():
    # l'(w) equals the minimal number of reflections multiplying to w
    g = WeylGroup.get("A3")
    refl = list(g.reflections)
    reach = {g.identity: 0}
    frontier = [g.identity]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for t in refl:
                y = g.mul(t, x)
                if y not in reach:
                    reach[y] = d
                    nxt.append(y)
        frontier = nxt
    for w in g.elements():
        assert absolute_length(w) == reach[w]


def test_bruhat_graph_distance_basics():
    g = WeylGroup.get("A3")
    e = g.identity
    w0 = longest_element(g)
    assert bruhat_graph_distance(e, e) == 0
    assert bruhat_graph_distance(e, w0) == absolute_length(w0)
    s = g.generators[0]
    assert bruhat_graph_distance(s, s) == 0
    # incomparable pair: distance is None
    t = g.generators[2]
    assert bruhat_graph_distance(s, t) is None


# -- differential tests against the matrix model ----------------------------


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4", "F4", "E6"])
def test_reflections_agree_with_root_system_reflect(name):
    g = WeylGroup.get(name)
    system = g.system
    assert len(g.reflections) == len(system.positive_roots)
    for beta, t in zip(system.positive_roots, g.reflections):
        for root in g.roots:
            assert t.apply(root) == ref.reflect(system, beta, root)
        assert g.reflection_of(beta) is t


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "D4", "F4"])
def test_mul_agrees_with_matrix_product(name):
    g = WeylGroup.get(name)
    els = sorted(g.elements(), key=lambda x: (x.length(), x.word()))
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.choice(els), rng.choice(els)
        assert ref.cols_of(a * b) == ref.mul(ref.cols_of(a), ref.cols_of(b))
        assert ref.cols_of(a.inverse()) == ref.inverse(ref.cols_of(a))


def _check_interval_against_closure(g, w):
    got = {ref.cols_of(x) for x in bruhat_interval(w)}
    assert len(got) == len(bruhat_interval(w))
    assert got == ref.interval(g.system, ref.cols_of(w))


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_bruhat_interval_matches_reflection_closure(name):
    g = WeylGroup.get(name)
    for w in g.elements():
        _check_interval_against_closure(g, w)


@pytest.mark.parametrize("name,count", [("D4", 25), ("F4", 12)])
def test_bruhat_interval_matches_reflection_closure_sampled(name, count):
    g = WeylGroup.get(name)
    els = sorted(g.elements(), key=lambda x: (x.length(), x.word()))
    rng = random.Random(7)
    for w in rng.sample(els, count) + [longest_element(g)]:
        _check_interval_against_closure(g, w)
