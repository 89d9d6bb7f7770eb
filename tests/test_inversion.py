import itertools
import random

import pytest

from weylinv.arrangement import nbc_sets
from weylinv.inversion import (
    element_from_biconvex, flatten, inversion_arrangement, inversion_set,
    is_biconvex, is_convex_order, phi,
)
from weylinv.linalg import rank as matrix_rank
from weylinv.weyl import WeylGroup, bruhat_interval, bruhat_leq


def all_reduced_words(w):
    if w.is_identity():
        yield ()
        return
    g = w.group
    for s in w.left_descents():
        for rest in all_reduced_words(g.generators[s] * w):
            yield (s,) + rest


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_inversion_set_matches_direct_definition(name):
    g = WeylGroup.get(name)
    for w in g.elements():
        inv = inversion_set(w)
        winv = w.inverse()
        direct = {b for b in g.system.positive_roots if sum(winv.apply(b)) < 0}
        assert inv.as_set() == direct
        assert len(inv) == w.length()


def test_inversion_set_rejects_non_reduced_words():
    g = WeylGroup.get("A3")
    w = g.from_word([0, 1])
    with pytest.raises(ValueError):
        inversion_set(w, [0, 1, 1, 1])
    with pytest.raises(ValueError):
        inversion_set(w, [1, 0])  # different element


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_biconvex_round_trip(name):
    g = WeylGroup.get(name)
    for w in g.elements():
        roots = inversion_set(w).as_set()
        assert is_biconvex(roots, g.system)
        assert element_from_biconvex(roots, g) is w


def test_non_biconvex_sets_detected():
    g = WeylGroup.get("A3")
    system = g.system
    a1, a2 = system.simple_roots[0], system.simple_roots[1]
    both = tuple(x + y for x, y in zip(a1, a2))
    # contains a sum without the summands: not closed under coconvexity
    assert not is_biconvex({both}, system)
    with pytest.raises(ValueError):
        element_from_biconvex({both}, g)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_every_reduced_word_gives_convex_order(name):
    g = WeylGroup.get(name)
    rng = random.Random(3)
    els = sorted(g.elements(), key=lambda x: (x.length(), x.word()))
    for w in rng.sample(els, 12):
        for word in itertools.islice(all_reduced_words(w), 8):
            order = inversion_set(w, word)
            assert is_convex_order(order.roots, g.system)


def test_bad_order_fails_convexity():
    # alpha1 + alpha2 must sit between alpha1 and alpha2 in any convex order
    g = WeylGroup.get("A3")
    a1 = g.system.simple_roots[0]
    a2 = g.system.simple_roots[1]
    both = tuple(x + y for x, y in zip(a1, a2))
    assert is_convex_order([a1, both, a2], g.system)
    assert not is_convex_order([a1, a2, both], g.system)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_phi_injective_on_nbc_sets(name):
    # phi embeds the NBC sets of J(w) into [e, w], injectively
    g = WeylGroup.get(name)
    for w in g.elements():
        order = inversion_set(w).roots
        A = inversion_arrangement(w)
        seen = set()
        for B in nbc_sets(A, order=order):
            x = phi(B, w)
            assert x not in seen
            seen.add(x)
            assert bruhat_leq(x, w)


def test_flatten_on_own_span_is_identity_map():
    g = WeylGroup.get("B3")
    rng = random.Random(9)
    els = sorted(g.elements(), key=lambda x: (x.length(), x.word()))
    for w in rng.sample(els, 10):
        if w.length() == 0:
            continue
        inv = inversion_set(w).roots
        fl, sub = flatten(w, g.system.simple_roots)
        assert set(sub.positive_roots) == set(g.system.positive_roots)
        assert fl.length() == w.length()


def test_flatten_equivariance_random_subspaces():
    # I(fl_U(w)) equals the coordinates of I(w) cap U
    for name in ("B3", "D4"):
        g = WeylGroup.get(name)
        rng = random.Random(17)
        els = sorted(g.elements(), key=lambda x: (x.length(), x.word()))
        pos = g.system.positive_roots
        for _ in range(15):
            w = rng.choice(els)
            k = rng.randint(1, 3)
            basis = rng.sample(pos, k)
            if matrix_rank(basis) != k:
                continue
            fl, sub = flatten(w, basis)
            if sub.datum is None:
                continue
            inv_w = inversion_set(w).as_set()
            expected = {sub.coords(b) for b in sub.positive_roots if b in inv_w}
            if fl is None:
                assert not expected
            else:
                assert inversion_set(fl).as_set() == expected


def test_flatten_induced_convex_order():
    # the order inherited from a convex order on I(w) is convex on I(fl_U(w))
    g = WeylGroup.get("B3")
    rng = random.Random(23)
    els = sorted(g.elements(), key=lambda x: (x.length(), x.word()))
    pos = g.system.positive_roots
    for _ in range(20):
        w = rng.choice(els)
        basis = rng.sample(pos, 2)
        if matrix_rank(basis) != 2:
            continue
        fl, sub = flatten(w, basis)
        if fl is None or sub.datum is None:
            continue
        order = [sub.coords(b) for b in inversion_set(w).roots
                 if b in set(sub.positive_roots)]
        assert is_convex_order(order, sub.system())
