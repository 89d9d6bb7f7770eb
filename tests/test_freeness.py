import copy
import inspect
import random
import sys

import pytest
from hypothesis import given

import freeness_oracle as ref
from test_arrangement import random_arrangements
from weylinv.arrangement import (
    Arrangement, deletion, flat_of, quotient_by_center, restriction,
)
from weylinv.cache import clear_caches
from weylinv.freeness import inductively_free, verify_certificate
from weylinv.inversion import inversion_arrangement, inversion_set
from weylinv.polynomials import IntPolynomial, linear_split
from weylinv.smoothness import exceptional_element
from weylinv.weyl import WeylGroup, longest_element


def test_empty_arrangement_is_free():
    res = inductively_free(Arrangement(3, []))
    assert res.free
    assert res.coexponents == (0, 0, 0)


def test_known_examples_in_a3():
    g = WeylGroup.get("A3")
    free = inductively_free(inversion_arrangement(g.from_word([1, 2, 1, 0])))
    assert free.free and free.coexponents == (1, 1, 2)
    bad = inductively_free(inversion_arrangement(g.from_word([1, 2, 0, 1])))
    assert bad.status == "not_inductively_free"
    assert not bad.q_splits
    assert bad.q_poly == IntPolynomial((1, 4, 6, 3))


def test_round_trip_all_free_a3():
    g = WeylGroup.get("A3")
    for w in g.elements():
        A = inversion_arrangement(w)
        res = inductively_free(A, with_certificate=True)
        if not res.free:
            continue
        status, exps = verify_certificate(A, res.certificate)
        assert status == "accept"
        assert exps == res.coexponents
        # Terao consistency: coexponents are the roots of Q
        nonzero = sorted(d for d in res.coexponents if d)
        assert nonzero == (linear_split(res.q_poly) or [])


def test_coexponents_match_q_roots_b3():
    g = WeylGroup.get("B3")
    rng = random.Random(2)
    els = sorted(g.elements(), key=lambda x: (x.length(), x.word()))
    for w in rng.sample(els, 20):
        res = inductively_free(inversion_arrangement(w))
        if res.free:
            nonzero = sorted(d for d in res.coexponents if d)
            assert nonzero == (linear_split(res.q_poly) or [])


def test_certificates_are_deterministic():
    g = WeylGroup.get("B3")
    A = inversion_arrangement(longest_element(g))
    c1 = inductively_free(A, with_certificate=True).certificate
    clear_caches()
    c2 = inductively_free(A, with_certificate=True).certificate
    assert c1 == c2


def test_certificates_do_not_depend_on_the_other_order():
    g = WeylGroup.get("B3")
    A = inversion_arrangement(longest_element(g))
    certs = {}
    for first, second in (("height", "lex"), ("lex", "height")):
        clear_caches()
        c1 = inductively_free(A, order=first, with_certificate=True).certificate
        c2 = inductively_free(A, order=second, with_certificate=True).certificate
        certs.setdefault(first, []).append(c1)
        certs.setdefault(second, []).append(c2)
    assert certs["lex"][0] == certs["lex"][1]
    assert certs["height"][0] == certs["height"][1]
    assert certs["lex"] != certs["height"]


def test_pivot_not_in_arrangement_rejected():
    g = WeylGroup.get("A3")
    A = inversion_arrangement(longest_element(g))
    cert = inductively_free(A, with_certificate=True).certificate
    bad = copy.deepcopy(cert)
    bad["pivot"] = [5, 7]
    status, payload = verify_certificate(A, bad)
    assert status == "reject"


def test_leaf_at_high_rank_rejected():
    g = WeylGroup.get("A4")
    A = inversion_arrangement(longest_element(g))
    status, payload = verify_certificate(A, None)
    assert status == "reject"
    assert "rank" in payload[1]


def test_addition_violation_rejected():
    g = WeylGroup.get("A4")
    A = inversion_arrangement(longest_element(g))
    cert = inductively_free(A, with_certificate=True).certificate
    bad = copy.deepcopy(cert)
    # swapping the children breaks the dimension bookkeeping or the
    # addition relation; either way the verifier must say no
    bad["del"], bad["res"] = bad["res"], bad["del"]
    status, _ = verify_certificate(A, bad)
    assert status == "reject"


def test_modular_coatom_freeness_a3():
    g = WeylGroup.get("A3")
    w0 = longest_element(g)
    A = inversion_arrangement(w0)
    u1 = g.from_word([0, 1, 0])
    inv_u1 = inversion_set(u1).as_set()
    X1 = flat_of(A, [i for i, n in enumerate(A.normals) if n in inv_u1])
    # the reference coatom shortcut builds a certificate the search does not
    status, coexponents, cert = ref.modular_coatom_freeness(A, X1)
    assert status == "free" and coexponents == (1, 2, 3)
    assert verify_certificate(A, cert) == ("accept", (1, 2, 3))


def test_height_order_gives_same_answers():
    g = WeylGroup.get("B3")
    rng = random.Random(8)
    els = sorted(g.elements(), key=lambda x: (x.length(), x.word()))
    for w in rng.sample(els, 15):
        A = inversion_arrangement(w)
        assert inductively_free(A, order="lex").status == \
            inductively_free(A, order="height").status


def test_deep_deletion_chain_fits_the_recursion_limit():
    # a pencil of p + 2 planes through one line and q + 1 planes (k, 0, 1):
    # supersolvable with coexponents (1, p + 1, q + 1), and a deletion chain
    # about p levels deep.  One frame per level needs about 120 frames here
    # (125 under pytest); a memo wrapper plus a worker needs 220, and a
    # `cached` search more than 400
    p = q = 100
    A = Arrangement(3, [(1, k, 0) for k in range(p + 1)] + [(0, 1, 0)]
                    + [(k, 0, 1) for k in range(q + 1)])
    clear_caches()
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 160)
    try:
        res = inductively_free(A, with_certificate=True)
        verdict = verify_certificate(A, res.certificate)
    finally:
        sys.setrecursionlimit(old)
    assert res.free and res.coexponents == (1, 101, 101)
    assert verdict == ("accept", (1, 101, 101))


# -- differential tests against the replaced search (tests/freeness_oracle.py)

# B4 has elements where a pivot with free deletion and restriction, but with
# π(B^H) not π(B) less one root, comes before every valid pivot; the smaller
# groups here have none, so without B4 a search that skips that test passes
ORACLE_GROUPS = ("A3", "B3", "C3", "G2", "D4", "B4")


def assert_search_matches_oracle(A):
    for order in ("lex", "height"):
        res = inductively_free(A, order=order, with_certificate=True)
        assert (res.status, res.coexponents, res.certificate) == \
            ref.inductively_free(A, order=order)


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_search_matches_oracle_on_inversion_arrangements(name):
    for w in WeylGroup.get(name).elements():
        assert_search_matches_oracle(inversion_arrangement(w))


@given(random_arrangements)
def test_search_matches_oracle_on_random_arrangements(A):
    assert_search_matches_oracle(A)


# -- certificate leaves: closed form against the brute-force NBC count ------


def certificate_leaves(A, cert, out):
    """Add to out the essential arrangements at the leaves of a certificate."""
    ess = quotient_by_center(A)
    if cert is None:
        out.add(ess)
    else:
        pivot = tuple(cert["pivot"])
        certificate_leaves(deletion(ess, pivot), cert["del"], out)
        certificate_leaves(restriction(ess, pivot), cert["res"], out)
    return out


def assert_leaf_matches_nbc_count(A):
    l = quotient_by_center(A).dim
    if l > 2:
        assert verify_certificate(A, None) == \
            ("reject", ((), "leaf certificate at effective rank > 2"))
    else:
        exps = ref.leaf_exponents(A)
        assert verify_certificate(A, None) == ("accept", tuple([0] * (A.dim - l) + exps))


@pytest.mark.parametrize("name", ("A3", "B3", "C3", "G2", "D4", "w65"))
def test_closed_form_leaves_match_nbc_count(name):
    elements = [exceptional_element(6, 5)] if name == "w65" else WeylGroup.get(name).elements()
    leaves = set()
    for w in elements:
        A = inversion_arrangement(w)
        for order in ("lex", "height"):
            res = inductively_free(A, order=order, with_certificate=True)
            if res.free:
                certificate_leaves(A, res.certificate, leaves)
    assert leaves
    for L in leaves:
        assert_leaf_matches_nbc_count(L)


@given(random_arrangements)
def test_closed_form_leaf_matches_nbc_count_on_random_arrangements(A):
    assert_leaf_matches_nbc_count(A)
    for v in A.normals:
        R = restriction(A, v)
        assert_leaf_matches_nbc_count(R)
        for u in R.normals:
            assert_leaf_matches_nbc_count(restriction(R, u))
