"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single "criterion N: PASS/FAIL" line with its runtime,
and fails if it exceeds the stated time budget.
"""

import copy
import itertools
import random
import time
from contextlib import contextmanager

from weylinv.arrangement import (
    Arrangement, deletion, flat_of, is_modular_coatom, is_supersolvable,
    nbc_counts_by_size, poincare_polynomial, restriction,
)
from weylinv.cache import clear_caches
from weylinv.freeness import inductively_free, verify_certificate
from weylinv.inversion import (
    flatten, inversion_arrangement, inversion_set, is_convex_order, phi,
)
from weylinv.linalg import rank as matrix_rank
from weylinv.polynomials import (
    IntPolynomial, product, q_int, q_integer_factorization,
)
from weylinv.smoothness import (
    PATTERNS, avoids_perm_pattern, bp_decomposition, complete_chain_bp,
    exceptional_element, find_chain_bp, hlss, inversion_graph, is_chordal,
    perm_of, rationally_smooth, theorem_audit, tree_exponents,
)
from weylinv.weyl import (
    WeylGroup, bruhat_leq, is_palindromic, longest_element, poincare,
)


@contextmanager
def criterion(n, bound=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL ({time.monotonic() - t0:.1f}s)")
        raise
    elapsed = time.monotonic() - t0
    ok = bound is None or elapsed < bound
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert ok, f"time budget of {bound}s exceeded: {elapsed:.1f}s"


def sorted_elements(g):
    return sorted(g.elements(), key=lambda x: (x.length(), x.word()))


def test_criterion_01_rank3_examples():
    with criterion(1, 1.0):
        g = WeylGroup.get("A3")
        w = g.from_word([1, 2, 1, 0])
        assert poincare(w).coeffs == (1, 3, 4, 3, 1)
        res = inductively_free(inversion_arrangement(w))
        assert res.free
        assert res.coexponents == (1, 1, 2)
        assert res.q_poly == product(
            [IntPolynomial((1, 1)), IntPolynomial((1, 1)), IntPolynomial((1, 2))])

        w2 = g.from_word([1, 2, 0, 1])
        P2 = poincare(w2)
        assert P2.coeffs == (1, 3, 5, 4, 1)
        assert not is_palindromic(P2)
        res2 = inductively_free(inversion_arrangement(w2))
        assert res2.status == "not_inductively_free"
        assert res2.q_poly == IntPolynomial((1, 1)) * IntPolynomial((1, 3, 3))


def test_criterion_02_longest_element_a3():
    with criterion(2, 1.0):
        g = WeylGroup.get("A3")
        w0 = longest_element(g)
        P = poincare(w0)
        assert P.coeffs == (1, 3, 5, 6, 5, 3, 1)
        assert P == q_int(2) * q_int(3) * q_int(4)
        dec = bp_decomposition(w0, {0, 1}, "left")
        assert dec is not None and dec.is_chain
        assert dec.coset_poincare == q_int(4)
        A = inversion_arrangement(w0)
        for word in ([0, 1, 0], [1, 2, 1]):
            inv_u = inversion_set(g.from_word(word)).as_set()
            X = flat_of(A, [i for i, n in enumerate(A.normals) if n in inv_u])
            assert is_modular_coatom(A, X)
        ss, chain = is_supersolvable(A)
        assert ss and chain is not None
        tree = complete_chain_bp(w0)
        assert tree is not None
        assert tree_exponents(tree, g.rank) == (1, 2, 3)


def test_criterion_03_pattern_table():
    with criterion(3, 10.0):
        assert len(PATTERNS) == 17
        for pat in PATTERNS.values():
            polys = []
            for label in pat.realizations:
                w = pat.element(label)
                Q = poincare_polynomial(inversion_arrangement(w))
                assert Q == pat.q_poly()
                assert Q(1) == pat.nbc_count
                assert len(w.group.bruhat_interval(w)) == pat.interval_size
                polys.append(Q)
            assert len(set(polys)) == 1


def test_criterion_04_a7_element():
    with criterion(4, 60.0):
        g = WeylGroup.get("A7")
        w = g.from_word([1, 0, 3, 4, 5, 3, 4, 3, 2, 1, 3, 2, 3, 6, 5])
        tree = complete_chain_bp(w)
        assert tree is not None
        assert tree_exponents(tree, g.rank) == (1, 2, 2, 2, 2, 3, 3)
        P = poincare(w)
        expected = product([q_int(2)] + [q_int(3)] * 4 + [q_int(4)] * 2)
        assert P == expected
        assert P(1) == 2592
        # the coefficient of q^12 is 73 (palindromicity-forced)
        assert P.coeffs[12] == 73
        res = inductively_free(inversion_arrangement(w))
        assert res.free
        assert res.coexponents == (1, 2, 2, 2, 2, 3, 3)
        assert res.q_poly == product(
            [IntPolynomial((1, 1))] + [IntPolynomial((1, 2))] * 4
            + [IntPolynomial((1, 3))] * 2)


def test_criterion_05_theorem_audit():
    with criterion(5, 900.0):
        for name, order in (("A3", 24), ("B3", 48), ("A4", 120), ("D4", 192),
                            ("B4", 384), ("C4", 384)):
            report = theorem_audit(WeylGroup.get(name))
            assert report["order"] == order
            assert report["counterexamples"] == []


def test_criterion_06_coxeter_certificates():
    with criterion(6, 300.0):
        expected = {"A2": (1, 2), "A3": (1, 2, 3), "A4": (1, 2, 3, 4),
                    "B3": (1, 3, 5), "D4": (1, 3, 3, 5)}
        from weylinv.polynomials import linear_split
        for name, coexps in expected.items():
            g = WeylGroup.get(name)
            A = inversion_arrangement(longest_element(g))
            res = inductively_free(A, with_certificate=True)
            assert res.free
            status, verified = verify_certificate(A, res.certificate)
            assert status == "accept"
            assert verified == res.coexponents == coexps
            # cross-check against the roots of Q, not the table above
            assert sorted(d for d in verified if d) == linear_split(res.q_poly)


def test_criterion_07_exceptional_e6():
    with criterion(7, 600.0):
        w = exceptional_element(6, 5)
        assert w.length() == 28
        P = poincare(w)
        ms = q_integer_factorization(P)
        assert ms is not None
        assert sorted(ms) == [1, 4, 4, 5, 7, 7]
        assert find_chain_bp(w) is None


TYPE_A_HLSS_PATTERNS = ((4, 2, 3, 1), (3, 5, 1, 4, 2), (4, 2, 5, 1, 3),
                        (3, 5, 1, 6, 2, 4))


def test_criterion_08_type_a_brute_force():
    with criterion(8, 1200.0):
        for n in range(2, 7):
            g = WeylGroup.get(f"A{n - 1}")
            for w in g.elements():
                perm = perm_of(w)
                free = inductively_free(inversion_arrangement(w)).free
                assert free == avoids_perm_pattern(perm, (3, 4, 1, 2))
                assert hlss(w) == all(
                    avoids_perm_pattern(perm, p) for p in TYPE_A_HLSS_PATTERNS)
                assert rationally_smooth(w) == (
                    avoids_perm_pattern(perm, (3, 4, 1, 2))
                    and avoids_perm_pattern(perm, (4, 2, 3, 1)))
                assert is_chordal(inversion_graph(w)) == free


def test_criterion_09_property_suites():
    with criterion(9, 300.0):
        rng = random.Random(0)

        # NBC-count order-independence: 3 shuffles x 50 elements of B3/D4
        for name in ("B3", "D4"):
            g = WeylGroup.get(name)
            els = sorted_elements(g)
            for w in rng.sample(els, 25):
                A = inversion_arrangement(w)
                base = nbc_counts_by_size(A)
                for _ in range(3):
                    order = list(A.normals)
                    rng.shuffle(order)
                    assert nbc_counts_by_size(A, order=order) == base

        # Whitney deletion-restriction identity on all of A3
        g = WeylGroup.get("A3")
        t = IntPolynomial((0, 1))
        for w in g.elements():
            A = inversion_arrangement(w)
            if not A.normals:
                continue
            H = A.normals[-1]
            assert poincare_polynomial(A) == \
                poincare_polynomial(deletion(A, H)) + \
                t * poincare_polynomial(restriction(A, H))

        # phi-injectivity on NBC sets over all of A3 and B3
        from weylinv.arrangement import nbc_sets
        for name in ("A3", "B3"):
            g = WeylGroup.get(name)
            for w in g.elements():
                order = inversion_set(w).roots
                seen = set()
                for B in nbc_sets(inversion_arrangement(w), order=order):
                    x = phi(B, w)
                    assert x not in seen
                    seen.add(x)
                    assert bruhat_leq(x, w)

        # flattening equivariance, induced convex order, localization
        # identity and B/C equality on seed-fixed samples
        gb = WeylGroup.get("B3")
        els = sorted_elements(gb)
        pos = gb.system.positive_roots
        for _ in range(25):
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
                order = [sub.coords(b) for b in inversion_set(w).roots
                         if b in set(sub.positive_roots)]
                assert is_convex_order(order, sub.system())
            inside = [n for n in inversion_set(w).as_set()
                      if matrix_rank(list(basis) + [n]) == k]
            local = Arrangement(gb.rank, sorted(inside))
            target = (poincare_polynomial(inversion_arrangement(fl))
                      if fl is not None else IntPolynomial((1,)))
            assert poincare_polynomial(local) == target

        gc = WeylGroup.get("C3")
        for w in rng.sample(els, 20):
            wc = gc.from_word(w.word())
            assert poincare_polynomial(inversion_arrangement(w)) == \
                poincare_polynomial(inversion_arrangement(wc))


def _certificate_nodes(cert, path=()):
    out = [(cert, path)]
    for k in ("del", "res"):
        if isinstance(cert.get(k), dict):
            out.extend(_certificate_nodes(cert[k], path + (k,)))
    return out


def test_criterion_10_certificate_fuzz():
    with criterion(10):
        clear_caches()
        bases = []
        for name in ("A3", "A4", "B3", "D4"):
            g = WeylGroup.get(name)
            A = inversion_arrangement(longest_element(g))
            res = inductively_free(A, with_certificate=True)
            assert res.free
            bases.append((A, res.certificate))
        g = WeylGroup.get("B3")
        for w in (g.from_word([0, 1, 2, 1, 0]), g.from_word([2, 1, 0, 1, 2, 1])):
            A = inversion_arrangement(w)
            res = inductively_free(A, with_certificate=True)
            if res.free and res.certificate is not None:
                bases.append((A, res.certificate))

        # round trip: every untouched certificate is accepted
        for A, cert in bases:
            assert verify_certificate(A, cert)[0] == "accept"

        rng = random.Random(100)
        rejected = 0
        cases = 0
        while cases < 100:
            A, cert = bases[cases % len(bases)]
            bad = copy.deepcopy(cert)
            nodes = _certificate_nodes(bad)
            node, _ = rng.choice(nodes)
            kind = cases % 4
            if kind == 0:
                # pivot sign flip: never a canonical normal
                node["pivot"] = [-x for x in node["pivot"]]
            elif kind == 1:
                # swap at the root: deeper nodes can have isomorphic
                # deletion and restriction, making the swap a valid no-op
                bad["del"], bad["res"] = bad["res"], bad["del"]
            elif kind == 2:
                del node["res"]
            else:
                bad = None  # truncation: leaf claim at full rank
            cases += 1
            if verify_certificate(A, bad)[0] == "reject":
                rejected += 1
        assert rejected == 100
