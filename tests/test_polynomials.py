import random

from hypothesis import given, strategies as st

from weylinv.polynomials import (
    ONE, IntPolynomial, cyclotomic, linear_split, product, q_int,
    q_integer_factorization,
)

coeff_lists = st.lists(st.integers(-5, 5), min_size=1, max_size=6)


@given(coeff_lists, coeff_lists, st.integers(-3, 3))
def test_arithmetic_matches_evaluation(a, b, x):
    p, q = IntPolynomial(a), IntPolynomial(b)
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)


@given(coeff_lists, coeff_lists)
def test_divide_exact_round_trip(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    prod = p * q
    if q == IntPolynomial((0,)):
        assert prod.divide_exact(q) is None
        return
    d = prod.divide_exact(q)
    assert d is not None
    assert d * q == prod


def test_q_int_values():
    assert q_int(1) == ONE
    assert q_int(4).coeffs == (1, 1, 1, 1)
    assert q_int(0).coeffs == (0,)


def test_cyclotomic_product_identity():
    for d in (1, 2, 3, 4, 6, 8, 12):
        prod = product(cyclotomic(e) for e in range(1, d + 1) if d % e == 0)
        assert prod.coeffs == (-1,) + (0,) * (d - 1) + (1,)


@given(st.lists(st.integers(1, 9), min_size=0, max_size=5))
def test_q_integer_factorization_round_trip(ms):
    p = product(q_int(m + 1) for m in ms)
    assert q_integer_factorization(p) == sorted(ms)


def test_q_integer_factorization_failure():
    # 1 + 2q is not a product of q-integers
    assert q_integer_factorization(IntPolynomial((1, 2))) is None
    assert q_integer_factorization(IntPolynomial((1, 1, 0, 1))) is None


@given(st.lists(st.integers(1, 6), min_size=0, max_size=5))
def test_linear_split_round_trip(ds):
    p = product(IntPolynomial((1, d)) for d in ds)
    assert linear_split(p) == sorted(ds)


def test_linear_split_returns_a_fresh_list():
    # the split is memoized; a caller that changes its list changes no other's
    p = IntPolynomial((1, 5, 6))
    roots = linear_split(p)
    roots.append(7)
    assert linear_split(p) == [2, 3]
    assert linear_split(p) is not linear_split(p)


def test_linear_split_failure():
    # 1 + 3t + 3t^2 is irreducible over the rationals
    assert linear_split(IntPolynomial((1, 3, 3))) is None
    assert linear_split(IntPolynomial((2, 1))) is None


def test_palindromic_and_reverse():
    assert IntPolynomial((1, 3, 5, 3, 1)).is_palindromic()
    assert not IntPolynomial((1, 3, 5, 4, 1)).is_palindromic()
    assert IntPolynomial((1, 2, 3)).reversed().coeffs == (3, 2, 1)


def test_random_mixed_split(seed=7):
    rng = random.Random(seed)
    for _ in range(50):
        ds = [rng.randint(1, 5) for _ in range(rng.randint(0, 4))]
        p = product(IntPolynomial((1, d)) for d in ds)
        assert linear_split(p) == sorted(ds)
        spoiled = p * IntPolynomial((1, 1, 1))
        assert linear_split(spoiled) is None
