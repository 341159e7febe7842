"""Exact cyclotomic numbers."""

import cmath
from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympal.cyclotomic import Cyc, _at_conductor, cyclotomic_poly, rational, root, zero


def test_cyclotomic_polys():
    # oracle: standard tables
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_root_sums_vanish():
    for n in (2, 3, 5, 8, 12):
        s = zero(n)
        for k in range(n):
            s = s + root(n, k)
        assert s.is_zero()


def test_primitive_relation():
    z3 = root(3, 1)
    assert (rational(3, 1) + z3 + z3 * z3).is_zero()


def test_i_squared():
    assert root(4, 1) * root(4, 1) == rational(4, -1)


def test_conjugation_gives_norm_one():
    z5 = root(5, 2)
    assert (z5 * z5.conj()).rational_value() == 1


def test_rational_detection():
    z6 = root(6, 1)
    # z6 - z6^-1*z6^2 simplifies... simpler: z6^3 = -1
    assert (z6 * z6 * z6).rational_value() == -1
    assert not z6.is_rational()
    with pytest.raises(ValueError):
        z6.rational_value()


def test_embedding_compatibility():
    # zeta_3 viewed in Q(zeta_12)
    z3 = root(3, 1)
    assert z3.embed(12) == root(12, 4)
    with pytest.raises(ValueError):
        z3.embed(8)


def test_fraction_scalars():
    half = root(8, 1) * Fraction(1, 2)
    assert (half + half) == root(8, 1)


def test_galois_permutes_roots():
    z7 = root(7, 1)
    assert z7.galois(3) == root(7, 3)
    assert z7.galois(-1) == root(7, 6)


def test_equality_mod_phi_not_vectorwise():
    # 1 + z3 + z3^2 has nonzero vector but is the number zero
    s = rational(3, 1) + root(3, 1) + root(3, 2)
    assert s == zero(3)
    assert hash(s) == hash(zero(3))


@pytest.mark.parametrize("n", [1, 3, 6, 12])
def test_rational_values_hash_as_the_numbers_they_equal(n):
    # x == y must give hash(x) == hash(y), across Cyc, int and Fraction
    for value in (3, 0, -2, Fraction(1, 2), Fraction(-7, 3)):
        x = rational(n, value)
        assert x == value and hash(x) == hash(value)
    assert rational(n, 6) * Fraction(1, 2) == 3
    assert hash(rational(n, 6) * Fraction(1, 2)) == hash(3)
    assert {3: "x"}.get(rational(n, Fraction(6, 2))) == "x"
    assert {Fraction(1, 2): "h"}.get(rational(n, Fraction(2, 4))) == "h"
    assert len({rational(n, Fraction(6, 2)), 3}) == 1
    assert len({rational(n, Fraction(1, 2)), Fraction(1, 2), 3}) == 2


# ---------------------------------------------------------------------------
# property: the canonical integer form against complex evaluation
# ---------------------------------------------------------------------------

ORDERS = (1, 2, 3, 4, 5, 8, 12, 24)


def value(n, coeffs, power=1):
    """sum_j c_j zeta_n^(j power) as a complex number."""
    return sum(c * cmath.exp(2j * cmath.pi * j * power / n) for j, c in enumerate(coeffs))


def close(x, y):
    return abs(x - y) <= 1e-9 * max(1.0, abs(y))


def vectors(n):
    return st.lists(st.integers(-3, 3), min_size=1, max_size=n + 3)


@st.composite
def cases(draw):
    n = draw(st.sampled_from(ORDERS))
    den = draw(st.sampled_from((1, 1, 1, 2, 3)))
    a = [Fraction(c, den) for c in draw(vectors(n))]
    b = draw(vectors(n))
    return n, a, b


@given(cases())
@settings(max_examples=300, deadline=None)
def test_arithmetic_matches_complex_evaluation(case):
    n, a, b = case
    x, y = Cyc(n, a), Cyc(n, b)
    va, vb = value(n, a), value(n, b)
    assert close(value(n, x.coeffs) / x.den, va)
    assert all(isinstance(c, int) for c in x.coeffs) and x.den > 0
    assert gcd(x.den, *x.coeffs) == 1 or not any(x.coeffs)
    assert close(value(n, (x + y).reduced()), va + vb)
    assert close(value(n, (x - y).reduced()), va - vb)
    assert close(value(n, (x * y).reduced()), va * vb)
    assert close(value(n, (x * Fraction(2, 3)).reduced()), va * 2 / 3)
    for s in range(-n, n + 1):
        if gcd(s, n) == 1:
            assert close(value(n, x.galois(s).reduced()), value(n, a, s))
    for k in (1, 2, 3):
        e = x.embed(k * n)
        assert e.n == k * n and close(value(k * n, e.reduced()), va)


@given(cases(), st.lists(st.integers(-2, 2), max_size=3))
@settings(max_examples=300, deadline=None)
def test_equality_is_equality_of_values(case, multiplier):
    n, a, b = case
    x, y = Cyc(n, a), Cyc(n, b)
    assert (x == y) == close(value(n, a), value(n, b))
    # adding a multiple of Phi_n changes the vector, not the number
    phi = cyclotomic_poly(n)
    shift = [0] * (len(phi) + len(multiplier))
    for i, m in enumerate(multiplier):
        for j, p in enumerate(phi):
            shift[i + j] += m * p
    same = Cyc(n, [u + v for u, v in zip_longest(a, shift, fillvalue=0)])
    assert same == x and hash(same) == hash(x)
    if x == y:
        assert hash(x) == hash(y)


# ---------------------------------------------------------------------------
# one number in several fields: equality in Q(zeta_lcm), hash at the conductor
# ---------------------------------------------------------------------------

def test_conductor_is_the_least_field_holding_the_number():
    # zeta_n^j has order o = n / gcd(n, j); for o = 2 mod 4 it lies in Q(zeta_(o/2))
    for n in (1, 3, 4, 6, 8, 12, 15, 20, 24, 30, 36):
        for j in range(n):
            o = n // gcd(n, j)
            d, coeffs = _at_conductor(n, root(n, j).coeffs)
            assert d == (o // 2 if o % 4 == 2 else o)
            assert Cyc(d, coeffs).embed(n) == root(n, j)
    sqrt2 = root(8, 1) + root(8, 7)
    sqrt5 = rational(5, 1) + (root(5, 1) + root(5, 4)) * 2
    for x, d in ((sqrt2, 8), (sqrt5, 5)):
        for k in (1, 2, 3, 6):
            assert _at_conductor(d * k, x.embed(d * k).coeffs)[0] == d


def test_roots_of_unity_are_equal_across_orders():
    z3, z6_2, z12_4 = root(3, 1), root(6, 2), root(12, 4)
    assert z3 == z6_2 == z12_4 and z12_4 == z3
    assert hash(z3) == hash(z6_2) == hash(z12_4)
    assert len({z3, z6_2, z12_4}) == 1
    assert {z6_2: "z"}.get(z12_4) == "z"
    # zeta_6 = -zeta_3^2 is in Q(zeta_3) but is not zeta_3
    assert root(6, 1) == -root(3, 2) and root(6, 1) != z3
    assert root(12, 3) != root(6, 1) and root(12, 3) == root(4, 1)
    assert len({root(n, j) for n in (1, 3, 6, 12) for j in range(n)}) == 12


def test_rational_values_are_equal_across_orders():
    # rational(6, 3) == 3 == rational(12, 3) once held without the first equality
    threes = [rational(n, 3) for n in (1, 3, 6, 12)]
    assert all(a == b for a in threes for b in threes)
    assert len(set(threes) | {3}) == 1
    halves = [rational(n, Fraction(1, 2)) for n in (1, 3, 6, 12)]
    assert len(set(halves + threes)) == 2
    assert rational(6, 3) != rational(12, 4)


def test_equality_across_orders_is_transitive():
    # sqrt(-3) = 2 zeta_3 + 1 in Q(zeta_3), Q(zeta_6) and Q(zeta_12)
    forms = [rational(n, 1) + root(n, n // 3) * 2 for n in (3, 6, 12)]
    assert all(a == b and hash(a) == hash(b) for a in forms for b in forms)
    assert len(set(forms)) == 1
    others = [rational(n, 1) + root(n, 2 * n // 3) * 2 for n in (3, 6, 12)]   # -sqrt(-3)
    assert not any(a == b for a in forms for b in others)
    assert len(set(forms + others)) == 2


@given(cases(), st.sampled_from((1, 2, 3, 4, 6)), st.sampled_from(ORDERS))
@settings(max_examples=300, deadline=None)
def test_equality_across_orders_is_equality_of_values(case, k, n2):
    n, a, b = case
    x, y = Cyc(n, a), Cyc(n2, b)
    up = x.embed(k * n)
    assert up == x and x == up and hash(up) == hash(x)
    assert (x == y) == close(value(n, a), value(n2, b))
    if x == y:
        assert hash(x) == hash(y)
