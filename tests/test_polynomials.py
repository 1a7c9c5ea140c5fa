import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from trianglemap.errors import DegenerateInputError
from trianglemap.polynomials import (
    IntPolynomial,
    count_roots,
    divides,
    exact_quotient,
    gcd,
    interpolate,
    squarefree_part,
    vanishes_at_root,
)

X = IntPolynomial((0, 1))
ONE = IntPolynomial((1,))


def poly(*coeffs: int) -> IntPolynomial:
    return IntPolynomial(tuple(coeffs))


def test_strip_and_degree():
    p = poly(1, 2, 0, 0)
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert poly(0, 0).is_zero
    # the zero polynomial keeps one slot and is flagged, not degree -1
    assert poly(0).degree == 0 and poly(0).is_zero


def test_leading_and_evaluate():
    p = poly(-1, 1, 1, 1)  # x^3 + x^2 + x - 1
    assert p.leading == 1
    assert p.evaluate(Fraction(1)) == 2
    assert p.evaluate(Fraction(1, 2)) == Fraction(-1, 8)
    assert p.evaluate(0) == -1


def test_arithmetic():
    a = poly(1, 1)   # x + 1
    b = poly(-1, 1)  # x - 1
    assert a * b == poly(-1, 0, 1)
    assert a + b == poly(0, 2)
    assert a - b == poly(2)
    assert a.scale(3) == poly(3, 3)
    assert (a * b).derivative() == poly(0, 2)


def test_content_primitive():
    p = poly(-6, 0, 4)
    assert p.content() == 2
    assert p.primitive() == poly(-3, 0, 2)
    # primitive normalizes the leading sign
    assert poly(2, -4).primitive() == poly(-1, 2)


def test_text_round_trip():
    p = poly(-1, 1, 20, 1)
    assert IntPolynomial.from_text(p.to_text()) == p
    assert IntPolynomial.from_text("-1, 1, 1, 1") == poly(-1, 1, 1, 1)
    assert repr(p) == "IntPolynomial((-1, 1, 20, 1))"


def test_divmod_exact():
    num = poly(-1, 0, 1)
    q, r = divmod_exact(num, poly(1, 1))
    assert all(c == 0 for c in r)
    assert q == (Fraction(-1), Fraction(1))
    q2, r2 = divmod_exact(poly(1, 0, 1), poly(1, 1))
    assert any(c != 0 for c in r2)


def test_divides_and_quotient():
    num = poly(-1, 1, 1, 1) * poly(3, 5)
    assert divides(poly(-1, 1, 1, 1), num)
    assert not divides(poly(1, 1), num)
    assert exact_quotient(num, poly(-1, 1, 1, 1)) == poly(3, 5)
    # x = (2x + 1)/2 - 1/2: the one quotient step divides 1 by 2
    with pytest.raises(ValueError, match="division is not exact"):
        exact_quotient(X, poly(1, 2))


def test_divide_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        divmod_exact(poly(1, 1), poly(0))
    with pytest.raises(ZeroDivisionError):
        exact_quotient(poly(1, 1), poly(0))


def test_gcd_known():
    a = poly(-1, 0, 1)          # (x-1)(x+1)
    b = poly(1, 2, 1)           # (x+1)^2
    assert gcd(a, b) == poly(1, 1)
    assert gcd(a, poly(0)) == a.primitive()
    assert gcd(poly(4), a).degree == 0


def test_squarefree_part():
    p = poly(1, 1) * poly(1, 1) * poly(-2, 1)
    sf = squarefree_part(p)
    assert sf == (poly(1, 1) * poly(-2, 1)).primitive()
    assert squarefree_part(poly(-1, 1, 1, 1)) == poly(-1, 1, 1, 1)


small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(
    lambda c: IntPolynomial(tuple(c)))


@given(small_polys, small_polys)
def test_gcd_divides_both(a, b):
    g = gcd(a, b)
    if g.is_zero:
        assert a.is_zero and b.is_zero
    else:
        for p in (a, b):
            if not p.is_zero:
                assert divides(g, p)


@given(small_polys)
def test_squarefree_divides(p):
    if p.is_zero:
        return
    sf = squarefree_part(p)
    assert divides(sf, p.primitive())


@given(small_polys, small_polys, st.fractions(max_denominator=50))
def test_product_evaluates(a, b, x):
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


def test_count_roots_known():
    # 15x^3 - 20x^2 + 8x - 1 has roots 0.276, 1/3 and 0.724, all in (0, 1)
    p = poly(-1, 8, -20, 15)
    assert count_roots(p, Fraction(0), Fraction(1)) == 3
    assert count_roots(p, Fraction(3, 10), Fraction(1, 2)) == 1
    assert count_roots(p, Fraction(1, 2), Fraction(1)) == 1
    assert count_roots(poly(-1, 1, 1, 1), Fraction(0), Fraction(1)) == 1
    assert count_roots(poly(1, 0, 1), Fraction(-5), Fraction(5)) == 0
    assert count_roots(poly(3), Fraction(0), Fraction(1)) == 0
    # repeated factors count once: (x - 1)^2 (2x^2 - 1) has 1/sqrt(2) and 1
    assert count_roots(poly(-1, 1) * poly(-1, 1) * poly(-1, 0, 2), Fraction(0), Fraction(3)) == 2
    # a negative lead whose remainder takes one elimination step, not two:
    # the integer remainder must stay a positive multiple of the rational one
    assert count_roots(poly(-1, 3, 0, -1), Fraction(-2), Fraction(2)) == 3


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7), min_size=1, max_size=5),
       st.fractions(min_value=-4, max_value=4, max_denominator=11),
       st.fractions(min_value=0, max_value=4, max_denominator=13).filter(lambda w: w > 0),
       st.booleans())
def test_count_roots_matches_known_roots(roots, low, width, with_complex):
    high = low + width
    if low in roots or high in roots:
        return
    p = ONE
    for r in roots:
        p = p * poly(-r.numerator, r.denominator)
    if with_complex:
        p = p * poly(1, 1, 1)          # no real roots
    expected = len({r for r in roots if low < r < high})
    assert count_roots(p, low, high) == expected


def test_vanishes_at_root():
    p = IntPolynomial((-1, 1, 1, 1))  # x^3 + x^2 + x - 1, one root in (0, 1)
    lo, hi = Fraction(0), Fraction(1)
    assert vanishes_at_root(p * IntPolynomial((5, 2)), p, lo, hi)
    assert vanishes_at_root(IntPolynomial((0,)), p, lo, hi)
    assert not vanishes_at_root(IntPolynomial((-1, 2)), p, lo, hi)  # 2x - 1
    # a factor of p with no root in the interval does not count
    q = IntPolynomial((-2, 1)) * p  # adds the root 2
    assert not vanishes_at_root(IntPolynomial((-2, 1)), q, lo, hi)
    with pytest.raises(DegenerateInputError):
        vanishes_at_root(IntPolynomial((-1, 1)), IntPolynomial((-1, 0, 1)), lo, hi)


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=8),
       st.integers(-20, 20), st.integers(0, 3))
def test_interpolate_round_trip(coeffs, start, extra):
    # any len(coeffs) + extra distinct integer abscissae recover the polynomial
    p = IntPolynomial(tuple(coeffs))
    xs = range(start, start + len(coeffs) + extra)
    assert interpolate([(x, p.evaluate(x)) for x in xs]) == p


def test_interpolate_rejects_non_integer():
    # the line through (0, 0) and (2, 1) is x/2
    with pytest.raises(ValueError, match="non-integer"):
        interpolate([(0, 0), (2, 1)])


# Fraction oracles: long division, Euclid and the Sturm chain over the rationals


def _divide(x: list[Fraction], y: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and trimmed remainder of x by a trimmed nonzero y, both constant first."""
    dd = len(y) - 1
    lead = y[-1]
    r = x[:]
    quo = [Fraction(0)] * max(len(r) - dd, 1)
    for i in range(len(r) - 1, dd - 1, -1):
        q = r[i] / lead
        if q:
            quo[i - dd] = q
            for j in range(dd + 1):
                r[i - dd + j] -= q * y[j]
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    return quo, r


def divmod_exact(num: IntPolynomial, den: IntPolynomial) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Polynomial division over the rationals: returns (quotient, remainder) coefficient tuples."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    quo, rem = _divide([Fraction(c) for c in num.coeffs], [Fraction(c) for c in den.coeffs])
    return tuple(quo), tuple(rem)


def _fraction_rem(x: list[Fraction], y: list[Fraction]) -> list[Fraction]:
    """The trimmed remainder of x by a trimmed nonzero y over the rationals."""
    return _divide(x, y)[1]


def _made_primitive(coeffs) -> IntPolynomial:
    """The primitive integer polynomial with rational coefficients proportional to coeffs."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    return IntPolynomial(tuple(int(c * scale) for c in coeffs)).primitive()


def oracle_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    if a.is_zero:
        return b.primitive()
    if b.is_zero:
        return a.primitive()
    x, y = [Fraction(c) for c in a.coeffs], [Fraction(c) for c in b.coeffs]
    while y != [0]:
        x, y = y, _fraction_rem(x, y)
    return _made_primitive(x)


def oracle_count_roots(p: IntPolynomial, low: Fraction, high: Fraction) -> int:
    chain = [[Fraction(c) for c in p.coeffs], [Fraction(c) for c in p.derivative().coeffs]]
    while chain[-1] != [0]:
        chain.append([-c for c in _fraction_rem(chain[-2], chain[-1])])
    chain.pop()

    def changes(x: Fraction) -> int:
        signs = []
        for f in chain:
            acc = Fraction(0)
            for c in reversed(f):
                acc = acc * x + c
            if acc:
                signs.append(acc > 0)
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return changes(low) - changes(high)


def test_fraction_rem_oracle_known():
    # x^2 + 1 = (x + 1)(x - 1) + 2, and x + 2 = 0*(x^2) + (x + 2)
    assert _fraction_rem([Fraction(c) for c in (1, 0, 1)], [Fraction(c) for c in (1, 1)]) == [2]
    assert _fraction_rem([Fraction(2), Fraction(1)], [Fraction(c) for c in (0, 0, 1)]) == [2, 1]
    assert _fraction_rem([Fraction(5)], [Fraction(3)]) == [0]


wide_polys = st.lists(st.integers(-(10 ** 12), 10 ** 12), min_size=1, max_size=6).map(
    lambda c: IntPolynomial(tuple(c)))
factors = st.one_of(small_polys, wide_polys, st.sampled_from([poly(0), poly(1), poly(-7)]))


@given(factors, factors, factors)
def test_gcd_matches_fraction_euclid(a, b, c):
    # constant and zero inputs included; a common factor c is found again
    assert gcd(a * c, b * c) == oracle_gcd(a * c, b * c)
    assert gcd(a, b) == oracle_gcd(a, b)


@given(factors, factors)
def test_divides_matches_fraction_remainder(den, num):
    assume(not den.is_zero)
    rem = _fraction_rem([Fraction(v) for v in num.coeffs], [Fraction(v) for v in den.coeffs])
    assert divides(den, num) is (rem == [0])
    assert divides(den, num * den)


@given(factors, factors, st.integers(-12, 12).filter(bool), st.lists(st.integers(-9, 9), max_size=5))
def test_exact_quotient_matches_fraction_division(f, base, content, low):
    # content makes g non-primitive, and a negative one flips its lead; g
    # divides f * base over the rationals, though not always over the integers
    g = base.scale(content)
    assume(not g.is_zero)
    for num in (f * g, f * base):
        quo, rem = divmod_exact(num, g)
        assert all(c == 0 for c in rem)
        assert exact_quotient(num, g) == _made_primitive(quo)
    # a nonzero remainder of lower degree than g makes the division inexact
    r = IntPolynomial(tuple(low[:g.degree]))
    if not r.is_zero:
        with pytest.raises(ValueError, match="division is not exact"):
            exact_quotient(f * g + r, g)
    # so does any f that g does not divide, where a step or the remainder shows it
    if any(divmod_exact(f, g)[1]):
        with pytest.raises(ValueError, match="division is not exact"):
            exact_quotient(f, g)
    with pytest.raises(ZeroDivisionError):
        exact_quotient(f, poly(0))


big_endpoints = st.fractions(min_value=-4, max_value=4, max_denominator=10 ** 40)


@given(st.lists(st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=9),
                          st.integers(1, 3)), min_size=1, max_size=3),
       small_polys, big_endpoints, big_endpoints)
def test_count_roots_matches_fraction_sturm(roots, extra, a, b):
    # repeated factors (x - r)^m times an arbitrary factor, on endpoints with
    # large denominators
    assume(a != b and not extra.is_zero)
    low, high = min(a, b), max(a, b)
    p = extra
    for r, m in roots:
        for _ in range(m):
            p = p * poly(-r.numerator, r.denominator)
    assume(p.evaluate(low) != 0 and p.evaluate(high) != 0)
    assert count_roots(p, low, high) == oracle_count_roots(p, low, high)


sparse_polys = st.lists(st.sampled_from([-2, -1, 0, 0, 0, 1, 2]), min_size=2, max_size=7).map(
    lambda c: IntPolynomial(tuple(c)))


@given(sparse_polys, st.fractions(min_value=-4, max_value=4, max_denominator=9),
       st.fractions(min_value=0, max_value=5, max_denominator=9).filter(lambda w: w > 0))
def test_count_roots_matches_fraction_sturm_on_sparse(p, low, width):
    # zero coefficients make remainders skip elimination steps and drop
    # degrees by more than one, so the |lc|-power's parity varies
    high = low + width
    assume(not p.is_zero and p.evaluate(low) != 0 and p.evaluate(high) != 0)
    assert count_roots(p, low, high) == oracle_count_roots(p, low, high)
