"""The eliminant of a period portion and the Sylvester resultant it is built on."""

import pytest
from hypothesis import given, settings, strategies as st

from trianglemap.errors import InconsistentInputError
from trianglemap.matrices import mat_det, product_matrix
from trianglemap.periodicity import _sylvester, eliminant_from_portion
from trianglemap.polynomials import IntPolynomial, interpolate


def resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    # the determinant the eliminant takes at each sample of y
    return mat_det(_sylvester(f.coeffs, g.coeffs))


def linear(root: int) -> IntPolynomial:
    return IntPolynomial((-root, 1))


def test_resultant_shared_root():
    # res(f, g) = 0 iff f and g share a root
    f = IntPolynomial((-4, 0, 1))          # (x-2)(x+2)
    assert resultant(f, linear(2)) == 0
    assert resultant(f, linear(3)) != 0


def test_resultant_eliminates_variable():
    # x^2 - t = 0 and x - t = 0 force t^2 - t = 0; sampled in t and
    # interpolated, as the eliminant samples y
    u = interpolate([(t, resultant(IntPolynomial((-t, 0, 1)), linear(t))) for t in range(4)])
    assert u == IntPolynomial((0, -1, 1)) or u == IntPolynomial((0, 1, -1))


def test_resultant_degree_zero_cases():
    f = IntPolynomial((1, 0, 1))
    assert resultant(f, IntPolynomial((5,))) == 25
    assert resultant(IntPolynomial((0,)), f) == 0


def test_fixed_direction_polynomials_shape():
    # identity transport fixes every direction, so the adjugate entries
    # P_0, P_1 vanish at its one eigenvalue and nothing is left to eliminate
    for n in range(1, 5):
        q = tuple(tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1))
        with pytest.raises(InconsistentInputError, match="vanished identically"):
            eliminant_from_portion(q, n)


def test_eliminant_identity_rejected():
    # every direction is fixed by 2I, so no eigenvalue isolates one
    q = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    with pytest.raises(InconsistentInputError):
        eliminant_from_portion(q, 2)


def test_eliminant_period_one():
    for k in (1, 2, 3):
        q = (product_matrix((k, k)) @ product_matrix((k,)).inverse()).rows
        poly = eliminant_from_portion(q, 2)
        assert poly == IntPolynomial((-1, 1, k, 1))


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=30)
def test_resultant_vanishes_on_common_root(a, b, c):
    # f and g share the root x = a, so the resultant must vanish
    f = linear(a) * linear(b)
    g = linear(a) * linear(c)
    assert resultant(f, g) == 0
