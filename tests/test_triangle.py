from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trianglemap.errors import DegenerateInputError
from trianglemap.numeric import BigFloat, RootSpec, SequenceStatus
from trianglemap.polynomials import IntPolynomial
from trianglemap.triangle import (
    GaussRecord,
    Point2,
    classify,
    gauss_sequence,
    sequence,
    step,
)

GOLDEN = RootSpec(IntPolynomial((-1, 1, 1)), Fraction(0), Fraction(1))
CUBIC1 = RootSpec(IntPolynomial((-1, 1, 1, 1)), Fraction(0), Fraction(1))


def pt(a, b) -> Point2:
    return Point2(Fraction(a), Fraction(b))


def test_classify_known():
    assert classify(Point2(Fraction(1, 2), Fraction(1, 3))) == 1
    assert classify(Point2(Fraction(3, 4), Fraction(1, 8))) == 2
    assert classify(Point2(Fraction(1), Fraction(1))) == 0
    assert classify(Point2(Fraction(1, 2), Fraction(1, 2))) == 1


def test_classify_rejects_outside_domain():
    with pytest.raises(DegenerateInputError):
        classify(Point2(Fraction(1, 3), Fraction(1, 2)))   # beta > alpha
    with pytest.raises(DegenerateInputError):
        classify(Point2(Fraction(1, 2), Fraction(0)))      # beta must be positive
    with pytest.raises(DegenerateInputError):
        classify(Point2(Fraction(3, 2), Fraction(1, 2)))   # alpha > 1


def test_step_image():
    k, image = step(Point2(Fraction(1, 2), Fraction(1, 3)))
    assert k == 1
    assert image.alpha == Fraction(2, 3)
    assert image.beta == Fraction(1, 3)


def test_step_stays_in_closed_domain():
    k, image = step(Point2(Fraction(9, 10), Fraction(2, 5)))
    assert k == 0
    assert 1 >= image.alpha >= image.beta >= 0


def test_step_image_of_enclosed_points():
    # (r, r^2) for the root of x^3 + x^2 + x - 1 is fixed by the map
    point = Point2.from_root(CUBIC1, 128)
    k, image = step(point)
    assert k == 1
    for before, after in ((point.alpha, image.alpha), (point.beta, image.beta)):
        assert isinstance(after, BigFloat)
        assert after.low <= before.high and before.low <= after.high
    # an enclosure of 1/3 next to an exact 1/2 maps onto enclosures of (2/3, 1/3)
    k, image = step(Point2(Fraction(1, 2), BigFloat.from_fraction(Fraction(1, 3), 64)))
    assert k == 1
    assert image.alpha.low <= Fraction(2, 3) <= image.alpha.high
    assert image.beta.low <= Fraction(1, 3) <= image.beta.high


def test_sequence_known_rational():
    rec = sequence(Point2(Fraction(1, 2), Fraction(1, 3)), 50)
    assert rec.symbols == (1, 1)
    assert rec.status is SequenceStatus.TERMINATED
    assert rec.terminated
    assert rec.d_history == (1, Fraction(1, 2), Fraction(1, 3),
                             Fraction(1, 6), Fraction(0))


def test_sequence_corner():
    rec = sequence(Point2(Fraction(1), Fraction(1)), 50)
    assert rec.symbols == (0,)
    assert rec.status is SequenceStatus.TERMINATED
    assert rec.d_history == (1, 1, 1, 0)


def test_sequence_lower_edge_terminates_at_once():
    # beta = 0 is outside the open simplex but inside the planar domain
    rec = sequence(Point2(Fraction(1, 2), Fraction(0)), 10)
    assert rec.symbols == ()
    assert rec.status is SequenceStatus.TERMINATED
    assert rec.d_history == (1, Fraction(1, 2), 0)


def test_sequence_truncates():
    spec_pt = Point2.from_root(CUBIC1, 256)
    rec = sequence(spec_pt, 12)
    assert rec.status is SequenceStatus.TRUNCATED
    assert rec.symbols == (1,) * 12


def test_sequence_exact_boundary_hit():
    # 1 - g - g^2 = 0: the run ends on a lattice plane despite g irrational
    rec = sequence(Point2.from_root(GOLDEN, 128), 10)
    assert rec.symbols == (1,)
    assert rec.status is SequenceStatus.TERMINATED


def test_sequence_matrix_matches_d_history():
    alpha, beta = Fraction(5, 7), Fraction(2, 7)
    rec = sequence(Point2(alpha, beta), 50)
    tail = rec.matrix.apply_row((1, alpha, beta))
    assert tail == rec.d_history[-3:]


def test_sequence_max_len_exact_termination():
    # termination on the final allowed step still reports terminated
    rec = sequence(Point2(Fraction(1, 2), Fraction(1, 3)), 2)
    assert rec.status is SequenceStatus.TERMINATED
    assert rec.symbols == (1, 1)


def test_sequence_d_values_decrease():
    rec = sequence(Point2(Fraction(17, 19), Fraction(4, 19)), 100)
    ds = rec.d_history
    for prev, cur in zip(ds[2:], ds[3:]):
        assert cur < prev


domain_pairs = st.integers(2, 300).flatmap(
    lambda den: st.tuples(st.integers(1, den), st.integers(1, den)).map(
        lambda ab: (Fraction(max(ab), den), Fraction(min(ab), den))))


@given(domain_pairs)
@settings(max_examples=60)
def test_rational_pairs_terminate(pair):
    rec = sequence(Point2(*pair), 1000)
    assert rec.status is SequenceStatus.TERMINATED
    assert rec.d_history[-1] == 0


@given(domain_pairs)
@settings(max_examples=40)
def test_step_agrees_with_sequence_prefix(pair):
    alpha, beta = pair
    rec = sequence(Point2(alpha, beta), 5)
    if not rec.symbols:
        return
    k, image = step(Point2(alpha, beta))
    assert k == rec.symbols[0]
    if len(rec.symbols) > 1 and image.beta != 0:
        rest = sequence(image, 4)
        assert rest.symbols == rec.symbols[1:len(rest.symbols) + 1]


def test_gauss_known():
    rec = gauss_sequence(Fraction(7, 16), 50)
    assert rec.quotients == (2, 3, 2)
    assert rec.status is SequenceStatus.TERMINATED
    assert gauss_sequence(Fraction(1, 3), 50).quotients == (3,)


def test_gauss_irrational_truncates():
    x = Point2.from_root(GOLDEN, 192).alpha
    rec = gauss_sequence(x, 15)
    assert rec.status is SequenceStatus.TRUNCATED
    assert rec.quotients == (1,) * 15


def test_gauss_rejects_out_of_range():
    with pytest.raises(DegenerateInputError):
        gauss_sequence(Fraction(3, 2), 10)
    with pytest.raises(DegenerateInputError):
        gauss_sequence(Fraction(0), 10)


@given(st.integers(2, 500).flatmap(
    lambda den: st.integers(1, den - 1).map(lambda num: Fraction(num, den))))
@settings(max_examples=60)
def test_gauss_matches_stdlib_fraction_expansion(x):
    rec = gauss_sequence(x, 100)
    # rebuild x from its quotients
    value = Fraction(0)
    for q in reversed(rec.quotients):
        value = Fraction(1, q + value)
    assert value == x


def test_float_coordinates_rejected_with_type_error():
    # the evaluator names the accepted kinds instead of failing on a missing attribute
    with pytest.raises(TypeError, match="not float"):
        sequence(Point2(0.5, 0.25), 5)
    with pytest.raises(TypeError, match="not float"):
        gauss_sequence(0.5, 5)
