from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from trianglemap import matrices
from trianglemap.errors import InconsistentInputError, NotYetConvergedError
from trianglemap.matrices import (
    IntMatrix,
    fundamental_identity_check,
    product_matrix,
    recover_pair,
    recover_terminated,
    step_matrix,
)


def test_step_matrix_shape():
    p = step_matrix(3)
    assert p.rows == ((0, 0, 1), (1, 0, -1), (0, 1, -3))
    assert p.det() == 1


def test_step_matrix_rejects_negative():
    with pytest.raises(ValueError):
        step_matrix(-1)


def test_product_known():
    m = product_matrix((1, 1))
    assert m.rows == ((0, 1, -1), (0, -1, 2), (1, -1, 0))
    assert m.det() == 1
    assert m.inverse().rows == ((2, 1, 1), (2, 1, 0), (1, 1, 0))


def test_inverse_is_exact():
    m = product_matrix((0, 2, 1, 3))
    assert (m @ m.inverse()) == IntMatrix.identity()
    assert (m.inverse() @ m) == IntMatrix.identity()
    # a 1x1 matrix: each cofactor is the empty minor, whose determinant is 1
    assert matrices.mat_inverse_unimodular(((-1,),)) == ((-1,),)


def test_column_distances_follow_recursion():
    alpha, beta = Fraction(1, 2), Fraction(1, 3)
    m = product_matrix((1, 1))
    d = m.apply_row((1, alpha, beta))
    assert d == (Fraction(1, 3), Fraction(1, 6), Fraction(0))


def test_fundamental_identity_rational():
    from trianglemap.triangle import Point2, sequence
    assert fundamental_identity_check(Fraction(1, 2), Fraction(1, 3), (1, 1))
    rec = sequence(Point2(Fraction(9, 10), Fraction(2, 5)), 50)
    assert fundamental_identity_check(Fraction(9, 10), Fraction(2, 5), rec.symbols)


def test_fundamental_identity_catches_a_wrong_step_matrix(monkeypatch):
    alpha, beta = Fraction(9, 10), Fraction(2, 5)
    symbols = (1, 0, 2)
    assert fundamental_identity_check(alpha, beta, symbols)
    real = matrices.mat_step_nonneg

    def flipped(k, n):
        # one entry of the top row toggled between 0 and 1
        rows = real(k, n)
        return ((1 - rows[0][0], *rows[0][1:]), *rows[1:])

    monkeypatch.setattr(matrices, "mat_step_nonneg", flipped)
    assert fundamental_identity_check(alpha, beta, symbols) is False


@given(st.integers(2, 400).flatmap(
    lambda den: st.tuples(st.integers(1, den), st.integers(1, den)).map(
        lambda ab: (Fraction(max(ab), den), Fraction(min(ab), den)))))
def test_fundamental_identity_random(pair):
    alpha, beta = pair
    from trianglemap.triangle import Point2, sequence
    rec = sequence(Point2(alpha, beta), 50)
    assert fundamental_identity_check(alpha, beta, rec.symbols)


def test_recover_pair_known():
    m = product_matrix((1, 1))
    assert recover_pair(m) == (Fraction(1, 2), Fraction(1, 2))


def test_recover_pair_identity_gives_origin():
    assert recover_pair(IntMatrix.identity()) == (Fraction(0), Fraction(0))


def test_recover_pair_degenerate_cross():
    m = IntMatrix.from_columns(((1, 0, 0), (5, 1, 0), (7, 2, 0)))
    with pytest.raises(NotYetConvergedError):
        recover_pair(m)


def test_recover_terminated_known():
    from trianglemap.triangle import Point2, sequence
    rec = sequence(Point2(Fraction(1, 2), Fraction(1, 3)), 50)
    got = recover_terminated(rec.matrix, rec.d_history[-3], rec.d_history[-2])
    assert got == (Fraction(1, 2), Fraction(1, 3))


def test_recover_terminated_rejects_inconsistent():
    m = product_matrix((1, 1))
    with pytest.raises(InconsistentInputError):
        recover_terminated(m, Fraction(17), Fraction(5))


@given(st.integers(2, 200).flatmap(
    lambda den: st.tuples(st.integers(1, den), st.integers(1, den)).map(
        lambda ab: (Fraction(max(ab), den), Fraction(min(ab), den)))))
def test_recover_terminated_round_trip(pair):
    from trianglemap.triangle import Point2, sequence
    alpha, beta = pair
    rec = sequence(Point2(alpha, beta), 500)
    assert rec.terminated
    got = recover_terminated(rec.matrix, rec.d_history[-3], rec.d_history[-2])
    assert got == (alpha, beta)


def test_recover_terminated_any_size():
    from trianglemap.simplex import PointN, sequence_nd
    for coords in ((Fraction(7, 16),), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
                   (Fraction(9, 10), Fraction(7, 10), Fraction(1, 2), Fraction(1, 5))):
        rec = sequence_nd(PointN(coords), 100)
        assert rec.terminated
        assert recover_terminated(rec.matrix, *rec.d_history[-1][:-1]) == coords
    with pytest.raises(ValueError):
        recover_terminated(product_matrix((1,)), Fraction(1))
    # n = 0: no coordinate to recover
    assert matrices.recover_nd(((2,),)) == ()


def test_apply_row_duck_typed():
    m = product_matrix((2,))
    row = m.apply_row((1, Fraction(1, 2), Fraction(1, 3)))
    assert row == (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 6))
