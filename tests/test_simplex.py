import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trianglemap.errors import DegenerateInputError, NotYetConvergedError
from trianglemap.matrices import mat_det, mat_identity, mat_inverse_unimodular, mat_mul, recover_nd
from trianglemap.numeric import SequenceStatus
from trianglemap.periodicity import fixed_point_nd, rational_termination_check
from trianglemap.simplex import (
    NonNegSymbol,
    PairSymbol,
    PointN,
    candidate_symbols,
    classify_nd,
    decomposition_check,
    product_matrix_nd,
    region_membership,
    region_vertices,
    sample_rational_point,
    sequence_nd,
    step_matrix_nd,
)
from trianglemap.triangle import Point2, gauss_sequence, sequence


def F(*args) -> Fraction:
    return Fraction(*args)


def test_symbols_display():
    assert str(NonNegSymbol(3)) == "3"
    assert str(PairSymbol(1, 2)) == "(1,2)"


def test_step_matrix_reduces_to_2d():
    from trianglemap.matrices import step_matrix
    for k in (0, 1, 4):
        assert step_matrix_nd(NonNegSymbol(k), 2) == step_matrix(k).rows


def test_step_matrix_dets():
    for n in (2, 3, 4):
        for sym in [NonNegSymbol(0), NonNegSymbol(3)] + candidate_symbols(n):
            det = mat_det(step_matrix_nd(sym, n))
            assert det in (-1, 1), (n, sym, det)


def test_matrix_helpers():
    m = product_matrix_nd([NonNegSymbol(1), NonNegSymbol(2)], 3)
    inv = mat_inverse_unimodular(m)
    assert mat_mul(m, inv) == mat_identity(4)


def test_classify_known_pair_region():
    assert classify_nd(PointN((F(9, 10), F(9, 10), F(1, 10)))) == PairSymbol(1, 3)


def test_classify_known_fan_region():
    assert classify_nd(PointN((F(1, 2), F(1, 3), F(1, 4)))) == NonNegSymbol(0)
    assert classify_nd(PointN((F(9, 10), F(1, 10), F(1, 11)))) == NonNegSymbol(0)


def test_classify_requires_ordered_coords():
    with pytest.raises(DegenerateInputError):
        classify_nd(PointN((F(1, 3), F(1, 2), F(1, 4))))


def test_top_facet_lands_in_pair_region():
    # x1 = 1 with negative slack has q_1 = 0: the window closes at j = n
    assert classify_nd(PointN((F(1), F(9, 10), F(1, 10)))) == PairSymbol(1, 3)
    assert classify_nd(PointN((F(1), F(1, 2), F(1, 3), F(1, 4)))) == PairSymbol(1, 4)


def test_top_facet_orbit_terminates_next_step():
    # the pair step on x1 = 1 inserts a zero value, ending the sequence
    rec = sequence_nd(PointN((F(1), F(9, 10), F(1, 10))), 10)
    assert rec.symbols == (PairSymbol(1, 3),)
    assert rec.status is SequenceStatus.TERMINATED
    assert rec.d_history[-1][-1] == 0


def test_tie_orbit_through_top_facet_terminates():
    # a tie x1 = x2 inside a pair region maps onto the x1 = 1 facet
    rec = sequence_nd(PointN((F(9, 10), F(9, 10), F(1, 10))), 10)
    assert rec.symbols == (PairSymbol(1, 3), PairSymbol(1, 3))
    assert rec.status is SequenceStatus.TERMINATED


def test_sequence_nd_rational_terminates():
    rec = sequence_nd(PointN((F(1, 2), F(1, 3), F(1, 4))), 200)
    assert rec.status is SequenceStatus.TERMINATED
    assert rec.d_history[-1][-1] == 0


def test_sequence_nd_matches_triangle_oracle():
    rec = sequence_nd(PointN((F(1, 2), F(1, 3))), 50)
    assert tuple(s.k for s in rec.symbols) == (1, 1)
    assert rec.status is SequenceStatus.TERMINATED


domain_pairs = st.integers(2, 200).flatmap(
    lambda den: st.tuples(st.integers(1, den), st.integers(1, den)).map(
        lambda ab: (Fraction(max(ab), den), Fraction(min(ab), den))))


def _fraction_expansion(x):
    """Continued-fraction quotients of x in (0, 1] by stdlib Fraction arithmetic."""
    quotients = []
    while x:
        x = 1 / x
        quotients.append(x.numerator // x.denominator)
        x -= quotients[-1]
    return tuple(quotients)


@given(domain_pairs)
@settings(max_examples=40)
def test_n2_reduction(pair):
    # both n = 2 entry points against the integer remainder recursion; with
    # denominators up to 300 it never needs more than 13 symbols
    scale = pair[0].denominator * pair[1].denominator
    trace = rational_termination_check(scale, int(pair[0] * scale), int(pair[1] * scale))
    rec2 = sequence(Point2(*pair), 80)
    recn = sequence_nd(PointN(pair), 80)
    assert rec2.symbols == trace.symbols
    assert tuple(s.k for s in recn.symbols) == trace.symbols
    assert rec2.status is recn.status is SequenceStatus.TERMINATED
    d = [Fraction(v, scale) for v in trace.d_values]
    assert rec2.d_history == tuple(d)
    assert recn.d_history == tuple(tuple(d[t:t + 3]) for t in range(len(d) - 2))


@given(st.integers(2, 300).flatmap(
    lambda den: st.integers(1, den - 1).map(lambda num: Fraction(num, den))))
@settings(max_examples=40)
def test_n1_reduction_to_gauss(x):
    # both n = 1 entry points against the stdlib Fraction expansion
    expected = _fraction_expansion(x)
    g = gauss_sequence(x, 80)
    rec = sequence_nd(PointN((x,)), 80)
    assert g.quotients == expected
    assert tuple(s.k for s in rec.symbols) == expected
    assert g.status is rec.status is SequenceStatus.TERMINATED
    # Gauss keeps x and then each Euclidean remainder, over the denominator
    a, b = x.denominator, x.numerator
    rems = [b]
    while b:
        a, b = b, a % b
        rems.append(b)
    assert g.remainders == tuple(Fraction(r, x.denominator) for r in rems)


def test_recover_nd_estimates():
    point = fixed_point_nd(3, 1, 256)
    rec = sequence_nd(point, 25)
    assert rec.status is SequenceStatus.TRUNCATED
    est = recover_nd(rec.matrix)
    for e, coord in zip(est, point.coords):
        lo, hi = coord.bounds()
        assert abs(e - (lo + hi) / 2) < F(1, 10 ** 6)


def test_recover_nd_identity_raises_or_zero():
    est = recover_nd(mat_identity(4))
    assert est == (F(0), F(0), F(0))


def test_recover_nd_zero_leading_minor():
    m = ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    with pytest.raises(NotYetConvergedError):
        recover_nd(m)


def test_region_vertices_fan():
    for n in (2, 3, 4):
        for k in (0, 1, 5):
            verts = region_vertices(n, NonNegSymbol(k))
            assert len(verts) == n + 1
            edge = tuple(F(1, n + k - 1) for _ in range(n)) if n + k > 1 else None
            if edge is not None:
                assert edge in verts
            assert tuple(F(1, n + k) for _ in range(n)) in verts


def test_region_vertices_gauss_case():
    assert region_vertices(1, NonNegSymbol(2)) == ((F(1, 2),), (F(1, 3),))
    with pytest.raises(ValueError):
        region_vertices(1, NonNegSymbol(0))


def test_region_vertices_pair_needs_dimension():
    with pytest.raises(ValueError):
        region_vertices(2, PairSymbol(1, 2))


def test_region_membership_consistent_with_classify():
    pts = [
        (F(9, 10), F(9, 10), F(1, 10)),
        (F(1, 2), F(1, 3), F(1, 4)),
        (F(9, 10), F(8, 10), F(7, 10)),
        (F(1), F(9, 10), F(1, 10)),
        (F(3, 5), F(2, 5), F(3, 10)),
    ]
    for coords in pts:
        sym = classify_nd(PointN(coords))
        assert region_membership(coords, sym)
        others = [s for s in candidate_symbols(3) if s != sym]
        others += [NonNegSymbol(k) for k in range(6) if NonNegSymbol(k) != sym]
        assert not any(region_membership(coords, s) for s in others)


def test_region_vertices_lie_in_closed_region():
    for n in (3, 4):
        syms = [NonNegSymbol(0), NonNegSymbol(2)] + candidate_symbols(n)
        for sym in syms:
            for v in region_vertices(n, sym):
                assert region_membership(v, sym, closed=True), (n, sym, v)


def test_sampler_respects_domain():
    rng = random.Random(3)
    top_hits = 0
    for _ in range(200):
        coords = sample_rational_point(rng, 3, 12)
        assert 1 >= coords[0] >= coords[1] >= coords[2] > 0
        top_hits += coords[0] == 1
    assert top_hits > 0


def test_decomposition_check_small():
    rep = decomposition_check(3, 300, seed=5)
    assert rep.ok
    assert rep.samples == 300
    assert len(rep.violations) == 0
    assert rep.classify_mismatches == 0


def test_decomposition_check_n4():
    rep = decomposition_check(4, 120, seed=5)
    assert rep.ok
