from fractions import Fraction

import pytest

from trianglemap.errors import DegenerateInputError, InconsistentInputError
from trianglemap.matrices import recover_nd
from trianglemap.numeric import SequenceStatus
from trianglemap.periodicity import (
    derive_cubic,
    detect_period,
    eliminant_from_portion,
    eliminant_nd,
    eliminant_report,
    fixed_point_nd,
    fixed_point_poly,
    period_one_point,
    period_one_poly,
    period_one_root,
    power_basis_evidence,
    rational_termination_check,
)
from trianglemap.polynomials import IntPolynomial, squarefree_part
from trianglemap.simplex import NonNegSymbol, candidate_symbols, product_matrix_nd, sequence_nd
from trianglemap.triangle import sequence


def test_detect_period_simple():
    rep = detect_period((1, 1, 1, 1, 1, 1))
    assert rep.preperiod == 0
    assert rep.period == 1
    rep2 = detect_period((3, 1, 2, 1, 2, 1, 2))
    assert rep2.preperiod == 1
    assert rep2.period == 2


def test_detect_period_none():
    assert detect_period((1, 2, 3, 4, 5, 6)) is None
    assert detect_period((1, 1)) is not None


def test_period_one_poly():
    assert period_one_poly(0) == IntPolynomial((-1, 1, 0, 1))
    assert period_one_poly(4) == IntPolynomial((-1, 1, 4, 1))


def test_fixed_point_poly_general():
    # n = 2 reduces to the triangle fixed point polynomial
    assert fixed_point_poly(2, 3) == period_one_poly(3)
    assert fixed_point_poly(3, 2) == IntPolynomial((-1, 1, 1, 2, 1))
    assert fixed_point_poly(1, 1) == IntPolynomial((-1, 1, 1))


def test_period_one_root_value():
    root = period_one_root(1, 256)
    lo, hi = root.bounds()
    assert lo <= Fraction(5436890126920764, 10 ** 16) <= hi or \
        abs(float(root) - 0.5436890126920764) < 1e-12


def test_period_one_point_runs_periodically():
    for k in (0, 1, 3):
        pt = period_one_point(k, 512)
        rec = sequence(pt, 40)
        assert rec.status is SequenceStatus.TRUNCATED
        assert rec.symbols == (k,) * 40


def test_fixed_point_nd_runs_periodically():
    pt = fixed_point_nd(3, 2, 512)
    rec = sequence_nd(pt, 20)
    assert rec.symbols == (NonNegSymbol(2),) * 20


def test_fixed_point_nd_rejects_rational_root_case():
    with pytest.raises(DegenerateInputError):
        fixed_point_nd(1, 0, 128)


def test_rational_termination_check():
    rec = rational_termination_check(6, 3, 2)
    assert rec.d_values[-1] == 0
    assert rec.steps == len(rec.symbols)
    # d stays integral and decreasing from the first recursion output
    ds = rec.d_values
    assert all(isinstance(d, int) for d in ds)
    for prev, cur in zip(ds[2:], ds[3:]):
        assert cur < prev


def test_rational_termination_check_validates():
    with pytest.raises(DegenerateInputError):
        rational_termination_check(2, 3, 1)
    with pytest.raises(DegenerateInputError):
        rational_termination_check(3, 2, 0)


def test_rational_termination_matches_engine():
    from trianglemap.triangle import Point2
    rec = rational_termination_check(7, 5, 3)
    eng = sequence(Point2(Fraction(5, 7), Fraction(3, 7)), 100)
    assert rec.symbols == eng.symbols


def test_derive_cubic_known():
    for k in range(1, 6):
        poly = derive_cubic((k,) * 4, 2, 1)
        assert poly == period_one_poly(k)


def test_derive_cubic_validates_indices():
    with pytest.raises(ValueError):
        derive_cubic((1, 1), 3, 0)
    with pytest.raises(ValueError):
        derive_cubic((1, 1), 1, 1)


def test_eliminant_nd_matches_2d():
    syms = (NonNegSymbol(2), NonNegSymbol(2), NonNegSymbol(2))
    poly = eliminant_nd(syms, 2, 2, 1)
    assert divides_or_equal(poly, period_one_poly(2))


def divides_or_equal(poly, target):
    from trianglemap.polynomials import divides
    return poly == target or divides(target, poly)


def test_eliminant_counts_each_direction_once():
    # v q = 2 v has only v = (1, 0, 0) though 2 is a double root of the
    # characteristic polynomial; (0, 0, 1) at 3 has x_0 = 0 and adds nothing
    assert eliminant_from_portion(((2, 0, 0), (1, 2, 0), (0, 0, 3)), 2) == IntPolynomial((0, 1))


def test_eliminant_combines_adjugate_rows():
    # fixed directions (1, 0, 0) at 2 and (1, 0, 1) at 3; row 1 of the
    # adjugate vanishes at 3 and row 2 at 2, so no single row sees both
    assert eliminant_from_portion(((2, 0, 0), (1, 2, 0), (1, 0, 3)), 2) == IntPolynomial((0, 0, 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_eliminant_constant_stream_any_period(n):
    # the constant stream k with its period written as p copies of k
    for k in range(6):
        for p in (1, 2, 3):
            stream = [NonNegSymbol(k)] * (2 * p)
            if (n, k, p) == (1, 0, 2):
                # M_0 squared is the identity at n = 1: every direction is fixed
                with pytest.raises(InconsistentInputError):
                    eliminant_nd(stream, n, 2 * p, p)
                continue
            assert eliminant_nd(stream, n, 2 * p, p) == fixed_point_poly(n, k), (k, p)


def test_eliminant_pins():
    # the iterated-resultant eliminant had degree 7 here, with extra factors
    poly = eliminant_nd([NonNegSymbol(1), NonNegSymbol(0)] * 2, 4, 4, 2)
    assert poly.to_text() == "-4,2,5,11,7,3"
    # the constant stream 2 with period two at n = 5, which that route could not answer
    assert eliminant_nd([NonNegSymbol(2)] * 4, 5, 4, 2) == fixed_point_poly(5, 2)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_eliminant_period_two_streams(n):
    # every period-2 stream over 0, 1, 2 and the first three pair symbols:
    # degree at most n + 1, and a root at the x_1 that a long run pins
    # (squarefree, since [0, 1] at n = 3 gives (y**2 + y - 1)**2)
    symbols = [NonNegSymbol(k) for k in range(3)] + candidate_symbols(n)[:3]
    for a in symbols:
        for b in symbols:
            poly = eliminant_nd([a, b] * 2, n, 4, 2)
            assert poly.degree <= n + 1, (a, b)
            x1 = recover_nd(product_matrix_nd([a, b] * 30, n))[0]
            reduced = squarefree_part(poly)
            eps = Fraction(1, 10 ** 6)
            assert (reduced.evaluate(x1 - eps) < 0) != (reduced.evaluate(x1 + eps) < 0), (a, b)


def test_eliminant_report_fields():
    poly = period_one_poly(2)
    report = eliminant_report(poly, candidate=poly, hint=Fraction(1, 2))
    assert report["degree"] == 3
    assert report["factor_checked"] is True
    assert report["root_residual"] is not None
    bare = eliminant_report(poly)
    assert bare["factor_checked"] is None
    assert bare["root_residual"] is None


def test_power_basis_evidence():
    for n, k in ((2, 1), (3, 0), (3, 2), (4, 1)):
        ev = power_basis_evidence(n, k)
        assert ev["all_annihilated"], (n, k)
        assert all(ev["divisible"]), (n, k)


def test_power_basis_evidence_refuses_root_on_endpoint():
    # x**2 - 1 has its positive root at the endpoint 1 of (0, 1), where the
    # sign-change certificate does not hold
    with pytest.raises(DegenerateInputError, match="endpoint is a root"):
        power_basis_evidence(1, 0)
    assert power_basis_evidence(1, 1)["all_annihilated"]
