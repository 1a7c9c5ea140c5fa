import ast
import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from trianglemap import numeric, simplex, triangle
from trianglemap.errors import DegenerateInputError, InconsistentInputError, PrecisionExhaustedError
from trianglemap.matrices import IntMatrix, mat_identity
from trianglemap.numeric import (
    MIN_PRECISION,
    BigFloat,
    FormEvaluator,
    RootSpec,
    SequenceStatus,
    Sign,
    _RootEnclosure,
    _RootPower,
    refine_root,
    root_powers,
    sign_of,
)
from trianglemap.periodicity import (detect_period, eliminant_from_portion, fixed_point_poly,
                                     rational_termination_check)
from trianglemap.polynomials import IntPolynomial, divides
from trianglemap.simplex import MAX_AUDIT_DIMENSION, PointN, _NO_DIGITS, decomposition_check

GOLDEN = RootSpec(IntPolynomial((-1, 1, 1)), Fraction(0), Fraction(1))
CUBIC1 = RootSpec(IntPolynomial((-1, 1, 1, 1)), Fraction(0), Fraction(1))


def test_from_fraction_exact():
    x = BigFloat.from_fraction(Fraction(3, 8), 128)
    lo, hi = x.bounds()
    assert lo == hi == Fraction(3, 8)
    assert x.width() == 0


def test_from_fraction_rounds_outward():
    x = BigFloat.from_fraction(Fraction(1, 3), 128)
    lo, hi = x.bounds()
    assert lo <= Fraction(1, 3) <= hi
    assert hi - lo <= Fraction(1, 2 ** 127)


@settings(deadline=None, max_examples=300)
@given(st.integers(-2 ** 200, 2 ** 200), st.integers(0, 2 ** 200), st.integers(1, 160),
       st.one_of(st.integers(0, 320).map(lambda t: 1 << t), st.integers(1, 2 ** 200)))
@example(-5, 7, 64, 1 << 64)  # shift by zero
@example(-(1 << 70) - 1, 3, 64, 1 << 70)
@example(-5, 7, 64, 1 << 10)  # a power of two below 2**prec
@example(-5, 7, 64, 3 << 70)  # not a power of two
def test_round_out_by_shifts_equals_division(lo, width, prec, scale):
    hi = lo + width
    expected = (lo << prec) // scale, -((-hi << prec) // scale)
    assert numeric._round_out_scaled(lo, hi, scale, prec) == expected


def test_minimum_precision_enforced():
    with pytest.raises(ValueError):
        BigFloat.from_fraction(Fraction(1, 3), 8)
    assert BigFloat.from_fraction(Fraction(1, 3), MIN_PRECISION).prec == MIN_PRECISION


def test_maximum_precision_enforced():
    # read the ceiling first: without it the calls below would not return
    ceiling = numeric.MAX_PRECISION
    assert ceiling == 1 << 20
    with pytest.raises(ValueError, match="1048576-bit ceiling"):
        BigFloat.from_fraction(Fraction(1, 3), ceiling + 1)
    with pytest.raises(ValueError, match="1048576-bit ceiling"):
        root_powers(GOLDEN, 2, ceiling + 1)
    assert BigFloat.from_fraction(Fraction(1, 2), ceiling).prec == ceiling


def test_from_decimal():
    x = BigFloat.from_decimal("0.25", 128)
    assert x.low == x.high == Fraction(1, 4)


def test_midpoint_and_float():
    x = BigFloat.from_bounds(Fraction(1, 4), Fraction(3, 4), 64)
    assert x.midpoint() == Fraction(1, 2)
    assert abs(float(x) - 0.5) < 1e-12


def test_signs():
    assert BigFloat.from_fraction(Fraction(2), 64).sign() is Sign.POSITIVE
    assert BigFloat.from_fraction(Fraction(-2), 64).sign() is Sign.NEGATIVE
    assert BigFloat.from_fraction(Fraction(0), 64).sign() is Sign.ZERO
    straddle = BigFloat.from_bounds(Fraction(-1), Fraction(1), 64)
    assert straddle.sign() is Sign.AMBIGUOUS


def test_sign_of_never_refines():
    # a tiny but nonzero value below the resolution of its own enclosure
    tiny = BigFloat.from_fraction(Fraction(1, 2 ** 300), 256)
    assert sign_of(tiny) is Sign.AMBIGUOUS
    assert sign_of(Fraction(5, 7)) is Sign.POSITIVE
    assert sign_of(Fraction(-5, 7)) is Sign.NEGATIVE
    assert sign_of(Fraction(0)) is Sign.ZERO


def test_sign_and_status_constants_are_their_members():
    assert issubclass(Sign, str) and issubclass(SequenceStatus, str)
    assert [(m.name, m.value) for m in Sign] == [
        ("NEGATIVE", "negative"), ("ZERO", "zero"), ("POSITIVE", "positive"), ("AMBIGUOUS", "ambiguous")]
    assert [(m.name, m.value) for m in SequenceStatus] == [
        ("TERMINATED", "terminated"), ("TRUNCATED", "truncated-at-max-length"),
        ("PRECISION_EXHAUSTED", "precision-exhausted")]
    for member in (*Sign, *SequenceStatus):
        assert getattr(numeric, member.name) is member


def test_kernels_and_run_loops_read_no_enum_class_attribute():
    # on CPython 3.10 and 3.11 a read such as Sign.POSITIVE runs EnumType.__getattr__,
    # so function bodies here compare with and return numeric's module constants
    reads = set()
    for module in (numeric, simplex, triangle):
        for fn in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                reads.update(f"{module.__name__}:{node.lineno} {node.value.id}.{node.attr}"
                             for stmt in fn.body for node in ast.walk(stmt)
                             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                             and node.value.id in ("Sign", "SequenceStatus"))
    assert not reads, sorted(reads)


def test_root_spec_requires_sign_change():
    with pytest.raises(DegenerateInputError):
        RootSpec(IntPolynomial((1, 0, 1)), Fraction(0), Fraction(1))
    with pytest.raises(DegenerateInputError):
        RootSpec(IntPolynomial((-1, 1, 1)), Fraction(0), Fraction(0))


def test_refine_root_golden():
    # positive root of x^2 + x - 1 satisfies g = (sqrt(5) - 1) / 2
    x = refine_root(GOLDEN, 256)
    lo, hi = x.bounds()
    assert hi - lo <= Fraction(1, 2 ** 255)
    p = GOLDEN.poly
    assert p.evaluate(lo) <= 0 <= p.evaluate(hi)
    assert x.refinable


def test_refined_value_nests():
    x = refine_root(CUBIC1, 80)
    y = x.refined(200)
    assert y.low >= x.low - x.width()
    assert y.high <= x.high + x.width()
    assert y.width() <= Fraction(1, 2 ** 199)


def test_root_powers_consistent():
    v1, v2 = root_powers(GOLDEN, 2, 160)
    # same underlying root: v2 enclosure must overlap v1 squared
    assert v1.low > 0
    assert v1.low ** 2 <= v2.high and v2.low <= v1.high ** 2
    assert v1.source is not None and v2.source is not None
    assert v1.source.enclosure is v2.source.enclosure


def test_form_evaluator_rational_signs():
    ev = FormEvaluator([Fraction(1, 2), Fraction(1, 3)])
    assert ev.certified_sign((1, -1, 0)) is Sign.POSITIVE   # 1 - x
    assert ev.certified_sign((0, 1, -1)) is Sign.POSITIVE   # x - y
    assert ev.certified_sign((0, -2, 3)) is Sign.ZERO
    assert ev.certified_sign((-1, 1, 1)) is Sign.NEGATIVE


def test_form_evaluator_floor():
    ev = FormEvaluator([Fraction(1, 2), Fraction(1, 3)])
    assert ev.certified_floor((1, -1, 0), (0, 0, 1)) == 1
    ev2 = FormEvaluator([Fraction(3, 4), Fraction(1, 8)])
    assert ev2.certified_floor((1, -1, 0), (0, 0, 1)) == 2


def test_form_evaluator_ratio():
    ev = FormEvaluator([Fraction(1, 2), Fraction(1, 3)])
    assert ev.ratio((0, 0, 1), (0, 1, 0)) == Fraction(2, 3)
    assert ev.ratio((1, -1, -1), (0, 1, 0)) == Fraction(1, 3)
    with pytest.raises(ValueError, match="not positive"):
        ev.ratio((1, 0, 0), (0, -1, 0))
    # golden pair: g^2 / g = g and (1 - g) / g = g, as outward enclosures
    g, g2 = root_powers(GOLDEN, 2, 96)
    ev = FormEvaluator([g, g2])
    for q in (ev.ratio((0, 0, 1), (0, 1, 0)), ev.ratio((1, -1, 0), (0, 1, 0))):
        assert isinstance(q, BigFloat) and q.prec == ev.bits
        assert q.low <= g.high and g.low <= q.high
        assert q.width() < Fraction(1, 2 ** 80)


def test_form_evaluator_exact_zero_shared_root():
    values = root_powers(CUBIC1, 3, 96)
    ev = FormEvaluator(list(values))
    # r^3 + r^2 + r - 1 = 0 exactly
    assert ev.certified_sign((-1, 1, 1, 1)) is Sign.ZERO
    assert ev.certified_sign((1, 1, 1, 1)) is Sign.POSITIVE


def test_form_evaluator_exact_zero_with_rational_coordinate():
    # -2 + 2*(1/2) + g + g^2 = 0: the rational coordinate folds into the constant
    g, g2 = root_powers(GOLDEN, 2, 64)
    ev = FormEvaluator([Fraction(1, 2), g, g2])
    assert ev.certified_sign((-2, 2, 1, 1)) is Sign.ZERO
    assert ev.refinements == 0


def test_form_evaluator_exact_zero_needs_one_shared_enclosure():
    # two enclosures of one root built apart share no bisection, so no exact
    # test applies and their difference stays ambiguous up to the cap
    ev = FormEvaluator([refine_root(GOLDEN, 64), refine_root(GOLDEN, 64)], cap_bits=384)
    assert ev.certified_sign((0, 1, -1)) is Sign.AMBIGUOUS
    assert ev.bits == 384


def test_form_evaluator_exact_integer_floor():
    # (1 - g) / g^2 equals 1 exactly for the golden pair
    values = root_powers(GOLDEN, 2, 96)
    ev = FormEvaluator(list(values))
    assert ev.certified_floor((1, -1, 0), (0, 0, 1)) == 1


def test_form_evaluator_refines_on_demand():
    values = root_powers(CUBIC1, 2, 64)
    ev = FormEvaluator(list(values))
    lo, hi = ev.eval_bounds((0, 1, 0))
    target = Fraction((lo + hi) / 2).limit_denominator(10 ** 40)
    # separating the root from a nearby rational forces refinement
    sign = ev.certified_sign((target.numerator, -target.denominator, 0))
    assert sign in (Sign.POSITIVE, Sign.NEGATIVE)
    assert ev.refinements >= 1


def test_form_evaluator_cap_limits_refinement():
    values = root_powers(CUBIC1, 2, 64)
    ev = FormEvaluator(list(values), cap_bits=64)
    lo, hi = ev.eval_bounds((0, 1, 0))
    mid = Fraction((lo + hi) / 2).limit_denominator(10 ** 60)
    assert ev.certified_sign((mid.numerator, -mid.denominator, 0)) is Sign.AMBIGUOUS


@pytest.mark.parametrize("make, error, match", [
    (lambda: BigFloat(1, 2, 0), ValueError, "precision must be positive"),
    (lambda: BigFloat(3, 2, 64), ValueError, "empty interval"),
    (lambda: BigFloat.from_bounds(Fraction(1, 2), Fraction(1, 3), 64), ValueError,
     "lower bound above upper bound"),
    (lambda: RootSpec(IntPolynomial((-1, 2)), Fraction(0), Fraction(1, 2)), DegenerateInputError,
     "endpoint is a root"),
    (lambda: root_powers(GOLDEN, 0, 64), ValueError, "count must be at least 1"),
    (lambda: root_powers(GOLDEN, 257, 64), ValueError, "count above the 256-power ceiling"),
    (lambda: _RootPower(_RootEnclosure(GOLDEN), 0), ValueError, "power must be at least 1"),
    (lambda: IntMatrix(((2, 0, 0), (0, 1, 0), (0, 0, 1))).inverse(), InconsistentInputError,
     "not a unit"),
    (lambda: IntPolynomial((1, 0.5)), TypeError, "coefficients must be ints"),
    (lambda: IntPolynomial.from_text("1,x"), ValueError, "bad polynomial text"),
    (lambda: divides(IntPolynomial((0,)), IntPolynomial((1, 1))), ZeroDivisionError,
     "polynomial division by zero"),
    (lambda: rational_termination_check(3.0, 2, 1), DegenerateInputError,
     "seeds must be integers"),
    (lambda: fixed_point_poly(0, 1), ValueError, "dimension must be at least 1"),
    (lambda: fixed_point_poly(2, -1), ValueError, "symbols are nonnegative"),
    (lambda: detect_period((1, 2), 0), ValueError, "min_repetitions must be positive"),
    (lambda: PointN(()), DegenerateInputError, "point needs at least one coordinate"),
    (lambda: decomposition_check(0, 1), ValueError, "dimension must be at least 1"),
    (lambda: decomposition_check(MAX_AUDIT_DIMENSION + 1, 1), ValueError,
     "dimension above the 1000-dimension ceiling"),
    (lambda: decomposition_check(3, 1, max_denominator=3), ValueError,
     "denominator bound too small"),
    (lambda: decomposition_check(3, 1, max_denominator=10000.0), TypeError,
     "cannot be interpreted as an integer"),
    (lambda: eliminant_from_portion(((1, 0), (0, 1)), 2), ValueError,
     "portion matrix has the wrong shape"),
    (lambda: eliminant_from_portion(((-2, -2), (0, -2)), 1), InconsistentInputError,
     "eliminant is a nonzero constant"),
], ids=["bigfloat-prec", "bigfloat-empty", "from-bounds", "root-endpoint", "no-powers",
        "too-many-powers", "power-zero", "matrix-not-unit", "float-coefficient", "polynomial-text",
        "divisor-zero", "float-seed", "fixed-point-dimension", "fixed-point-symbol",
        "no-repetitions", "empty-point", "decomposition-dimension", "decomposition-ceiling",
        "sample-denominator", "float-sample-denominator", "portion-shape",
        "constant-eliminant"])
def test_inputs_refused(make, error, match):
    with pytest.raises(error, match=match):
        make()


def test_form_evaluator_refine_without_a_source():
    # a decimal enclosure cannot tighten, whatever room the cap leaves
    ev = FormEvaluator([BigFloat.from_decimal("0.3", 64)], cap_bits=256)
    assert ev.refine() is False
    assert (ev.bits, ev.refinements) == (64, 0)


@pytest.mark.parametrize("cap", [133, 134])
def test_form_evaluator_refine_that_tightens_nothing(cap):
    # a root value is held at two guard bits over the working bits: at 132
    # working bits it already carries 134, so a cap of 133 or 134 leaves
    # nothing to tighten
    ev = FormEvaluator(root_powers(GOLDEN, 1, 64), cap_bits=cap)
    assert ev.refine() is True
    assert (ev.bits, ev.refinements, ev.values[0].prec) == (132, 1, 134)
    held = ev.values[0]
    assert ev.refine() is False
    assert (ev.bits, ev.refinements) == (132, 1) and ev.values[0] is held


def _count_sign_queries(monkeypatch) -> list:
    """Record the form of every ``certified_sign`` call from here on."""
    calls = []
    real = FormEvaluator.certified_sign

    def counted(self, coeffs):
        calls.append(coeffs)
        return real(self, coeffs)

    monkeypatch.setattr(FormEvaluator, "certified_sign", counted)
    return calls


def test_floor_skips_the_sign_of_a_positive_den(monkeypatch):
    calls = _count_sign_queries(monkeypatch)
    # the bounds of g^2 are positive already: no sign query, on a tuple or a
    # carried den, and none in the exact integer ratio (1 - g) / g^2 = 1
    ev = FormEvaluator(list(root_powers(GOLDEN, 2, 96)))
    assert ev.certified_floor((1, 0, 0), (0, 0, 1)) == 2
    one, g, g2 = ev.units()
    assert ev.certified_floor(ev.sub(one, g), g2) == 1
    assert calls == [] and ev.refinements == 0
    # likewise on an exact point
    assert FormEvaluator([Fraction(3, 4), Fraction(1, 8)]).certified_floor((1, -1, 0), (0, 0, 1)) == 2
    assert calls == []


def test_floor_refines_a_den_that_straddles_zero(monkeypatch):
    ev = FormEvaluator([refine_root(GOLDEN, 64)])
    lo, hi = ev.eval_bounds((0, 1))
    # a rational c just below g, inside the 64-bit enclosure: den = q*g - p
    c = Fraction((lo + hi) / 2).limit_denominator(10 ** 30)
    if c * c + c - 1 > 0:
        c = Fraction(lo + c, 2)
    assert lo < c < hi and c * c + c - 1 < 0
    den = (-c.numerator, c.denominator)
    assert ev._int_bounds(den)[0] <= 0
    fine = refine_root(GOLDEN, 4096)
    expected = {math.floor(1 / (c.denominator * v - c.numerator)) for v in (fine.low, fine.high)}
    assert len(expected) == 1
    calls = _count_sign_queries(monkeypatch)
    assert ev.certified_floor((1, 0), den) == expected.pop()
    assert calls == [den] and ev.refinements >= 1


def test_floor_reads_its_den_once_per_precision(monkeypatch):
    ev = FormEvaluator([refine_root(GOLDEN, 64)])
    lo, hi = ev.eval_bounds((0, 1))
    # a rational c inside the 64-bit enclosure of g: (q*g - p) / g straddles 0
    c = Fraction((lo + hi) / 2).limit_denominator(10 ** 30)
    assert lo < c < hi
    num, den = (-c.numerator, c.denominator), (0, 1)
    expected = 0 if c * c + c - 1 < 0 else -1
    reads = []
    real = FormEvaluator._int_bounds

    def counted(self, form):
        if form is den:
            reads.append(self.epoch)
        return real(self, form)

    monkeypatch.setattr(FormEvaluator, "_int_bounds", counted)
    assert ev.certified_floor(num, den) == expected
    assert ev.refinements >= 1
    assert len(reads) == len({id(ep) for ep in reads}) == ev.refinements + 1


def test_floor_raises_on_a_decimal_den_that_straddles_zero():
    # 10x - 3 is 0 at x = 0.3, whose 64-bit enclosure cannot tighten
    ev = FormEvaluator([BigFloat.from_decimal("0.3", 64)], cap_bits=256)
    with pytest.raises(PrecisionExhaustedError, match="not certainly positive"):
        ev.certified_floor((1, 0), (-3, 10))


def test_floor_of_a_negative_numerator_over_an_enclosure():
    # floor(-1/x): the lower quotient of a negative numerator divides by the
    # den's lower bound.  x = 1/3 - 2**-70 has a 64-bit enclosure that
    # straddles 1/3, where -1/x crosses -3, so no floor is certain
    x = BigFloat.from_fraction(Fraction(1, 3) - Fraction(1, 2 ** 70), 64)
    assert x.low < Fraction(1, 3) < x.high
    with pytest.raises(PrecisionExhaustedError, match="floor undecidable"):
        FormEvaluator([x]).certified_floor((-1, 0), (0, 1))
    x = BigFloat.from_fraction(Fraction(3, 10), 64)
    assert x.low < x.high
    assert FormEvaluator([x]).certified_floor((-1, 0), (0, 1)) == -4


def test_floor_refuses_a_den_certainly_not_positive():
    # a certain zero or negative den is an input error, as it is for ratio;
    # only an ambiguous one exhausts precision
    ev = FormEvaluator([Fraction(1, 2), Fraction(1, 3)])
    for den in ((0, 0, 0), (-1, 0, 0), (0, -1, 1)):
        with pytest.raises(ValueError, match="denominator form is not positive"):
            ev.certified_floor((1, 0, 0), den)
    # -1 + g + g^2 = 0, certified by the exact zero test
    ev = FormEvaluator(list(root_powers(GOLDEN, 2, 64)))
    with pytest.raises(ValueError, match="denominator form is not positive"):
        ev.certified_floor((1, 0, 0), (-1, 1, 1))


def test_carried_bounds_kept_per_rescale():
    ev = FormEvaluator(list(root_powers(GOLDEN, 2, 64)))
    one, g, g2 = ev.units()
    form = ev.sub(one, g)
    bounds = ev._int_bounds(form)
    assert ev.refine()
    # an operand brings its sum to the new rescale before any query of its own
    ev.sub(form, g)
    assert form.tag is ev.epoch
    assert ev._int_bounds(form) == ev._int_bounds(form.coeffs) != bounds


def test_exact_zero_on_a_collapsed_enclosure():
    # the first midpoint of (0, 1) is the root 1/2 of 2x - 1
    x = refine_root(RootSpec(IntPolynomial((-1, 2)), Fraction(0), Fraction(1)), 64)
    ev = FormEvaluator([x])
    enc = ev.values[0].source.enclosure
    assert enc.lo == enc.hi == Fraction(1, 2)
    assert ev.exact_zero((-1, 2)) is True
    assert ev.exact_zero((-1, 3)) is False


def test_exact_zero_on_a_collapsed_enclosure_beside_a_rational():
    # x = 1/2 (the root of 2x - 1, hit by bisection) next to 1/3
    x = refine_root(RootSpec(IntPolynomial((-1, 2)), Fraction(0), Fraction(1)), 64)
    ev = FormEvaluator([x, Fraction(1, 3)])
    assert ev.exact_zero((-4, 6, 3)) is True
    assert ev.exact_zero((-5, 6, 3)) is False
    # 2x - 1/3: the rational constant's denominator scales the monomials too
    assert ev.exact_zero((0, 2, -1)) is False


def test_exact_zero_of_a_form_on_the_rational_coordinate_alone():
    # a root coordinate with coefficient 0 adds no monomial: the form is its
    # rational constant, zero exactly when that sum is
    ev = FormEvaluator([Fraction(2, 7), refine_root(GOLDEN, 64)])
    assert ev.exact_zero((-2, 7, 0)) is True
    assert ev.exact_zero((0, 0, 0)) is True
    assert ev.exact_zero((-1, 7, 0)) is False
    assert ev.exact_zero((1, 0, 0)) is False


def test_even_power_of_a_root_straddling_zero():
    # the root 2**-100 stays inside a cell around 0 at 64 bits, so r**2 has
    # lower bound 0, not the smaller of the squared ends
    r, r2 = root_powers(RootSpec(IntPolynomial((-1, 2 ** 100)), Fraction(-1), Fraction(2)), 2, 64)
    assert r.lo_num < 0 < r.hi_num
    assert (r2.lo_num, r2.hi_num) == (0, 1)


def test_evaluator_refines_a_copy_of_each_enclosure():
    values = root_powers(CUBIC1, 3, 64)
    enc = values[0].source.enclosure
    state = (enc.lo_num, enc.hi_num, enc.shift)
    ev = FormEvaluator([*values, Fraction(1, 2)])
    copies = {id(v.source.enclosure) for v in ev.values[:3]}
    assert len(copies) == 1 and id(enc) not in copies
    assert ev.values[3] == Fraction(1, 2)
    assert ev.certified_sign((-1, 1, 1, 1, 0)) is Sign.ZERO
    assert ev.refine() and ev.refinements == 1
    assert ev.values[0].source.enclosure.shift > state[2]
    assert (enc.lo_num, enc.hi_num, enc.shift) == state


def test_root_spec_rejects_interval_with_several_roots():
    # (0, 1) holds three roots of 15x^3 - 20x^2 + 8x - 1: 0.276, 1/3 and 0.724
    p = IntPolynomial((-1, 8, -20, 15))
    with pytest.raises(DegenerateInputError, match="3 distinct roots"):
        RootSpec(p, Fraction(0), Fraction(1))
    assert RootSpec(p, Fraction(1, 2), Fraction(1)).high == 1
    # a sign change over a root of multiplicity three and no other root
    RootSpec(IntPolynomial((-1, 1)) * IntPolynomial((-1, 1)) * IntPolynomial((-1, 1)),
             Fraction(0), Fraction(2))


# the Fraction interval formulas the integer kernel replaced ---------------


class FractionOracle:
    """Fraction interval arithmetic over the evaluator's current enclosures."""

    def __init__(self, ev: FormEvaluator):
        self.values = list(ev.values)
        self.bits = ev.bits

    def bounds(self, coeffs):
        lo = hi = Fraction(coeffs[0])
        for c, v in zip(coeffs[1:], self.values):
            vl, vh = v.bounds() if isinstance(v, BigFloat) else (v, v)
            if c > 0:
                lo += c * vl
                hi += c * vh
            elif c < 0:
                lo += c * vh
                hi += c * vl
        return lo, hi

    def sign(self, coeffs):
        """The sign these enclosures decide, or None."""
        lo, hi = self.bounds(coeffs)
        if lo > 0:
            return Sign.POSITIVE
        if hi < 0:
            return Sign.NEGATIVE
        if lo == hi:
            return Sign.ZERO
        return None

    def floor(self, num, den):
        """floor(num/den) when these enclosures decide it (den positive), or None."""
        nlo, nhi = self.bounds(num)
        dlo, dhi = self.bounds(den)
        lo_r = nlo / dhi if nlo >= 0 else nlo / dlo
        hi_r = nhi / dlo if nhi >= 0 else nhi / dhi
        fl = lo_r.numerator // lo_r.denominator
        fh = hi_r.numerator // hi_r.denominator
        return fl if fl == fh else None

    def materialize(self, coeffs):
        lo, hi = self.bounds(coeffs)
        return lo if lo == hi else BigFloat.from_bounds(lo, hi, self.bits)


def _same_number(a, b) -> bool:
    if isinstance(a, BigFloat) or isinstance(b, BigFloat):
        return (type(a) is type(b)
                and (a.lo_num, a.hi_num, a.prec) == (b.lo_num, b.hi_num, b.prec))
    return type(a) is type(b) is Fraction and a == b


def _check_against_oracle(ev: FormEvaluator, forms, floors) -> None:
    for coeffs in forms:
        oracle = FractionOracle(ev)
        assert ev.eval_bounds(coeffs) == oracle.bounds(coeffs)
        assert _same_number(ev.materialize(coeffs), oracle.materialize(coeffs))
        expected = oracle.sign(coeffs)
        before = ev.refinements
        got = ev.certified_sign(coeffs)
        if expected is not None:
            assert got is expected and ev.refinements == before
        else:
            # undecided here: the answer must be decided by the refined
            # enclosures, certified as an exact zero, or ambiguous at the cap
            after = FractionOracle(ev).sign(coeffs)
            assert (got is after
                    or (got is Sign.ZERO and ev.exact_zero(coeffs) is True)
                    or (got is Sign.AMBIGUOUS and after is None))
    for num, den in floors:
        oracle = FractionOracle(ev)
        expected = oracle.floor(num, den) if oracle.sign(den) is Sign.POSITIVE else None
        before = ev.refinements
        try:
            got = ev.certified_floor(num, den)
        except PrecisionExhaustedError:
            got = None
        if expected is not None:
            assert got == expected and ev.refinements == before
        elif got is not None:
            after = FractionOracle(ev)
            boundary = tuple(a - got * b for a, b in zip(num, den))
            assert after.floor(num, den) == got or ev.exact_zero(boundary) is True


small_rationals = st.fractions(min_value=Fraction(1, 10 ** 6), max_value=1, max_denominator=10 ** 6)
coefficients = st.one_of(st.integers(-30, 30), st.integers(-(2 ** 90), 2 ** 90))


@st.composite
def oracle_cases(draw):
    """(values, forms, floors): a point, forms and floor queries over it.

    Among the forms are ones that cancel to exact zero and numerators whose
    ratio to the denominator is exactly an integer.
    """
    kind = draw(st.sampled_from(["rational", "mixed", "root"]))
    if kind == "root":
        k = draw(st.integers(1, 4))
        values = list(root_powers(RootSpec(IntPolynomial((-1, 1, k, 1)), Fraction(0), Fraction(1)),
                                  3, draw(st.integers(MIN_PRECISION, 160))))
        values += draw(st.lists(small_rationals, max_size=1))
        # r^3 + k r^2 + r - 1 = 0
        zeros = [(-1, 1, k, 1) + (0,) * (len(values) - 3)]
    else:
        fracs = draw(st.lists(small_rationals, min_size=1, max_size=4))
        values = list(fracs)
        if kind == "mixed":
            for i, f in enumerate(fracs):
                prec = draw(st.integers(MIN_PRECISION, 200))
                shape = draw(st.sampled_from(["fraction", "exact", "bounds", "wide", "keep"]))
                if shape == "fraction":
                    values[i] = BigFloat.from_fraction(f, prec)
                elif shape == "exact":
                    values[i] = BigFloat.from_fraction(Fraction(f.numerator, 1 << 20), prec)
                elif shape == "bounds":
                    values[i] = BigFloat.from_bounds(f, f + Fraction(1, 1 << 70), prec)
                elif shape == "wide":
                    values[i] = BigFloat.from_bounds(f / 2, f, prec)
        # x_i * q_i - p_i = 0 for the exactly rational coordinates
        zeros = []
        for i, (f, v) in enumerate(zip(fracs, values)):
            if v is f:
                form = [0] * (len(values) + 1)
                form[0], form[i + 1] = -f.numerator, f.denominator
                zeros.append(tuple(form))
    size = len(values) + 1
    forms = draw(st.lists(st.tuples(*[coefficients] * size), min_size=1, max_size=4))
    forms += zeros
    unit = tuple(1 if i == size - 1 else 0 for i in range(size))
    dens = [unit, (1,) + (0,) * (size - 1)]
    floors = [(num, den) for num in forms for den in dens]
    for z in zeros:
        m = draw(st.integers(-5, 5))
        floors.append((tuple(m * d + t for d, t in zip(unit, z)), unit))
    return values, forms, floors


@settings(deadline=None, max_examples=60)
@given(oracle_cases())
def test_integer_kernel_matches_fraction_oracle(case):
    values, forms, floors = case
    ev = FormEvaluator(values)
    _check_against_oracle(ev, forms, floors)
    refinable = any(isinstance(v, BigFloat) and v.refinable for v in values)
    assert ev.refine() is refinable
    _check_against_oracle(ev, forms, floors)


def test_integer_kernel_exact_cases():
    # exact integer ratio: (1 - g) / g^2 = 1, and forms cancelling to zero
    ev = FormEvaluator(list(root_powers(GOLDEN, 2, 96)))
    assert ev.certified_floor((1, -1, 0), (0, 0, 1)) == 1
    assert ev.certified_sign((-1, 1, 1)) is Sign.ZERO
    ev = FormEvaluator([Fraction(2, 3), Fraction(1, 6)])
    assert ev.certified_floor((2, 0, -4), (0, 0, 1)) == 8
    assert ev.certified_sign((-1, 1, 2)) is Sign.ZERO
    assert ev.materialize((-1, 1, 2)) == 0
    assert _same_number(ev.materialize((1, -1, 0)), Fraction(1, 3))


# root bisection on dyadic numerators ---------------------------------------


def fraction_bisection(poly: IntPolynomial, lo: Fraction, hi: Fraction, width: Fraction):
    """Bisection over Fraction midpoints, stopping at the first width <= width."""
    neg_low = poly.evaluate(lo) < 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = poly.evaluate(mid)
        if v == 0:
            return mid, mid
        if (v < 0) == neg_low:
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("low", [Fraction(0), Fraction(1, 3)])
def test_bisection_matches_fraction_bisection(k, low):
    poly = IntPolynomial((-1, 1, k, 1))
    enc = _RootEnclosure(RootSpec(poly, low, Fraction(1)))
    lo, hi = low, Fraction(1)
    for b in (64, 512, 2048):
        width = Fraction(1, 1 << b)
        enc.refine_below(width)
        lo, hi = fraction_bisection(poly, lo, hi, width)
        assert (enc.lo, enc.hi) == (lo, hi)


def test_bisection_collapses_on_rational_root():
    # (4x - 3)(x^2 + 1): the second midpoint of (0, 1) is the root 3/4
    poly = IntPolynomial((-3, 4)) * IntPolynomial((1, 0, 1))
    spec = RootSpec(poly, Fraction(0), Fraction(1))
    enc = _RootEnclosure(spec)
    enc.refine_below(Fraction(1, 1 << 64))
    assert enc.lo == enc.hi == Fraction(3, 4)
    assert (enc.lo, enc.hi) == fraction_bisection(poly, Fraction(0), Fraction(1), Fraction(1, 1 << 64))
    x = refine_root(spec, 64)
    assert x.lo_num == x.hi_num and x.low == Fraction(3, 4)
    assert FormEvaluator([x]).certified_sign((-3, 4)) is Sign.ZERO


# Newton jumps: the cell bisection reaches, proved by two signs -------------


def _cube(poly: IntPolynomial) -> IntPolynomial:
    return poly * poly * poly


# one spec per way a jump falls back to bisection, with widths that reach it
NEWTON_FALLBACKS = {
    # few levels to go: bisection is cheaper than a jump
    "short": (GOLDEN, (64, 70)),
    # the dyadic root 3/4 is a cell end: bisection's collapse case
    "on-root": (RootSpec(IntPolynomial((-3, 4)) * IntPolynomial((1, 0, 1)), Fraction(0), Fraction(1)),
                (64,)),
    # (2x - 1)^3 + 2 has p' = 0 at the midpoint 1/2 of (-1, 2)
    "flat": (RootSpec(IntPolynomial((1, 6, -12, 8)), Fraction(-1), Fraction(2)), (64,)),
    # x^3 - 2x + 2: Newton from the midpoint 0 cycles 0, 1, 0, ...
    "unsettled": (RootSpec(IntPolynomial((2, -2, 0, 1)), Fraction(-2), Fraction(2)), (64,)),
    # the triple root sqrt(2) converges only linearly: settled one bit below
    # the enclosure, the estimate 40 levels down misses by many cells
    "unchecked": (RootSpec(_cube(IntPolynomial((-2, 0, 1))), Fraction(1), Fraction(2)), (200, 240)),
}


def _refine_path(monkeypatch, enc: _RootEnclosure, width: Fraction) -> str:
    """refine_below, and which way its last call went: "jump", or a fallback's name."""
    seen = {"jump": None, "newton": None, "flat": False}
    real_jump, real_newton, real_step = (_RootEnclosure._jump, _RootEnclosure._newton,
                                         _RootEnclosure._newton_step)

    def jump(self, k):
        seen["jump"] = real_jump(self, k)
        return seen["jump"]

    def newton(self, target):
        seen["newton"] = real_newton(self, target)
        return seen["newton"]

    def step(self, m, shift):
        out = real_step(self, m, shift)
        seen["flat"] |= out is None
        return out

    with monkeypatch.context() as patch:
        patch.setattr(_RootEnclosure, "_jump", jump)
        patch.setattr(_RootEnclosure, "_newton", newton)
        patch.setattr(_RootEnclosure, "_newton_step", step)
        enc.refine_below(width)
    if seen["jump"] is None:
        return "short"
    if seen["jump"]:
        return "jump"
    if seen["newton"] is None:
        return "flat" if seen["flat"] else "unsettled"
    return "on-root" if enc.lo_num == enc.hi_num else "unchecked"


def _assert_bisection_identity(enc: _RootEnclosure, spec: RootSpec, bits, refine) -> list[str]:
    """Refine to each width in turn and compare with Fraction bisection; returns the paths."""
    lo, hi = spec.low, spec.high
    paths = []
    for b in bits:
        width = Fraction(1, 1 << b)
        paths.append(refine(enc, width))
        lo, hi = fraction_bisection(spec.poly, lo, hi, width)
        assert (enc.lo, enc.hi) == (lo, hi)
        # the collapse stops bisection at the root's own level
        assert enc.hi - enc.lo <= width
    return paths


@pytest.mark.parametrize("path", sorted(NEWTON_FALLBACKS))
def test_newton_fallbacks_reach_bisection_cell(monkeypatch, path):
    spec, bits = NEWTON_FALLBACKS[path]
    enc = _RootEnclosure(spec)
    paths = _assert_bisection_identity(enc, spec, bits,
                                       lambda e, w: _refine_path(monkeypatch, e, w))
    assert paths[-1] == path


def test_newton_jump_taken_on_period_one_roots(monkeypatch):
    spec = RootSpec(IntPolynomial((-1, 1, 3, 1)), Fraction(0), Fraction(1))
    enc = _RootEnclosure(spec)
    paths = _assert_bisection_identity(enc, spec, (64, 512, 2048),
                                       lambda e, w: _refine_path(monkeypatch, e, w))
    assert paths == ["jump"] * 3


_GRID = [Fraction(i, 7) - Fraction(1, 13) for i in range(-28, 29)]


@st.composite
def root_specs(draw):
    """A RootSpec of degree 2-6 on a grid interval in [-4, 4], and widths in bits.

    Shapes: any integer polynomial, one with a rational or a dyadic rational
    root (bisection collapses on the latter), and one with a triple root.
    """
    shape = draw(st.sampled_from(["plain", "rational", "dyadic", "triple"]))
    degree = draw(st.integers(2, 6))
    small = st.integers(-9, 9)

    def poly(deg: int) -> IntPolynomial:
        coeffs = draw(st.lists(small, min_size=deg, max_size=deg))
        return IntPolynomial(tuple(coeffs) + (draw(small.filter(bool)),))

    if shape == "plain":
        p = poly(degree)
    elif shape == "triple":
        q = draw(st.sampled_from([1, 2, 3, 4, 5, 8]))
        root = IntPolynomial((-draw(st.integers(-2 * q, 2 * q)), q))
        if degree == 6 and draw(st.booleans()):
            root = IntPolynomial((-draw(st.integers(2, 7)), 0, 1))
            p = _cube(root)
        else:
            p = _cube(root) * poly(max(degree - 3, 0))
    else:
        q = 1 << draw(st.integers(0, 6)) if shape == "dyadic" else draw(st.integers(3, 40))
        p = IntPolynomial((-draw(st.integers(-3 * q, 3 * q)), q)) * poly(degree - 1)
    specs = []
    for a, b in zip(_GRID, _GRID[1:]):
        for lo, hi in ((a, b), (a - Fraction(draw(st.integers(0, 9)), 5), b + Fraction(1, 3))):
            try:
                specs.append(RootSpec(p, lo, hi))
            except DegenerateInputError:
                pass
    assume(specs)
    first = draw(st.integers(1, 300))
    return draw(st.sampled_from(specs)), (first, first + draw(st.integers(0, 200)))


@settings(deadline=None, max_examples=60)
@given(root_specs())
@example(NEWTON_FALLBACKS["short"])
@example(NEWTON_FALLBACKS["on-root"])
@example(NEWTON_FALLBACKS["flat"])
@example(NEWTON_FALLBACKS["unsettled"])
@example(NEWTON_FALLBACKS["unchecked"])
def test_refine_below_matches_fraction_bisection(case):
    spec, bits = case
    enc = _RootEnclosure(spec)
    _assert_bisection_identity(enc, spec, bits, lambda e, w: e.refine_below(w))


def test_deep_refinement_evaluates_few_polynomials(monkeypatch):
    # bisection would make one evaluation per bit: 32,640 from 128 to 32,768 bits
    calls = []
    for name in ("_scaled_value", "_newton_step"):
        real = getattr(_RootEnclosure, name)
        monkeypatch.setattr(_RootEnclosure, name,
                            lambda self, m, shift, _real=real: calls.append(1) or _real(self, m, shift))
    x = refine_root(RootSpec(IntPolynomial((-1, 1, 3, 1)), Fraction(0), Fraction(1)), 128)
    calls.clear()
    bits = 128
    while bits < 32768:
        bits *= 2
        x = x.refined(bits)
    assert x.width() <= Fraction(1, 1 << 32768)
    assert len(calls) <= 200


def test_refinement_cap_within_the_ceiling():
    ceiling = numeric.MAX_PRECISION
    with pytest.raises(ValueError, match="1048576-bit ceiling"):
        FormEvaluator([refine_root(GOLDEN, 64)], cap_bits=ceiling + 1)
    with pytest.raises(ValueError, match="1048576-bit ceiling"):
        refine_root(GOLDEN, 64).refined(ceiling + 1)
    assert FormEvaluator([refine_root(GOLDEN, 64)], cap_bits=ceiling).cap == ceiling
    # the default cap, 32 times the working bits, stops at the ceiling
    assert FormEvaluator([refine_root(GOLDEN, 40000)]).cap == ceiling
    assert FormEvaluator([refine_root(GOLDEN, 1000)]).cap == 32 * 1002


@pytest.mark.parametrize("values", [[0.5, 0.25], [Fraction(1, 2), 0.25], ["1/2"]])
def test_form_evaluator_rejects_other_kinds(values):
    with pytest.raises(TypeError, match="int, Fraction or BigFloat, not"):
        FormEvaluator(values)


# carried midpoint sums ------------------------------------------------------


@st.composite
def carried_chains(draw):
    """(values, ops): a point and a chain of sub/addmul/refine steps over its forms."""
    kind = draw(st.sampled_from(["rational", "decimal", "wide", "root"]))
    size = draw(st.integers(1, 4))
    if kind == "root":
        k = draw(st.integers(1, 4))
        values = list(root_powers(RootSpec(IntPolynomial((-1, 1, k, 1)), Fraction(0), Fraction(1)),
                                  size, draw(st.integers(MIN_PRECISION, 160))))
        values += draw(st.lists(small_rationals, max_size=1))
    else:
        values = draw(st.lists(small_rationals, min_size=size, max_size=size))
        prec = draw(st.integers(MIN_PRECISION, 200))
        if kind == "decimal":
            digits = st.integers(1, 10 ** 30 - 1)
            values = [BigFloat.from_decimal(f"0.{draw(digits):030d}", prec) for _ in values]
        elif kind == "wide":
            values = [BigFloat.from_bounds(f / 2, f, prec) for f in values]
    op = st.tuples(st.sampled_from(["sub", "addmul", "refine"]), st.integers(0, 99),
                   st.integers(0, 99), coefficients)
    return values, draw(st.lists(op, min_size=1, max_size=12))


def _carried_agree(ev: FormEvaluator, forms) -> None:
    """Every carried form has the bounds and value of its plain coefficient tuple."""
    oracle = FractionOracle(ev)
    for form in forms:
        assert ev._int_bounds(form) == ev._int_bounds(form.coeffs)
        assert ev.eval_bounds(form) == oracle.bounds(form.coeffs)
        assert _same_number(ev.materialize(form), ev.materialize(form.coeffs))


@settings(deadline=None, max_examples=60)
@given(carried_chains())
def test_carried_forms_match_tuple_bounds(case):
    values, ops = case
    ev = FormEvaluator(values)
    forms = ev.units()
    _carried_agree(ev, forms)
    for name, a, b, c in ops:
        if name == "refine":
            # forms made before the rescale carry sums over the old enclosures;
            # five doublings reach the default cap of 32 times the start bits
            refinable = (any(isinstance(v, BigFloat) and v.refinable for v in ev.values)
                         and ev.bits < ev.cap)
            assert ev.refine() is refinable
        else:
            x, y = forms[a % len(forms)], forms[b % len(forms)]
            forms.append(ev.sub(x, y) if name == "sub" else ev.addmul(x, c, y))
        _carried_agree(ev, forms)


def test_ops_rebase_forms_made_before_a_refinement():
    # sub and addmul on forms no query read since the rescale: each op
    # brings its operands to the new enclosures itself
    ev = FormEvaluator(root_powers(CUBIC1, 2, 64))
    one, x, y = ev.units()
    a, b = ev.sub(one, x), ev.addmul(x, -3, y)
    assert ev.refine() is True
    forms = [ev.addmul(a, 5, b), ev.addmul(x, -2, y), ev.sub(one, y), ev.sub(b, a)]
    assert all(form.tag is ev.epoch for form in (one, x, y, a, b))
    _carried_agree(ev, [one, x, y, a, b, *forms])


# batch windows ------------------------------------------------------------------


#: Largest weight a window form's packing holds: its balanced digits are unique below 2**(F - 1).
_WEIGHT_LIMIT = 2 ** (numeric.WEIGHT_BITS - 1) - 1


@settings(deadline=None, max_examples=80)
@given(carried_chains(), st.lists(st.tuples(st.sampled_from(["sub", "addmul"]), st.integers(0, 99),
                                            st.integers(0, 99), coefficients), max_size=8))
# the third chained addmul by 2**90 passes the packing
@example(([Fraction(1, 3), Fraction(1, 5)], [("sub", 0, 1, 0)]),
         [("addmul", 0, 1, 2 ** 90), ("addmul", 1, 4, -2 ** 90), ("addmul", 2, 5, 2 ** 90), ("sub", 5, 4, 0)])
def test_window_decisions_are_the_evaluators(case, window_ops):
    # a window over some carried forms, and the same ops on both sides: each
    # sign and floor the window decides is the evaluator's answer, made with
    # no refinement, and its weights give back the evaluator's form.  The
    # weights and their carried bound are mirrored on plain tuples: an op
    # raises exactly where they would pass the packing, and otherwise the
    # packed weights decode to the mirrored ones
    values, ops = case
    ev = FormEvaluator(values)
    forms = ev.units()
    for name, a, b, c in ops:
        if name == "refine":
            ev.refine()
        else:
            x, y = forms[a % len(forms)], forms[b % len(forms)]
            forms.append(ev.sub(x, y) if name == "sub" else ev.addmul(x, c, y))
    win, pairs = ev.window(forms)
    pairs = list(zip(pairs, forms))
    size = len(forms)
    mirrors = [(unit, 1) for unit in mat_identity(size)]
    for name, a, b, c in window_ops:
        (wx, x), (wy, y) = pairs[a % len(pairs)], pairs[b % len(pairs)]
        (mx, bx), (my, by) = mirrors[a % len(pairs)], mirrors[b % len(pairs)]
        if name == "sub":
            mirror = tuple(s - t for s, t in zip(mx, my)), bx + by
        else:
            mirror = tuple(s + c * t for s, t in zip(mx, my)), bx + abs(c) * by
        if max(map(abs, mirror[0])) > _WEIGHT_LIMIT or mirror[1] > _WEIGHT_LIMIT:
            with pytest.raises(PrecisionExhaustedError, match="outgrow their packing"):
                win.sub(wx, wy) if name == "sub" else win.addmul(wx, c, wy)
            continue
        if name == "sub":
            pairs.append((win.sub(wx, wy), ev.sub(x, y)))
        else:
            pairs.append((win.addmul(wx, c, wy), ev.addmul(x, c, y)))
        mirrors.append(mirror)
    packing = numeric._Packed(size, numeric.WEIGHT_BITS)
    assert [(packing.unpack(w[2])[1], w[3]) for w, _ in pairs] == mirrors
    before = ev.refinements
    assert [(col.coeffs, col.mid) for col in win.columns([w for w, _ in pairs])] == \
        [(form.coeffs, form.mid) for _, form in pairs]
    dens = [(w, form) for w, form in pairs if win.certified_sign(w) is Sign.POSITIVE][-3:]
    for wd, _ in [pair for pair in pairs if win.certified_sign(pair[0]) is not Sign.POSITIVE][-3:]:
        # a den the window does not certify positive gets no floor from it
        for w, _ in pairs:
            with pytest.raises(PrecisionExhaustedError):
                win.certified_floor(w, wd)
    for w, form in pairs:
        sign = win.certified_sign(w)
        if sign is not Sign.AMBIGUOUS:
            assert ev.certified_sign(form) is sign
        for wd, den in dens:
            try:
                floor = win.certified_floor(w, wd)
            except PrecisionExhaustedError:
                continue
            assert ev.certified_floor(form, den) == floor
    assert ev.refinements == before


@st.composite
def packings(draw):
    """A digit width, a value and 0-6 coefficients that fit balanced digits of that width."""
    bits = draw(st.sampled_from([64, numeric.WEIGHT_BITS]))
    edge = 2 ** (bits - 1) - 1
    digits = st.one_of(st.integers(-edge, edge), st.integers(-3, 3), st.sampled_from([edge, -edge]))
    value = draw(st.one_of(st.integers(), st.integers(-2, 2), st.sampled_from([2 ** 300, -2 ** 300])))
    return bits, value, draw(st.lists(digits, max_size=6))


@given(packings())
@example((numeric.WEIGHT_BITS, 0, [_WEIGHT_LIMIT, -_WEIGHT_LIMIT]))
@example((numeric.WEIGHT_BITS, -1, [-_WEIGHT_LIMIT] * 6))
@example((numeric.WEIGHT_BITS, 1, [_WEIGHT_LIMIT, 0, -_WEIGHT_LIMIT, _WEIGHT_LIMIT, -1, _WEIGHT_LIMIT]))
@example((64, 0, [2 ** 63 - 1] * 6))
@example((64, 5, []))
@example((64, 1, []))  # with no digits, 1 is the packing top itself
def test_packing_round_trip(case):
    # a value above balanced digits unpacks to itself and its digits whenever
    # every |c_r| fits them, and its packing has the value's sign
    bits, value, coeffs = case
    packing = numeric._Packed(len(coeffs), bits)
    packed = packing.pack(value, coeffs)
    assert packing.unpack(packed) == (value, tuple(coeffs))
    assert packing.certified_sign(packed) is sign_of(value)


@given(st.integers(), st.integers(), st.integers())
@example(-7, 2, -3)
@example(0, -1, 0)
def test_no_digit_packing_is_integer_arithmetic(a, b, c):
    # with no digits a packed column is its integer, and each query is Python's own
    ops = _NO_DIGITS
    assert (ops.shift, ops.off, ops.top) == (0, 0, 1)
    assert ops.sub(a, b) == a - b
    assert ops.addmul(a, c, b) == a + c * b
    assert ops.certified_sign(a) is sign_of(a)
    if b:
        assert ops.certified_floor(a, b) == a // b


def test_window_ops_raise_at_the_first_bound_past_the_packing():
    ev = FormEvaluator([Fraction(1, 3)])
    one, x = ev.units()
    win, (w1, wx) = ev.window([one, x])
    # a bound of exactly the limit is held and decodes; one more is refused
    top = win.addmul(w1, _WEIGHT_LIMIT - 1, wx)
    low = win.addmul(w1, 1 - _WEIGHT_LIMIT, wx)
    edge = win.sub(win.addmul(w1, _WEIGHT_LIMIT - 2, wx), wx)
    assert [f[3] for f in (top, low, edge)] == [_WEIGHT_LIMIT] * 3
    packing = numeric._Packed(2, numeric.WEIGHT_BITS)
    assert [packing.unpack(f[2])[1] for f in (top, low, edge)] == \
        [(1, _WEIGHT_LIMIT - 1), (1, 1 - _WEIGHT_LIMIT), (1, _WEIGHT_LIMIT - 3)]
    assert [(col.coeffs, col.mid) for col in win.columns([top, low, edge])] == \
        [(f.coeffs, f.mid) for f in (ev.addmul(one, _WEIGHT_LIMIT - 1, x), ev.addmul(one, 1 - _WEIGHT_LIMIT, x),
                                     ev.addmul(one, _WEIGHT_LIMIT - 3, x))]
    for step in (lambda: win.addmul(w1, _WEIGHT_LIMIT, wx), lambda: win.addmul(w1, -_WEIGHT_LIMIT, wx),
                 lambda: win.sub(top, w1), lambda: win.sub(w1, low), lambda: win.sub(edge, wx),
                 lambda: win.addmul(top, 1, w1), lambda: win.addmul(wx, -1, low)):
        with pytest.raises(PrecisionExhaustedError, match="outgrow their packing"):
            step()
    # doubling the unit form: a bound of 2**(F - 2) is held, 2**(F - 1) is refused
    form = w1
    for _ in range(numeric.WEIGHT_BITS - 2):
        form = win.addmul(form, 1, form)
    assert form[3] == 2 ** (numeric.WEIGHT_BITS - 2)
    assert packing.unpack(form[2])[1] == (2 ** (numeric.WEIGHT_BITS - 2), 0)
    with pytest.raises(PrecisionExhaustedError, match="outgrow their packing"):
        win.addmul(form, 1, form)


def test_unit_packings_give_back_their_start_columns():
    # a form whose weights are a start column's, directly or after ops that
    # cancel, is that very column: no dot product is taken for it
    ev = FormEvaluator([Fraction(5, 7), Fraction(2, 7)])
    one, x, y = ev.units()
    cols = [ev.sub(one, x), ev.addmul(x, -2, y), y]
    win, forms = ev.window(cols)
    back = win.sub(win.addmul(forms[1], 3, forms[2]), win.addmul(forms[2], 2, forms[2]))
    got = win.columns([*forms, back, forms[0]])
    assert all(g is c for g, c in zip(got, [*cols, cols[1], cols[0]], strict=True))


# evaluator construction -------------------------------------------------------


def _epoch_in_separate_passes(values, cap_bits=None):
    """The evaluator's first epoch and cap as the constructor made them in
    separate passes (a check, precisions, refinability, max, lcm, midpoint sums)."""
    vals = [Fraction(v) if isinstance(v, int) else v for v in values]
    for v in vals:
        if not isinstance(v, (Fraction, BigFloat)):
            raise TypeError(f"coordinates must be int, Fraction or BigFloat, not {type(v).__name__}")
    precs = [v.prec for v in vals if isinstance(v, BigFloat)]
    bits = max(precs) if precs else MIN_PRECISION
    refinable = any(isinstance(v, BigFloat) and v.refinable for v in vals)
    if cap_bits is not None:
        cap = cap_bits
    elif refinable:
        cap = min(max(4096, numeric.REFINE_CAP_FACTOR * bits), numeric.MAX_PRECISION)
    else:
        cap = bits
    return _rescale_in_separate_passes(vals, bits), cap


def _rescale_in_separate_passes(vals, bits):
    """(mids, rads, scale, bits) of the values, as the separate passes made them."""
    p = max((v.prec for v in vals if isinstance(v, BigFloat)), default=0)
    den = math.lcm(*(v.denominator for v in vals if not isinstance(v, BigFloat)))
    scale = den << p
    mids, rads = [scale << 1], [0]
    for v in vals:
        if isinstance(v, BigFloat):
            f = den << (p - v.prec)
            lo, hi = v.lo_num * f, v.hi_num * f
            mids.append(lo + hi)
            rads.append(hi - lo)
        else:
            mids.append(v.numerator * (den // v.denominator) << (p + 1))
            rads.append(0)
    return mids, rads if any(rads) else None, scale, bits


def _epoch_of(ev):
    ep = ev.epoch
    return ep.mids, ep.rads, ep.scale, ep.bits


@st.composite
def mixed_values(draw):
    """Coordinates of every accepted kind in any order: ints (bool too),
    Fractions, exact, tight and wide plain BigFloats, and root powers."""
    spec = draw(st.sampled_from([GOLDEN, CUBIC1]))
    roots = root_powers(spec, draw(st.integers(1, 3)), draw(st.integers(MIN_PRECISION, 200)))
    values = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["int", "fraction", "exact", "bounds", "root"]))
        f = draw(st.fractions(-3, 3, max_denominator=10 ** 6))
        prec = draw(st.integers(MIN_PRECISION, 200))
        if kind == "int":
            values.append(draw(st.one_of(st.integers(-5, 5), st.booleans())))
        elif kind == "fraction":
            values.append(f)
        elif kind == "exact":
            values.append(BigFloat.from_fraction(Fraction(f.numerator, 1 << 20), prec))
        elif kind == "bounds":
            values.append(BigFloat.from_bounds(f, f + abs(f) + Fraction(1, 1 << 70), prec))
        else:
            values.append(draw(st.sampled_from(roots)))
    return values, draw(st.sampled_from([None, 64, 1000]))


@settings(deadline=None, max_examples=200)
@given(mixed_values())
def test_evaluator_construction_matches_the_separate_passes(case):
    values, cap_bits = case
    epoch, cap = _epoch_in_separate_passes(values, cap_bits)
    ev = FormEvaluator(values, cap_bits=cap_bits)
    assert _epoch_of(ev) == epoch
    assert ev.cap == cap and ev.bits == epoch[3] and ev.refinements == 0
    # a refinement rescales in one pass too
    if ev.refine():
        assert _epoch_of(ev) == _rescale_in_separate_passes(ev.values, ev.bits)


@pytest.mark.parametrize("values, name", [
    ([Fraction(1, 2), 0.5], "float"),
    (["1/2"], "str"),
    ([0.5, "x"], "float"),
    ([1, Fraction(1, 3), BigFloat.from_fraction(Fraction(1, 5), 64), None], "NoneType"),
])
def test_evaluator_refuses_other_coordinate_types(values, name):
    message = f"coordinates must be int, Fraction or BigFloat, not {name}"
    with pytest.raises(TypeError) as separate:
        _epoch_in_separate_passes(values)
    assert str(separate.value) == message
    with pytest.raises(TypeError, match=f"^{message}$"):
        FormEvaluator(values)
