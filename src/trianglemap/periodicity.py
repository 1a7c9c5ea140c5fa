"""Period structure of symbol streams and the algebra of periodic points.

A stream that repeats from some index on pins its starting point to an
algebraic number: the accumulated matrix over one full period fixes the
direction (1, coordinates), and eliminating the other coordinates from the
fixed-direction equations leaves one integer polynomial in the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import polynomials, simplex
from .elimination import eliminant_from_portion, fixed_direction_polynomials
from .errors import DegenerateInputError
from .matrices import mat_inverse_unimodular, mat_mul
from .numeric import BigFloat, ExactNumber, RootSpec, refine_root
from .polynomials import IntPolynomial
from .triangle import Point2


@dataclass(frozen=True)
class PeriodReport:
    """Observed repetition in a finite stream; evidence, not proof.

    A finite window can never certify true periodicity, so this only records
    the smallest (period, preperiod) consistent with the window and how many
    full repetitions back it up.
    """

    preperiod: int
    period: int
    repetitions: int


def detect_period(symbols: Sequence, min_repetitions: int = 2) -> PeriodReport | None:
    """Smallest period, then smallest preperiod, visible in the stream."""
    if min_repetitions < 1:
        raise ValueError("min_repetitions must be positive")
    n = len(symbols)
    for period in range(1, n + 1):
        for pre in range(0, n - period + 1):
            reps = (n - pre) // period
            if reps < min_repetitions:
                break
            if all(symbols[t] == symbols[t + period] for t in range(pre, n - period)):
                return PeriodReport(preperiod=pre, period=period, repetitions=reps)
    return None


def period_one_poly(k: int) -> IntPolynomial:
    """x**3 + k*x**2 + x - 1, whose (0,1) root drives the constant-k stream.

    This is ``fixed_point_poly`` at n = 2.
    """
    return fixed_point_poly(2, k)


def fixed_point_poly(n: int, k: int) -> IntPolynomial:
    """x**(n+1) + k*x**n + x**(n-1) + ... + x - 1 for the dimension-n analogue.

    One sign change in the coefficients, so exactly one positive real root.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if k < 0:
        raise ValueError("symbols are nonnegative")
    coeffs = [-1] + [1] * (n - 1) + [k, 1]
    return IntPolynomial(tuple(coeffs))


def _unit_interval_spec(poly: IntPolynomial) -> RootSpec:
    return RootSpec(poly, Fraction(0), Fraction(1))


def period_one_root(k: int, precision: int) -> BigFloat:
    """The (0,1) root of the constant-k cubic, refinable on demand."""
    return refine_root(_unit_interval_spec(period_one_poly(k)), precision)


def period_one_point(k: int, precision: int) -> Point2:
    """The pair (r, r**2) fixed by the constant-k branch of the 2D map."""
    return Point2.from_root(_unit_interval_spec(period_one_poly(k)), precision)


def fixed_point_nd(n: int, k: int, precision: int) -> simplex.PointN:
    """(r, r**2, ..., r**n) for the positive root of the dimension-n polynomial."""
    poly = fixed_point_poly(n, k)
    if poly.evaluate(Fraction(1)) == 0:
        raise DegenerateInputError("degenerate index: the root sits on the corner")
    return simplex.PointN.from_root(_unit_interval_spec(poly), n, precision)


@dataclass(frozen=True)
class TerminationRecord:
    symbols: tuple[int, ...]
    d_values: tuple[int, ...]

    @property
    def steps(self) -> int:
        return len(self.symbols)


def rational_termination_check(p: int, q: int, r: int) -> TerminationRecord:
    """Pure integer run of the remainder recursion from scaled seeds.

    Seeds (p, q, r) stand for the rational pair (q/p, r/p).  Remainders are
    nonnegative and strictly decreasing once the run starts, so termination
    is guaranteed; this is an independent route used to cross-check the
    certified engine on rational input.
    """
    if not (isinstance(p, int) and isinstance(q, int) and isinstance(r, int)):
        raise DegenerateInputError("seeds must be integers")
    if not (p >= q >= r > 0):
        raise DegenerateInputError("seeds must satisfy p >= q >= r > 0")
    d = [p, q, r]
    symbols: list[int] = []
    while d[-1] > 0:
        a = (d[-3] - d[-2]) // d[-1]
        nxt = d[-3] - d[-2] - a * d[-1]
        symbols.append(a)
        d.append(nxt)
        if len(d) > r + 4:
            raise AssertionError("remainder recursion failed to terminate")
    return TerminationRecord(tuple(symbols), tuple(d))


def derive_cubic(symbols: Sequence[int], later: int, earlier: int) -> IntPolynomial:
    """Integer polynomial annihilating the first coordinate of a periodic start.

    Interprets the planar stream as repeating between positions earlier and
    later and eliminates the second coordinate: ``eliminant_nd`` at n = 2.
    Constant-k streams give exactly the constant-k cubic.
    """
    return eliminant_nd([simplex.NonNegSymbol(k) for k in symbols], 2, later, earlier)


def eliminant_nd(symbols: Sequence[simplex.SymbolND], n: int,
                 later: int, earlier: int) -> IntPolynomial:
    """Eliminant of a stream repeating between positions earlier and later.

    Forms the matrix portion between the two positions and eliminates all
    coordinates but the first from its fixed-direction system by iterated
    resultants.
    """
    if not 0 <= earlier < later <= len(symbols):
        raise ValueError("need 0 <= earlier < later <= len(symbols)")
    m_later = simplex.product_matrix_nd(symbols[:later], n)
    m_earlier = simplex.product_matrix_nd(symbols[:earlier], n)
    q = mat_mul(m_later, mat_inverse_unimodular(m_earlier))
    return eliminant_from_portion(q, n)


def eliminant_report(poly: IntPolynomial, *, candidate: IntPolynomial | None = None,
                     hint: ExactNumber | None = None) -> dict:
    """Summary of an eliminant: degree, candidate divisibility, residual at a hint."""
    report: dict = {"degree": poly.degree, "factor_checked": None, "root_residual": None}
    if candidate is not None:
        report["factor_checked"] = polynomials.divides(candidate, poly)
    if hint is not None:
        value = hint.midpoint() if isinstance(hint, BigFloat) else Fraction(hint)
        report["root_residual"] = float(abs(poly.evaluate(value)))
    return report


def power_basis_evidence(n: int, k: int) -> dict:
    """Exact evidence that the constant-k fixed point is (r, r**2, ..., r**n).

    Substitutes coordinate i -> x**i into each fixed-direction equation of
    the one-step portion and decides exactly whether the positive root of
    fixed_point_poly(n, k) annihilates it: the gcd with the squarefree part
    must change sign across (0, 1).  Also records outright divisibility.
    Raises ``DegenerateInputError`` when that root is the endpoint 1, which
    happens only at n = 1, k = 0.
    """
    # the one-step portion M_2 * M_1**-1 of a constant stream is its step matrix
    eqs = fixed_direction_polynomials(simplex.step_matrix_nd(simplex.NonNegSymbol(k), n), n)
    target = fixed_point_poly(n, k)
    reduced = polynomials.squarefree_part(target)
    hits: list[bool] = []
    divisible: list[bool] = []
    for eq in eqs:
        uni = eq.substitute_powers(tuple(range(1, n + 1)))
        hits.append(polynomials.vanishes_at_root(uni, reduced, Fraction(0), Fraction(1)))
        divisible.append(polynomials.divides(target, uni))
    return {
        "equations": len(eqs),
        "root_annihilates": hits,
        "divisible": divisible,
        "all_annihilated": all(hits),
    }
