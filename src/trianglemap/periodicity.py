"""Period structure of symbol streams and the algebra of periodic points.

A stream that repeats from some index on pins its starting point to an
algebraic number: the accumulated matrix over one full period (the portion)
fixes the direction (1, coordinates) as a left eigenvector.  The
coordinates are ratios of adjugate entries at an eigenvalue, so one
resultant against the characteristic polynomial leaves one integer
polynomial in the first coordinate.  The polynomials of that construction
are sampled at small integers with Bareiss determinants and interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from . import polynomials, simplex
from .errors import DegenerateInputError, InconsistentInputError
from .matrices import Matrix, mat_det, mat_inverse_unimodular, mat_minor_det, mat_mul
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
    if polynomials.sign_at(poly.coeffs, 1) == 0:
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

    Forms the matrix portion between the two positions and returns
    ``eliminant_from_portion`` of it: an integer polynomial of degree at
    most n + 1 that vanishes at the first coordinate of the periodic start.
    """
    if not 0 <= earlier < later <= len(symbols):
        raise ValueError("need 0 <= earlier < later <= len(symbols)")
    m_later = simplex.product_matrix_nd(symbols[:later], n)
    m_earlier = simplex.product_matrix_nd(symbols[:earlier], n)
    q = mat_mul(m_later, mat_inverse_unimodular(m_earlier))
    return eliminant_from_portion(q, n)


def _shifted(q: Matrix, lam: int) -> Matrix:
    """lam*I - q."""
    return tuple(tuple((lam if i == j else 0) - x for j, x in enumerate(row))
                 for i, row in enumerate(q))


def _sylvester(f: tuple[int, ...], g: tuple[int, ...]) -> Matrix:
    """Sylvester matrix of f and g at the formal degrees len - 1, constant first."""
    m, d = len(f) - 1, len(g) - 1
    return tuple([(0,) * i + f[::-1] + (0,) * (d - 1 - i) for i in range(d)]
                 + [(0,) * i + g[::-1] + (0,) * (m - 1 - i) for i in range(m)])


def eliminant_from_portion(q: Sequence[Sequence[int]], n: int) -> IntPolynomial:
    """One integer polynomial in x_1 for the fixed directions of the portion q.

    A fixed direction (1, x_1, ..., x_n) is a left eigenvector of q, and at
    an eigenvalue lam every row of adj(lam*I - q) is a multiple of it, as is
    any combination e adj(lam*I - q) of the rows.  So with P_0, P_1 its first
    two entries, x_1 = P_1/P_0, and Res_lam(chi, y*P_0 - P_1) vanishes at
    x_1, where chi is the squarefree characteristic polynomial; its degree
    is at most n + 1.  Roots of chi at which P_0 and P_1 vanish for every
    row (an eigenvalue with several fixed directions, or one whose direction
    has x_0 = x_1 = 0) are divided out, since they would kill every
    resultant.  The combination is e = (1, t, ..., t**n) for the first
    t = 0, 1, ... whose resultant is not identically zero; then no root of
    chi zeroes it, so every isolated fixed direction is kept, and the
    primitive result does not depend on t.  No more than n*(n + 1) values
    of t can fail.

    Returned primitive with positive leading coefficient.  Raises
    InconsistentInputError when no eigenvalue isolates a direction (the
    portion 2I, say) or no fixed direction has x_0 != 0.
    """
    size = n + 1
    if len(q) != size or any(len(row) != size for row in q):
        raise ValueError("portion matrix has the wrong shape")
    shifted = [_shifted(q, t) for t in range(size + 1)]
    chi = polynomials.squarefree_part(
        polynomials.interpolate([(t, mat_det(b)) for t, b in enumerate(shifted)]))
    # adj[i][c] is entry (c, i) of the adjugate: row c, column i
    adj = [[polynomials.interpolate([(t, (-1) ** (i + c) * mat_minor_det(b, i, c))
                                     for t, b in enumerate(shifted[:size])])
            for c in range(size)] for i in (0, 1)]
    shared = chi
    for p in adj[0] + adj[1]:
        if shared.degree == 0:
            break
        shared = polynomials.gcd(shared, p)
    if shared.degree > 0:
        chi = polynomials.exact_quotient(chi, shared)
    if chi.degree == 0:
        raise InconsistentInputError("eliminant vanished identically")
    for t in range(size * n + 1):
        p0, p1 = (sum((p.scale(t ** c) for c, p in enumerate(col)), IntPolynomial((0,)))
                  for col in adj)
        res = polynomials.interpolate([
            (y, mat_det(_sylvester(chi.coeffs, tuple(
                y * a - b for a, b in zip_longest(p0.coeffs, p1.coeffs, fillvalue=0)))))
            for y in range(chi.degree + 1)])
        if res.is_zero:
            continue
        if res.degree == 0:
            raise InconsistentInputError("eliminant is a nonzero constant: no solution")
        return res.primitive()
    raise InconsistentInputError("eliminant vanished identically")


def eliminant_report(poly: IntPolynomial, *, candidate: IntPolynomial | None = None,
                     hint: ExactNumber | None = None) -> dict:
    """Summary of an eliminant: degree, candidate divisibility, residual at a hint."""
    report: dict = {"degree": poly.degree, "factor_checked": None, "root_residual": None}
    if candidate is not None:
        report["factor_checked"] = polynomials.divides(candidate, poly)
    if hint is not None:
        value = hint.midpoint() if isinstance(hint, BigFloat) else Fraction(hint)
        try:
            report["root_residual"] = float(abs(poly.evaluate(value)))
        except OverflowError:
            raise DegenerateInputError("root residual at the hint exceeds the float range") from None
    return report


def power_basis_evidence(n: int, k: int) -> dict:
    """Exact evidence that the constant-k fixed point is (r, r**2, ..., r**n).

    The direction v = (1, x, ..., x**n) is fixed by the step matrix M_k (the
    one-step portion M_2 M_1**-1 of a constant stream) when v M_k = lam v,
    and lam is entry 0 of v M_k.  Entry j of v M_k is the polynomial whose
    coefficients are column j of M_k, so equation i is col_0 * x**i - col_i
    for i = 1..n.  Each is decided exactly at the positive root of
    fixed_point_poly(n, k): its gcd with the squarefree part must change
    sign across (0, 1).  Also records outright divisibility.  Raises
    ``DegenerateInputError`` when that root is the endpoint 1, which
    happens only at n = 1, k = 0.
    """
    cols = list(zip(*simplex.step_matrix_nd(simplex.NonNegSymbol(k), n)))
    eqs = [IntPolynomial((0,) * i + cols[0]) - IntPolynomial(cols[i]) for i in range(1, n + 1)]
    target = fixed_point_poly(n, k)
    reduced = polynomials.squarefree_part(target)
    hits = [polynomials.vanishes_at_root(eq, reduced, Fraction(0), Fraction(1)) for eq in eqs]
    return {
        "equations": len(eqs),
        "root_annihilates": hits,
        "divisible": [polynomials.divides(target, eq) for eq in eqs],
        "all_annihilated": all(hits),
    }
