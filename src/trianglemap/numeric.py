"""Exact numeric substrate: rationals, certified dyadic intervals, algebraic roots.

Two value kinds flow through the package:

* ``fractions.Fraction`` for anything exactly rational;
* ``BigFloat``, a record of one closed dyadic interval ``[lo, hi]`` whose
  endpoints are integer multiples of ``2**-prec``, certified to contain the
  real number it stands for.  It carries no arithmetic of its own.

Those are the kinds of inputs and results.  Certified evaluation itself is
integer arithmetic: ``FormEvaluator`` puts every coordinate of a point on one
shared integer scale, so a sign is an integer comparison and a floor an
integer division, and root refinement (bisection, or a Newton jump to
bisection's cell) evaluates its polynomial on integer numerators over a
power-of-two scale.  On that scale each coordinate is a midpoint sum and a
radius; a form's bounds come from its midpoint sum, which the forms built by
``FormEvaluator.sub``/``addmul`` carry from their operands, plus a radius sum
over its coefficients, and they are the same integers as the interval dot
product over the per-coordinate bounds.  A batch window
(``FormEvaluator.window``) keeps the leading bits of some forms' bounds and
answers the same queries on those small integers, where they decide; each
window form packs its weights over the batch's start forms into one integer,
with a carried bound on their size.  That packing, ``_Packed``, is the one an
exact point's run decides on too: a value above balanced fixed-width digits,
with ``_decide``'s four queries on packed integers.

A ``BigFloat`` built from a root specification (``refine_root`` or
``root_powers``) additionally keeps a handle to the isolating-interval
bisection that produced it.  Certified queries made through ``FormEvaluator``
may then tighten the enclosure on demand: the underlying value never changes,
only the interval around it shrinks.  Plain bigfloats (decimal input, values
that ``FormEvaluator.materialize`` builds) carry no such handle; once their
resolution is spent a sign or floor query honestly reports ambiguity instead
of guessing.

Sign queries on values backed by powers of a single root get an exact zero
test: a linear form ``c0 + c1*x + c2*x**2 + ...`` vanishes at the root exactly
when the gcd of the form with the squarefree part of the defining polynomial
changes sign across the isolating interval (``polynomials.vanishes_at_root``).
That keeps refinement loops from spinning forever on true zeros and makes
termination decidable for algebraic input points.
"""

from __future__ import annotations

import enum
import functools
import math
from copy import copy
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul, sub as subtract
from typing import Sequence, Union

from . import polynomials
from .errors import DegenerateInputError, PrecisionExhaustedError
from .matrices import mat_identity
from .polynomials import IntPolynomial

#: Smallest working precision accepted from user-facing entry points.
MIN_PRECISION = 64

#: Largest one: past it, rounding a decimal or bisecting a root has no useful bound.
MAX_PRECISION = 1 << 20

#: Largest count of root powers: each power is computed exactly, so a one-step
#: run took 0.22 s at 256 powers, 2.9 s at 500 and 44 s at 1,000 (2 vCPUs, CPython 3.11).
MAX_POWERS = 256

#: Default hard ceiling multiplier for on-demand refinement.
REFINE_CAP_FACTOR = 32

#: Top bits of the columns' bounds that a batch window keeps.  A window decides
#: steps until its weights' growth uses these bits up: about 50 planar
#: period-one symbols at 128 bits, 25 at 64 and 95 at 256.  64 took x1.08 the
#: time of 128 on the benchmark's algebraic runs and x1.2 on a 25,600-symbol
#: run; 256 read level with 128 on the benchmark's algebraic and rational runs
#: and x0.92 on the long one (2 vCPUs, CPython 3.11).  A window form's weights
#: are packed into one integer, ``WEIGHT_BITS`` bits per start column.
WINDOW_BITS = 128

#: Bits per weight in a window form's packed weights: each weight is one balanced
#: ``WEIGHT_BITS``-bit digit of a ``_Packed`` with no value, so every |w_t| must
#: stay below 2**(WEIGHT_BITS - 1).
#: A window whose columns were cut stops deciding long before its weights near
#: 2**WINDOW_BITS, since each start column's rounding widens a form by |w_t|:
#: the carried bound stayed within 70 bits on the benchmark's runs and on a
#: 25,600-symbol one, so twice the window's width leaves the guard idle there.
#: Only a window on columns that fit it uncut can decide until the guard ends its
#: batch, and rationals run on packed integers with no window, so only exact dyadic
#: points have such columns: 8 batches did, at n = 3-5, in 250 random exact dyadic
#: points at n = 1-5 with 64-664 bits (their records were unchanged).
WEIGHT_BITS = 2 * WINDOW_BITS

#: Largest carried weight bound a packing holds; past it a batch ends.
_WEIGHT_LIMIT = (1 << (WEIGHT_BITS - 1)) - 1


class Sign(str, enum.Enum):
    NEGATIVE = "negative"
    ZERO = "zero"
    POSITIVE = "positive"
    AMBIGUOUS = "ambiguous"


class SequenceStatus(str, enum.Enum):
    TERMINATED = "terminated"
    TRUNCATED = "truncated-at-max-length"
    PRECISION_EXHAUSTED = "precision-exhausted"


def _round_out_scaled(lo: int, hi: int, scale: int, prec: int) -> tuple[int, int]:
    """Outward-round the interval [lo, hi] / scale to the 2**-prec grid."""
    # every point whose coordinates are all enclosures has a power-of-two scale
    s = scale.bit_length() - 1 - prec
    if s >= 0 and not scale & (scale - 1):
        return lo >> s, -(-hi >> s)
    return (lo << prec) // scale, -((-hi << prec) // scale)


def check_precision(prec: int) -> None:
    if prec < MIN_PRECISION:
        raise ValueError(f"precision below the {MIN_PRECISION}-bit floor")
    if prec > MAX_PRECISION:
        raise ValueError(f"precision above the {MAX_PRECISION}-bit ceiling")


@dataclass(frozen=True)
class BigFloat:
    """Dyadic interval [lo_num, hi_num] / 2**prec enclosing one real number."""

    lo_num: int
    hi_num: int
    prec: int
    source: "_RootPower | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.prec < 1:
            raise ValueError("precision must be positive")
        if self.lo_num > self.hi_num:
            raise ValueError("empty interval")

    # construction -------------------------------------------------------

    @classmethod
    def from_fraction(cls, value, prec: int) -> "BigFloat":
        check_precision(prec)
        return cls.from_bounds(value, value, prec)

    @classmethod
    def from_decimal(cls, text: str, prec: int) -> "BigFloat":
        return cls.from_fraction(Fraction(text), prec)

    @classmethod
    def from_bounds(cls, lo: Fraction, hi: Fraction, prec: int) -> "BigFloat":
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("lower bound above upper bound")
        # both ends over the common denominator lo.den * hi.den
        return cls(*_round_out_scaled(lo.numerator * hi.denominator, hi.numerator * lo.denominator,
                                      lo.denominator * hi.denominator, prec), prec)

    # inspection ---------------------------------------------------------

    def bounds(self) -> tuple[Fraction, Fraction]:
        scale = 1 << self.prec
        return Fraction(self.lo_num, scale), Fraction(self.hi_num, scale)

    @property
    def low(self) -> Fraction:
        return Fraction(self.lo_num, 1 << self.prec)

    @property
    def high(self) -> Fraction:
        return Fraction(self.hi_num, 1 << self.prec)

    def midpoint(self) -> Fraction:
        return Fraction(self.lo_num + self.hi_num, 2 << self.prec)

    def width(self) -> Fraction:
        return Fraction(self.hi_num - self.lo_num, 1 << self.prec)

    def sign(self) -> Sign:
        if self.lo_num > 0:
            return Sign.POSITIVE
        if self.hi_num < 0:
            return Sign.NEGATIVE
        if self.lo_num == 0 and self.hi_num == 0:
            return Sign.ZERO
        return Sign.AMBIGUOUS

    @property
    def refinable(self) -> bool:
        return self.source is not None

    def refined(self, bits: int) -> "BigFloat | None":
        """A tighter enclosure of the same value, or None without a source."""
        if self.source is None:
            return None
        if bits <= self.prec:
            return self
        check_precision(bits)
        return self.source.as_bigfloat(bits)

    def __float__(self) -> float:
        return self.lo_num / (1 << self.prec) if self.lo_num == self.hi_num else float(self.midpoint())


ExactNumber = Union[Fraction, BigFloat]


def sign_of(x) -> Sign:
    """Sign of a value at its current enclosure; never refines."""
    if isinstance(x, BigFloat):
        return x.sign()
    v = Fraction(x)
    if v > 0:
        return Sign.POSITIVE
    if v < 0:
        return Sign.NEGATIVE
    return Sign.ZERO


# root enclosures ---------------------------------------------------------


@dataclass(frozen=True)
class RootSpec:
    """A real algebraic number: polynomial plus open isolating interval.

    The interval endpoints must not be roots, the polynomial must change sign
    across them, and the open interval must hold exactly one distinct root
    (counted with a Sturm sequence).
    """

    poly: IntPolynomial
    low: Fraction
    high: Fraction

    def __post_init__(self):
        object.__setattr__(self, "low", Fraction(self.low))
        object.__setattr__(self, "high", Fraction(self.high))
        if self.low >= self.high:
            raise DegenerateInputError("isolating interval is empty")
        flo = polynomials.sign_at(self.poly.coeffs, self.low)
        fhi = polynomials.sign_at(self.poly.coeffs, self.high)
        if flo == 0 or fhi == 0:
            raise DegenerateInputError("isolating interval endpoint is a root")
        if flo == fhi:
            raise DegenerateInputError("polynomial does not change sign across the interval")
        roots = polynomials.count_roots(self.poly, self.low, self.high)
        if roots != 1:
            raise DegenerateInputError(f"isolating interval holds {roots} distinct roots, not one")


#: Below this many bisection levels a refinement bisects; above, it jumps.
_NEWTON_MIN_LEVELS = 16
#: Newton iterations allowed to settle at the coarsest level of a jump.
_NEWTON_ITERATIONS = 12
#: Extra bits at each level of a jump over half the next level's.
_NEWTON_GUARD = 8


class _RootEnclosure:
    """Mutable bisection state shared by every power of one root.

    The interval is ``[lo_num, hi_num] / scale`` with ``scale = den << shift``,
    ``den`` the lcm of the spec's endpoint denominators: each bisection step
    adds one bit to ``shift``, so midpoints are plain integer sums and the
    polynomial's sign at one comes from homogenised Horner on integers.
    The numerator width ``hi_num - lo_num`` never changes.

    A refinement by many levels does not bisect level by level.  Integer
    Newton predicts the root at the final scale, and the signs of the
    polynomial at the two ends of the predicted cell prove it: the interval
    isolates one root, so that cell is exactly the one bisection would reach.
    Any doubt (an end on the root, a vanishing derivative, a cell that does
    not check, Newton that does not settle) falls back to bisection, so the
    enclosures are bisection's own.

    Tightening is caching, not mutation of the value: the root is fixed, the
    interval around it only ever shrinks.  Not thread-safe.
    """

    __slots__ = ("poly", "den", "shift", "lo_num", "hi_num", "_homog", "_neg_low", "_squarefree")

    def __init__(self, spec: RootSpec):
        self.poly = spec.poly
        self.den = math.lcm(spec.low.denominator, spec.high.denominator)
        self.shift = 0
        self.lo_num = spec.low.numerator * (self.den // spec.low.denominator)
        self.hi_num = spec.high.numerator * (self.den // spec.high.denominator)
        d = spec.poly.degree
        # c_i * den**(d - i), constant first: Q**d * p(m / Q) at Q = den
        self._homog = tuple(c * self.den ** (d - i) for i, c in enumerate(spec.poly.coeffs))
        self._neg_low = polynomials.sign_at(spec.poly.coeffs, spec.low) < 0
        self._squarefree: IntPolynomial | None = None

    @property
    def scale(self) -> int:
        return self.den << self.shift

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_num, self.scale)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_num, self.scale)

    @property
    def squarefree(self) -> IntPolynomial:
        if self._squarefree is None:
            self._squarefree = polynomials.squarefree_part(self.poly)
        return self._squarefree

    def _scaled_value(self, m: int, shift: int) -> int:
        """(den << shift)**d * p(m / (den << shift)): same sign as p there."""
        h = self._homog
        d = len(h) - 1
        acc = h[d]
        for i in range(d - 1, -1, -1):
            acc = acc * m + (h[i] << (shift * (d - i)))
        return acc

    def _newton_step(self, m: int, shift: int) -> int | None:
        """m - P(m) // P'(m), clamped to the enclosure, for P the scaled value
        at ``shift``; None where P' = 0."""
        h = self._homog
        d = len(h) - 1
        acc, slope = h[d], 0
        for i in range(d - 1, -1, -1):
            slope = slope * m + acc
            acc = acc * m + (h[i] << (shift * (d - i)))
        if not slope:
            return None
        up = shift - self.shift
        return min(max(m - acc // slope, self.lo_num << up), self.hi_num << up)

    def _newton(self, target: int) -> int | None:
        """Newton's estimate of the root's numerator at ``shift = target``, or None.

        Levels halve down from the target (plus a guard) to one within a
        few bits of the current shift; Newton settles there from the
        midpoint, then takes one step per level on the way back up.
        """
        shift = self.shift
        levels = [target]
        while levels[-1] > shift + 4 * _NEWTON_GUARD:
            levels.append(max((levels[-1] + 1) // 2 + _NEWTON_GUARD, shift + 1))
        level = levels.pop()
        x = (self.lo_num + self.hi_num) << (level - shift - 1)
        for _ in range(_NEWTON_ITERATIONS):
            nxt = self._newton_step(x, level)
            if nxt is None:
                return None
            settled, x = abs(nxt - x) <= 1, nxt
            if settled:
                break
        else:
            return None
        while levels and x is not None:
            up = levels.pop()
            x, level = self._newton_step(x << (up - level), up), up
        return x

    def _jump(self, k: int) -> bool:
        """Move to bisection's cell k levels down in one certified step; False if unsure."""
        lo, width, target = self.lo_num, self.hi_num - self.lo_num, self.shift + k
        guess = self._newton(target)
        if guess is None:
            return False
        base, last = lo << k, (1 << k) - 1
        j = min(max((guess - base) // width, 0), last)
        signs: dict[int, bool] = {}

        def low_sign(m: int) -> bool | None:
            """Whether p has the low end's sign at m / (den << target); None on the root."""
            if m not in signs:
                v = self._scaled_value(m, target)
                signs[m] = None if v == 0 else (v < 0) == self._neg_low
            return signs[m]

        moved = False
        while True:
            a = base + j * width
            at_a, at_b = low_sign(a), low_sign(a + width)
            if at_a is None or at_b is None:
                return False
            if at_a and not at_b:
                self.lo_num, self.hi_num, self.shift = a, a + width, target
                return True
            j += 1 if at_a else -1
            if moved or not 0 <= j <= last:
                return False
            moved = True

    def refine_below(self, width: Fraction) -> None:
        """Shrink the interval to width at most ``width``, as bisection would."""
        lo, hi, shift = self.lo_num, self.hi_num, self.shift
        # hi - lo > width, with both sides over den << shift
        wd, wn = width.denominator, width.numerator * self.den
        need = (hi - lo) * wd
        if need <= wn << shift:
            return
        # the least level e with need <= wn << e; bisection stops at shift + k
        e = max(need.bit_length() - wn.bit_length(), 0)
        while wn << e < need:
            e += 1
        k = e - shift
        if k >= _NEWTON_MIN_LEVELS and self._jump(k):
            return
        while (hi - lo) * wd > wn << shift:
            mid = lo + hi
            shift += 1
            v = self._scaled_value(mid, shift)
            if v == 0:
                # landed exactly on the root: enclosure collapses to a rational
                lo = hi = mid
                break
            if (v < 0) == self._neg_low:
                lo, hi = mid, hi << 1
            else:
                lo, hi = lo << 1, mid
        self.lo_num, self.hi_num, self.shift = lo, hi, shift


class _RootPower:
    """Refinable source: the power ``root**power`` of a shared enclosure."""

    __slots__ = ("enclosure", "power")

    def __init__(self, enclosure: _RootEnclosure, power: int):
        if power < 1:
            raise ValueError("power must be at least 1")
        self.enclosure = enclosure
        self.power = power

    def _powered(self) -> tuple[int, int, int]:
        """Integer bounds ``(low, high, scale)`` of root**power, over ``scale``."""
        enc, p = self.enclosure, self.power
        lo, hi = enc.lo_num, enc.hi_num
        a, b = lo ** p, hi ** p
        m, big = (a, b) if a <= b else (b, a)
        if p % 2 == 0 and lo < 0 < hi:
            m = 0
        return m, big, enc.den ** p << (enc.shift * p)

    def as_bigfloat(self, bits: int) -> BigFloat:
        prec = bits + 2
        enc = self.enclosure
        width = Fraction(1, 1 << prec)
        while True:
            enc.refine_below(width)
            m, big, scale = self._powered()
            if (big - m) << prec <= scale or enc.lo_num == enc.hi_num:
                break
            width /= 2
        return BigFloat(*_round_out_scaled(m, big, scale, prec), prec, source=self)


def refine_root(spec: RootSpec, precision: int) -> BigFloat:
    """Enclose the root of ``spec`` to width at most 2**-precision.

    The result keeps a handle to the bisection, so certified queries may
    tighten it further on demand.  The precision tag can exceed the request
    by a small guard; it is never below it.
    """
    return root_powers(spec, 1, precision)[0]


def root_powers(spec: RootSpec, count: int, precision: int) -> tuple[BigFloat, ...]:
    """(root, root**2, ..., root**count) sharing one bisection cache."""
    check_precision(precision)
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > MAX_POWERS:
        raise ValueError(f"count above the {MAX_POWERS}-power ceiling")
    enc = _RootEnclosure(spec)
    return tuple(_RootPower(enc, j).as_bigfloat(precision) for j in range(1, count + 1))


# certified linear-form evaluation ----------------------------------------


class _Epoch:
    """An evaluator's enclosures from one refinement to the next: the midpoint
    sums ``mids`` (index 0 holds the constant 1 as 2·S), the radii ``rads``
    (None on an exact point), S as ``scale`` and the working ``bits``.  A
    refinement makes a new epoch, so identity tells a stale carried sum.
    """

    __slots__ = ("mids", "rads", "scale", "bits")

    def __init__(self, mids: list[int], rads: list[int] | None, scale: int, bits: int):
        self.mids, self.rads, self.scale, self.bits = mids, rads, scale, bits

    @classmethod
    def exact(cls, scale: int, nums: Sequence[int], bits: int) -> "_Epoch":
        """The epoch of an exact point: the values ``nums`` over ``scale``, no radii."""
        return cls([scale << 1, *(x << 1 for x in nums)], None, scale, bits)

    def dot(self, coeffs: Sequence[int]) -> int:
        """The full midpoint sum of a form: its one big-by-big dot product."""
        return sum(map(mul, coeffs, self.mids))

    def bounds(self, mid: int, coeffs: Sequence[int]) -> tuple[int, int]:
        """A form's bounds times S from its midpoint sum; an exact point reads no coeffs."""
        rads = self.rads
        if rads is None:
            m = mid >> 1
            return m, m
        r = sum(map(mul, map(abs, coeffs), rads))
        return (mid - r) >> 1, (mid + r) >> 1

    def value(self, lo: int, hi: int) -> ExactNumber:
        """What the bounds ``lo`` and ``hi`` times S stand for: a Fraction, or a
        BigFloat rounded outward at the bits."""
        if lo == hi:
            return Fraction(lo, self.scale)
        return BigFloat(*_round_out_scaled(lo, hi, self.scale, self.bits), self.bits)


class _Form:
    """A coefficient tuple with its midpoint sum over one evaluator's enclosures.

    ``mid`` is Σ c_i·(lo_i + hi_i) at the epoch ``tag``.  A form whose tag
    is not the evaluator's current epoch has its sum recomputed on first use.
    """

    __slots__ = ("coeffs", "mid", "tag")

    def __init__(self, coeffs: tuple[int, ...], mid: int, tag: _Epoch):
        self.coeffs = coeffs
        self.mid = mid
        self.tag = tag


Form = Union[Sequence[int], _Form]


class _Packed:
    """A packing of integer columns, with ``_decide``'s four queries on packed ones.

    A packed column is one integer: a value v times 2**K above ``size``
    coefficients c_r as balanced ``bits``-bit digits Σ c_r·2**(bits·r), with
    K = bits·size.  While every |c_r| < 2**(bits - 1), adding
    off = Σ 2**(bits - 1)·2**(bits·r) makes every digit nonnegative and keeps
    them below 2**K, so (P + off) >> K is v and the digits are unique.  A sum
    of packings packs the sum, so ``sub`` and ``addmul`` are integer
    operations, a sign (of v) is two comparisons and a floor one division,
    and none is undecidable.  An exact run packs den·d_t above each column's
    coefficients (``simplex._packed_run``), with no digits (size 0) a packing
    is its value, and a batch window packs its weights with no value.
    """

    __slots__ = ("bits", "size", "shift", "units", "off", "top")

    sub = staticmethod(subtract)

    def __init__(self, size: int, bits: int):
        self.bits, self.size, self.shift = bits, size, bits * size
        # the packings of no value over one unit coefficient each
        self.units = tuple(1 << (bits * r) for r in range(size))
        self.off = sum(self.units) << (bits - 1)
        # the least packing whose value is 1
        self.top = (1 << self.shift) - self.off

    @staticmethod
    def addmul(a: int, c: int, b: int) -> int:
        return a + c * b

    def certified_sign(self, p: int) -> Sign:
        return Sign.POSITIVE if p >= self.top else Sign.NEGATIVE if p < -self.off else Sign.ZERO

    def certified_floor(self, a: int, b: int) -> int:
        off, shift = self.off, self.shift
        return ((a + off) >> shift) // ((b + off) >> shift)

    def pack(self, value: int, coeffs: Sequence[int]) -> int:
        bits = self.bits
        return (value << self.shift) + sum(c << (bits * r) for r, c in enumerate(coeffs))

    def unpack(self, p: int) -> tuple[int, tuple[int, ...]]:
        """A packed column's value and coefficients."""
        bits, x = self.bits, p + self.off
        mask, half = (1 << bits) - 1, 1 << (bits - 1)
        return x >> self.shift, tuple(((x >> (bits * r)) & mask) - half for r in range(self.size))


@functools.cache
def _weight_packing(size: int) -> _Packed:
    """The packing of a window form's weights over ``size`` start columns."""
    return _Packed(size, WEIGHT_BITS)


class _Window:
    """A run's columns at a batch start, cut to the top ``WINDOW_BITS`` bits of
    their bounds, with the evaluator's query methods on small integers.

    A window form is ``(lo, hi, packed, bound)``: bounds over the common scale
    S·2**shift, the form's weights w_t over the start columns packed into one
    integer Σ w_t·2**(WEIGHT_BITS·t) (``_weight_packing``), and a carried
    bound on every |w_t| (1 on a start column).  A start column's bounds are
    the evaluator's, shifted right with ``lo`` rounded down and ``hi`` up;
    ``sub`` and ``addmul`` combine bounds by interval arithmetic, packed
    weights linearly and bounds as ``a + b`` and ``a + |c|·b``.  So a window
    form's bounds contain the evaluator's own for the form Σ w_t·col_t: its
    radius sum is at most Σ |w_t| times the columns' (the triangle
    inequality), and the shift rounds outward.  A sign or floor decided here
    is therefore the one the evaluator would answer at this epoch from its
    first bounds, with no refinement and no exact-zero test.  Any other case
    reads AMBIGUOUS from ``certified_sign``, or raises
    ``PrecisionExhaustedError`` from ``certified_floor``: the window has no
    bits to refine, and leaves the test to the evaluator.  ``sub`` and
    ``addmul`` raise it too where the new bound would pass what a packing
    holds, so a batch ends there as at an undecided test.
    """

    __slots__ = ("start", "epoch")

    def __init__(self, start: Sequence[_Form], epoch: _Epoch):
        self.start, self.epoch = start, epoch

    def sub(self, a: tuple, b: tuple) -> tuple:
        alo, ahi, ap, abound = a
        blo, bhi, bp, bbound = b
        bound = abound + bbound
        if bound > _WEIGHT_LIMIT:
            raise PrecisionExhaustedError("weights outgrow their packing")
        return alo - bhi, ahi - blo, ap - bp, bound

    def addmul(self, a: tuple, c: int, b: tuple) -> tuple:
        alo, ahi, ap, abound = a
        blo, bhi, bp, bbound = b
        if c < 0:
            blo, bhi = bhi, blo
            bound = abound - c * bbound
        else:
            bound = abound + c * bbound
        if bound > _WEIGHT_LIMIT:
            raise PrecisionExhaustedError("weights outgrow their packing")
        return alo + c * blo, ahi + c * bhi, ap + c * bp, bound

    def certified_sign(self, form: tuple) -> Sign:
        lo, hi, _, _ = form
        if lo > 0:
            return Sign.POSITIVE
        if hi < 0:
            return Sign.NEGATIVE
        # [0, 0] contains the evaluator's bounds, so they are 0 too
        return Sign.ZERO if lo == hi else Sign.AMBIGUOUS

    def certified_floor(self, num: tuple, den: tuple) -> int:
        (nlo, nhi, _, _), (dlo, dhi, _, _) = num, den
        if dlo > 0:
            # the evaluator's box lies inside this one: its floors lie between these
            fl = nlo // dhi if nlo >= 0 else nlo // dlo
            fh = nhi // dlo if nhi >= 0 else nhi // dhi
            if fl == fh:
                return fl
        raise PrecisionExhaustedError("floor undecided in the window")

    def columns(self, forms: Sequence[tuple]) -> list[_Form]:
        """The evaluator's forms for window forms: each one's weights decoded
        once and applied to the start columns' coefficients and midpoint sums.
        A start column's packing gives back that column itself."""
        start, ep = self.start, self.epoch
        packing = _weight_packing(len(start))
        known = dict(zip(packing.units, start))
        rows = list(zip(*(col.coeffs + (col.mid,) for col in start)))
        cols = []
        for form in forms:
            col = known.get(form[2])
            if col is None:
                w = packing.unpack(form[2])[1]
                *coeffs, mid = [sum(map(mul, w, row)) for row in rows]
                col = _Form(tuple(coeffs), mid, ep)
            cols.append(col)
        return cols


class FormEvaluator:
    """Certified sign and floor queries for integer linear forms.

    Holds the coordinates of one point; a form ``(c0, c1, ..., cn)`` denotes
    ``c0 + c1*v1 + ... + cn*vn``.  Every coordinate's enclosure is kept as an
    integer pair ``(lo_i, hi_i)`` over one shared scale ``S``, the lcm of the
    rational denominators shifted left by the largest enclosure precision,
    stored as the midpoint sums ``m_i = lo_i + hi_i`` and the radii
    ``r_i = hi_i - lo_i``: together with ``S`` and the working bits, one
    ``_Epoch``, ``epoch``, that only a refinement replaces.  A form's bounds
    times ``S`` are then ``(M - R) / 2`` and ``(M + R) / 2`` with
    ``M = Σ c_i m_i`` and ``R = Σ |c_i| r_i``: exactly the integers of the
    per-coordinate interval dot product, and both halvings are exact.  Signs
    compare those integers with 0 and floors divide them, as ``S`` cancels;
    ``Fraction``s are built only for ``eval_bounds`` and ``materialize``, and
    the epoch alone knows how, so a run's epochs evaluate its history later.

    ``M`` is linear in the coefficients, so forms built with ``units``,
    ``sub`` and ``addmul`` carry it along, and a query on a carried form
    pays only for ``R``, a dot product over small radii; on exact points
    ``R`` is zero and a bound is one shift.  Plain tuples are accepted
    everywhere and pay the full dot product each time.  When a query cannot
    be decided, root-backed coordinates are refined (doubling the working
    bits up to a cap) and the query retried; a carried sum made before that
    rescale is recomputed once, on its next use.  Each evaluator refines its
    own copy of a root's enclosure, shared by that root's powers, so a run
    leaves its input as it found it.  A true zero is recognised exactly when
    all irrational coordinates are powers of one shared root.

    Construction checks the coordinates, copies their enclosures (one copy
    per root, which ``exact_zero`` needs) and finds their scale in one pass,
    and each epoch's sums and radii take one more.
    """

    def __init__(self, values: Sequence, *, cap_bits: int | None = None):
        self.values: list = []
        vals = self.values
        prec, den = 0, 1
        copies: dict[int, _RootEnclosure] = {}
        for v in values:
            if isinstance(v, Fraction):
                den = math.lcm(den, v.denominator)
            elif isinstance(v, BigFloat):
                prec = max(prec, v.prec)
                src = v.source
                if src is not None:
                    enc = copies.get(id(src.enclosure))
                    if enc is None:
                        enc = copies[id(src.enclosure)] = copy(src.enclosure)
                    v = BigFloat(v.lo_num, v.hi_num, v.prec, _RootPower(enc, src.power))
            elif isinstance(v, int):
                v = Fraction(v)
            else:
                raise TypeError(f"coordinates must be int, Fraction or BigFloat, not {type(v).__name__}")
            vals.append(v)
        self.bits = prec or MIN_PRECISION
        if cap_bits is not None:
            if cap_bits > MAX_PRECISION:
                raise ValueError(f"refinement cap above the {MAX_PRECISION}-bit ceiling")
            self.cap = cap_bits
        elif copies:
            self.cap = min(max(4096, REFINE_CAP_FACTOR * self.bits), MAX_PRECISION)
        else:
            self.cap = self.bits
        self.refinements = 0
        self._den = den
        self._rescale(prec)

    def _rescale(self, p: int) -> None:
        """Make the epoch of the current enclosures, on the scale ``den << p``
        for ``p`` their largest precision (0 with none)."""
        den = self._den
        scale = den << p
        lows, rads = [], [0]
        for v in self.values:
            if isinstance(v, BigFloat):
                f = den << (p - v.prec)
                lo = v.lo_num * f
                lows.append(lo)
                rads.append(v.hi_num * f - lo)
            else:
                lows.append(v.numerator * (den // v.denominator) << p)
                rads.append(0)
        if any(rads):
            mids = [scale << 1, *(2 * lo + r for lo, r in zip(lows, rads[1:]))]
            self.epoch = _Epoch(mids, rads, scale, self.bits)
        else:
            # an exact point has no radius sum at all
            self.epoch = _Epoch.exact(scale, lows, self.bits)

    def _rebase(self, form: _Form) -> None:
        """Bring a form made before the last rescale to the current one: its
        full midpoint sum again."""
        ep = self.epoch
        form.mid, form.tag = ep.dot(form.coeffs), ep

    def units(self) -> list[_Form]:
        """The unit forms 1, v1, ..., vn, whose midpoint sums are the epoch's own."""
        ep = self.epoch
        return [_Form(u, m, ep) for u, m in zip(mat_identity(len(ep.mids)), ep.mids)]

    def gap_bounds(self) -> list[int]:
        """The low bounds times S of the domain forms 1 - x_1, x_t - x_{t+1} and
        x_n, read off the epoch (x_{n+1} = 0): the integers ``certified_sign``
        first compares with 0 on ``sub(units[t], units[t + 1])`` and ``units[n]``."""
        ep = self.epoch
        mids = ep.mids
        gaps = map(subtract, mids, [*mids[1:], 0])
        if ep.rads is None:
            return [m >> 1 for m in gaps]
        rads = ep.rads
        return [(m - r) >> 1 for m, r in zip(gaps, map(add, rads, [*rads[1:], 0]))]

    def sub(self, a: _Form, b: _Form) -> _Form:
        """The form a - b, carrying its midpoint sum."""
        ep = self.epoch
        if a.tag is not ep:
            self._rebase(a)
        if b.tag is not ep:
            self._rebase(b)
        return _Form(tuple(map(subtract, a.coeffs, b.coeffs)), a.mid - b.mid, ep)

    def addmul(self, a: _Form, c: int, b: _Form) -> _Form:
        """The form a + c*b, carrying its midpoint sum."""
        ep = self.epoch
        if a.tag is not ep:
            self._rebase(a)
        if b.tag is not ep:
            self._rebase(b)
        coeffs = tuple([x + c * y for x, y in zip(a.coeffs, b.coeffs)])
        return _Form(coeffs, a.mid + c * b.mid, ep)

    def window(self, cols: Sequence[_Form]) -> tuple[_Window, list[tuple]]:
        """A batch window over carried forms, and its forms for them: each form's
        bounds (one radius sum each), cut by one common shift to ``WINDOW_BITS``,
        with its unit packing and a weight bound of 1."""
        bounds = [self._int_bounds(col) for col in cols]
        top = max(max(hi, -lo) for lo, hi in bounds)
        shift = max(top.bit_length() - WINDOW_BITS, 0)
        units = _weight_packing(len(cols)).units
        forms = [(lo >> shift, -(-hi >> shift), u, 1) for (lo, hi), u in zip(bounds, units)]
        return _Window(cols, self.epoch), forms

    def _int_bounds(self, form: Form) -> tuple[int, int]:
        """Bounds of the form times S."""
        ep = self.epoch
        if type(form) is not _Form:
            return ep.bounds(ep.dot(form), form)
        if form.tag is not ep:
            self._rebase(form)
        return ep.bounds(form.mid, form.coeffs)

    def eval_bounds(self, coeffs: Form) -> tuple[Fraction, Fraction]:
        lo, hi = self._int_bounds(coeffs)
        return Fraction(lo, self.epoch.scale), Fraction(hi, self.epoch.scale)

    def materialize(self, coeffs: Form) -> ExactNumber:
        """The form's value at the current enclosures."""
        return self.epoch.value(*self._int_bounds(coeffs))

    def ratio(self, num: Form, den: Form) -> ExactNumber:
        """num/den over the current enclosures, exact when it is; den's must be positive."""
        (nlo, nhi), (dlo, dhi) = self._int_bounds(num), self._int_bounds(den)
        if dlo <= 0:
            raise ValueError("denominator enclosure is not positive")
        # both bounds carry the factor S, which cancels in the ratios
        lo, hi = Fraction(nlo, dhi if nlo >= 0 else dlo), Fraction(nhi, dlo if nhi >= 0 else dhi)
        return lo if lo == hi else BigFloat.from_bounds(lo, hi, self.bits)

    def refine(self) -> bool:
        """Double the working bits up to the cap; False, changing nothing, if no value tightens."""
        if self.bits >= self.cap:
            return False
        new_bits = min(self.cap, self.bits * 2)
        improved = False
        prec = 0
        for i, v in enumerate(self.values):
            if not isinstance(v, BigFloat):
                continue
            # a value already held at new_bits or more comes back as itself
            tighter = v.refined(new_bits)
            if tighter is not None and tighter is not v:
                self.values[i] = v = tighter
                improved = True
            prec = max(prec, v.prec)
        if not improved:
            return False
        self.bits = new_bits
        self.refinements += 1
        self._rescale(prec)
        return True

    def exact_zero(self, coeffs: Sequence[int]) -> bool | None:
        """Exact zero test; None when the coordinate structure cannot support one.

        Over the powers of one root x the form is c + a_1 x + a_2 x**2 + ...,
        c rational; times c's denominator it is one integer polynomial in x."""
        const = Fraction(coeffs[0])
        monomials: dict[int, int] = {}
        enclosure: _RootEnclosure | None = None
        for c, v in zip(coeffs[1:], self.values):
            if c == 0:
                continue
            if isinstance(v, Fraction):
                const += c * v
                continue
            src = v.source
            if src is None:
                return None
            if enclosure is None:
                enclosure = src.enclosure
            elif src.enclosure is not enclosure:
                return None
            monomials[src.power] = monomials.get(src.power, 0) + c
        if enclosure is None:
            return const == 0
        d, top = const.denominator, max(monomials)
        g = IntPolynomial((const.numerator, *(d * monomials.get(p, 0) for p in range(1, top + 1))))
        lo, hi = enclosure.lo, enclosure.hi
        if lo == hi:
            return polynomials.sign_at(g.coeffs, lo) == 0
        return polynomials.vanishes_at_root(g, enclosure.squarefree, lo, hi)

    def certified_sign(self, coeffs: Form) -> Sign:
        """Sign of the form, refining as needed; AMBIGUOUS only when exhausted."""
        zero_checked = False
        while True:
            lo, hi = self._int_bounds(coeffs)
            if lo > 0:
                return Sign.POSITIVE
            if hi < 0:
                return Sign.NEGATIVE
            if lo == hi:
                return Sign.ZERO
            if not zero_checked:
                zero_checked = True
                if self.exact_zero(_coeffs(coeffs)) is True:
                    return Sign.ZERO
            if not self.refine():
                return Sign.AMBIGUOUS

    def certified_floor(self, num: Form, den: Form) -> int:
        """floor(num/den); raises ``ValueError`` on a den certainly not positive,
        ``PrecisionExhaustedError`` when undecidable.

        den's sign is queried only when its bounds do not already show it
        positive: the engine's den is the last remainder, just certified so.
        Its bounds are read once per precision.
        """
        tested: tuple[int, ...] = ()
        while True:
            dlo, dhi = self._int_bounds(den)
            if dlo <= 0:
                # first round only, as refining keeps positive bounds positive
                sign = self.certified_sign(den)
                if sign is Sign.AMBIGUOUS:
                    raise PrecisionExhaustedError("denominator form is not certainly positive")
                if sign is not Sign.POSITIVE:
                    raise ValueError("denominator form is not positive")
                continue  # its sign refined: read the new bounds
            # both bounds carry the factor S, which cancels in the ratios
            nlo, nhi = self._int_bounds(num)
            fl = nlo // dhi if nlo >= 0 else nlo // dlo
            fh = nhi // dlo if nhi >= 0 else nhi // dhi
            if fl == fh:
                return fl
            # a ratio exactly equal to an integer m keeps the enclosure
            # straddling m forever; recognise that case exactly
            if fh == fl + 1 and fh not in tested:
                tested += (fh,)
                boundary = tuple(a - fh * b for a, b in zip(_coeffs(num), _coeffs(den)))
                if self.exact_zero(boundary) is True:
                    return fh
            if not self.refine():
                raise PrecisionExhaustedError("floor undecidable at the precision cap")


def _coeffs(form: Form) -> Sequence[int]:
    return form.coeffs if type(form) is _Form else form
