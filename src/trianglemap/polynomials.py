"""Integer polynomials in one variable.

Coefficients are stored constant term first, so ``IntPolynomial((-1, 1, 1, 1))``
is x^3 + x^2 + x - 1.  The text form used by the command line mirrors the
storage order: ``"-1,1,1,1"``.

``gcd``, ``divides``, ``count_roots`` and ``vanishes_at_root`` answer over
the rationals but compute on integers only.  Their remainders are integer
pseudo-remainders with the positive content divided out (a primitive
remainder sequence, Collins 1967): each is a positive multiple of the
rational remainder, so it has the same roots, the same vanishing and the
same signs, and a Sturm chain built from them counts the same sign changes.
Signs at a rational point ``a/b`` come from ``b**d * f(a/b)``, evaluated by
homogenised Horner.  ``exact_quotient`` divides on integers too, and only
``interpolate`` builds ``Fraction``s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateInputError


def _strip(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


@dataclass(frozen=True)
class IntPolynomial:
    """Immutable integer polynomial, constant coefficient first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            object.__setattr__(self, "coeffs", (0,))
        else:
            if not all(isinstance(c, int) for c in self.coeffs):
                raise TypeError("coefficients must be ints")
            object.__setattr__(self, "coeffs", _strip(tuple(self.coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def evaluate(self, x):
        """Horner evaluation; works for any value kind with * and +."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial((0,))
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def scale(self, c: int) -> "IntPolynomial":
        return IntPolynomial(tuple(c * a for a in self.coeffs))

    def content(self) -> int:
        return math.gcd(*self.coeffs) if len(self.coeffs) > 1 else abs(self.coeffs[0])

    def primitive(self) -> "IntPolynomial":
        """Divide out the content; leading coefficient made positive."""
        c = self.content()
        if c == 0:
            return IntPolynomial((0,))
        if self.leading < 0:
            c = -c
        return IntPolynomial(tuple(a // c for a in self.coeffs))

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    @classmethod
    def from_text(cls, text: str) -> "IntPolynomial":
        try:
            return cls(tuple(int(part.strip()) for part in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"bad polynomial text {text!r}") from exc

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs!r})"


def divides(den: IntPolynomial, num: IntPolynomial) -> bool:
    """True when den divides num exactly over the rationals."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    return _prem(num.coeffs, den.coeffs) == [0]


def exact_quotient(num: IntPolynomial, den: IntPolynomial) -> IntPolynomial:
    """num / den made primitive, dividing by den's primitive part so that (Gauss's
    lemma) each long-division step of an exact division is an exact ``divmod``."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    y = den.primitive().coeffs
    dd, lead = len(y) - 1, y[-1]
    r, quo = list(num.coeffs), []
    for i in range(len(r) - 1, dd - 1, -1):
        q, m = divmod(r.pop(), lead)
        if m:
            raise ValueError("division is not exact")
        quo.append(q)
        for j in range(dd):
            r[i - dd + j] -= q * y[j]
    if any(r):
        raise ValueError("division is not exact")
    return IntPolynomial(tuple(reversed(quo))).primitive()


def interpolate(points: Sequence[tuple[int, int]]) -> IntPolynomial:
    """The polynomial of degree below ``len(points)`` through distinct (x, y) pairs.

    Newton divided differences over the rationals, expanded by Horner's rule;
    raises ``ValueError`` unless every coefficient is an integer.
    """
    xs = [x for x, _ in points]
    coef = [Fraction(y) for _, y in points]
    for j in range(1, len(coef)):
        for i in range(len(coef) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    out = coef[-1:]
    for i in range(len(coef) - 2, -1, -1):
        out = [Fraction(0)] + out
        for t in range(len(out) - 1):
            out[t] -= xs[i] * out[t + 1]
        out[0] += coef[i]
    if any(c.denominator != 1 for c in out):
        raise ValueError("interpolated polynomial has non-integer coefficients")
    return IntPolynomial(tuple(int(c) for c in out))


def _prem(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """The remainder of x by a trimmed nonzero y, both constant first, as a
    trimmed primitive integer list that is a positive multiple of the
    remainder over the rationals.

    Each elimination step multiplies the partial remainder by |lc(y)| and
    subtracts an integer multiple of y, so the factor stays positive;
    dividing out the content at the end keeps the coefficients small.
    """
    dd = len(y) - 1
    lead = y[-1]
    scale, flip = abs(lead), lead < 0
    r = list(x)
    for i in range(len(r) - 1, dd - 1, -1):
        c = r.pop()
        if c:
            off = i - dd
            if flip:
                c = -c
            if scale != 1:
                r = [scale * v for v in r]
            for j in range(dd):
                r[off + j] -= c * y[j]
    while r and r[-1] == 0:
        r.pop()
    if not r:
        return [0]
    g = math.gcd(*r)
    return [v // g for v in r] if g > 1 else r


def sign_at(f: Sequence[int], x: Fraction | int) -> int:
    """The sign of f at x, from the integer b**deg(f) * f(a/b) for x = a/b."""
    a, b = x.numerator, x.denominator
    acc, power = f[-1], 1
    for i in range(len(f) - 2, -1, -1):
        power *= b
        acc = acc * a + f[i] * power
    return (acc > 0) - (acc < 0)


def gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Polynomial gcd over the rationals, returned primitive with positive lead."""
    if a.is_zero:
        return b.primitive()
    if b.is_zero:
        return a.primitive()
    x, y = list(a.coeffs), list(b.coeffs)
    while y != [0]:
        x, y = y, _prem(x, y)
    return IntPolynomial(tuple(x)).primitive()


def count_roots(p: IntPolynomial, low: Fraction, high: Fraction) -> int:
    """Distinct real roots of p in the open interval (low, high), by Sturm's theorem.

    Neither endpoint may be a root of p.  The chain p, p', -rem(p, p'), ...
    ends at gcd(p, p'), which does not vanish at the endpoints either, so the
    drop in sign changes from low to high counts distinct roots even when p
    has repeated factors.  The chain's members are positive multiples of
    the rational ones, so they count the same changes.
    """
    chain = [list(p.coeffs), list(p.derivative().coeffs)]
    while chain[-1] != [0]:
        chain.append([-c for c in _prem(chain[-2], chain[-1])])
    chain.pop()

    def changes(x: Fraction) -> int:
        signs = [s for s in (sign_at(f, x) for f in chain) if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return changes(low) - changes(high)


def vanishes_at_root(g: IntPolynomial, p: IntPolynomial, low: Fraction, high: Fraction) -> bool:
    """Whether g vanishes at the one root of the squarefree p isolated in (low, high).

    That root is a zero of g exactly when it is a root of h = gcd(p, g), and
    h, a factor of p, has no other root in the interval; with neither
    endpoint a root, h changes sign across the interval exactly then.
    """
    if sign_at(p.coeffs, low) == 0 or sign_at(p.coeffs, high) == 0:
        raise DegenerateInputError("isolating interval endpoint is a root")
    if g.is_zero:
        return True
    h = gcd(p, g).coeffs
    return len(h) > 1 and sign_at(h, low) != sign_at(h, high)


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p with repeated factors reduced to multiplicity one (same root set)."""
    if p.degree <= 1:
        return p.primitive()
    g = gcd(p, p.derivative())
    if g.degree == 0:
        return p.primitive()
    return exact_quotient(p, g)
