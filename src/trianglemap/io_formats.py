"""Text forms for points, polynomials, symbols, and matrices.

Point text accepted everywhere a point is an input:

* ``"1/2,1/3"`` exact rationals, one per coordinate (plain decimals work too);
* ``"dec:0.54,0.29:256"`` decimal coordinates enclosed at the given bits;
* ``"root:-1,1,1,1:0,1:pow2"`` powers (r, r**2, ..., r**N) of the root of the
  polynomial (constant coefficient first) isolated in the open interval.

Polynomial text is the comma-separated coefficient list, constant first, so
``"-1,1,1,1"`` is x**3 + x**2 + x - 1.  Symbol streams mix integers and pairs
like ``"3,(1,2),0"``; dimension two takes integers only.  Whitespace may sit
around any token but never between two digits.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import DegenerateInputError
from .numeric import MAX_PRECISION, BigFloat, ExactNumber, RootSpec, root_powers
from .polynomials import IntPolynomial
from .simplex import NonNegSymbol, PairSymbol, SymbolND


#: Largest decimal exponent magnitude in point text.  10**315652 is about
#: 2**MAX_PRECISION, so no enclosure can resolve a larger one, and the exact
#: arithmetic on its power of ten would run without bound.
MAX_DECIMAL_EXPONENT = int(MAX_PRECISION * math.log10(2))

_EXPONENT = re.compile(r"[eE][+-]?([\d_]+)\s*\Z")


def parse_fraction(text: str) -> Fraction:
    """An exact rational from its text; exponents past the ceiling are refused unread."""
    exp = _EXPONENT.search(text)
    if exp:
        digits = exp.group(1).replace("_", "").lstrip("0")
        # compare lengths first: int() refuses very long digit strings by default
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise DegenerateInputError(f"decimal exponent of {text.strip()!r} is beyond "
                                       f"the {MAX_DECIMAL_EXPONENT} ceiling")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DegenerateInputError(f"bad rational {text!r}") from exc


def format_exact(value: ExactNumber) -> object:
    """JSON-ready form: exact rationals as strings, enclosures as objects."""
    if isinstance(value, BigFloat):
        lo, hi = value.bounds()
        return {"lo": str(lo), "hi": str(hi), "bits": value.prec}
    return str(value)


def parse_root_spec(poly_text: str, interval_text: str) -> RootSpec:
    poly = IntPolynomial.from_text(poly_text)
    parts = interval_text.split(",")
    if len(parts) != 2:
        raise DegenerateInputError(f"bad interval {interval_text!r}")
    return RootSpec(poly, parse_fraction(parts[0]), parse_fraction(parts[1]))


def parse_point(text: str, precision: int) -> tuple[ExactNumber, ...]:
    """The coordinates of a point in any of the three text forms above."""
    text = text.strip()
    if text.startswith("root:"):
        body = text[len("root:"):]
        pieces = body.rsplit(":", 2)
        if len(pieces) != 3:
            raise DegenerateInputError(f"bad root point {text!r}")
        poly_text, interval_text, pow_text = pieces
        m = re.fullmatch(r"pow(\d+)", pow_text.strip())
        if not m:
            raise DegenerateInputError(f"bad power suffix {pow_text!r}")
        count = int(m.group(1))
        spec = parse_root_spec(poly_text, interval_text)
        return root_powers(spec, count, precision)
    if text.startswith("dec:"):
        body = text[len("dec:"):]
        values_text, _, bits_text = body.rpartition(":")
        if not values_text:
            raise DegenerateInputError(f"bad decimal point {text!r}")
        try:
            bits = int(bits_text)
        except ValueError as exc:
            raise DegenerateInputError(f"bad precision {bits_text!r}") from exc
        return tuple(BigFloat.from_fraction(parse_fraction(part), bits)
                     for part in values_text.split(","))
    return tuple(parse_fraction(part) for part in text.split(","))


# commas and whitespace separate tokens; a number never runs on past
# whitespace into further digits, so "3 4" is an error, not 34
_SEPARATORS = re.compile(r"[\s,]*")
_ND_TOKEN = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)|(\d+)(?!\s*\d)")


def parse_symbols_nd(text: str) -> tuple[SymbolND, ...]:
    out: list[SymbolND] = []
    pos = _SEPARATORS.match(text).end()
    while pos < len(text):
        m = _ND_TOKEN.match(text, pos)
        if not m:
            raise DegenerateInputError(f"bad symbol stream near {text[pos:]!r}")
        i, j, k = m.groups()
        out.append(NonNegSymbol(int(k)) if k is not None else PairSymbol(int(i), int(j)))
        pos = _SEPARATORS.match(text, m.end()).end()
    return tuple(out)


def parse_symbols_2d(text: str) -> tuple[int, ...]:
    """A planar stream: ``parse_symbols_nd`` without pair symbols."""
    symbols = parse_symbols_nd(text)
    for s in symbols:
        if isinstance(s, PairSymbol):
            raise DegenerateInputError(f"pair symbol {s} needs dimension 3 or more")
    return tuple(s.k for s in symbols)


def format_matrix(rows) -> list[str]:
    """Row-major flattening to decimal integer strings."""
    return [str(x) for row in rows for x in row]


def format_point(coords) -> str:
    """Comma-joined exact rational coordinates (not for enclosure values)."""
    return ",".join(str(Fraction(c)) for c in coords)
