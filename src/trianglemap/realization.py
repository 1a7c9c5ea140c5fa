"""Exact cylinder regions: which starting points produce a given symbol prefix.

The map restricted to wedge k is a projective bijection onto the whole
triangle, so the points whose run starts with a prefix form a triangle: the
image of the domain under the inverse of the prefix's product matrix, built
in one step by ``simplex.cylinder_vertices``.  All vertices are exact
rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateInputError
from .matrices import mat_inverse_unimodular, mat_mul, mat_step_nonneg
from .simplex import NonNegSymbol, cylinder_vertices

Pt = tuple[Fraction, Fraction]

#: The closed domain triangle 1 >= x >= y >= 0.
DOMAIN_VERTICES: tuple[Pt, Pt, Pt] = (
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(1)),
)


def _cross(o: Pt, a: Pt, b: Pt) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class TriangleRegion:
    vertices: tuple[Pt, Pt, Pt]

    def orientation(self) -> Fraction:
        a, b, c = self.vertices
        return _cross(a, b, c)

    def centroid(self) -> Pt:
        xs = sum(v[0] for v in self.vertices)
        ys = sum(v[1] for v in self.vertices)
        return xs / 3, ys / 3

    def contains(self, point: Pt, *, strict: bool = False) -> bool:
        """Exact membership; strict=True excludes the boundary."""
        x, y = Fraction(point[0]), Fraction(point[1])
        a, b, c = self.vertices
        orient = self.orientation()
        if orient == 0:
            raise DegenerateInputError("region is degenerate")
        signs = [_cross(a, b, (x, y)), _cross(b, c, (x, y)), _cross(c, a, (x, y))]
        if orient < 0:
            signs = [-s for s in signs]
        if strict:
            return all(s > 0 for s in signs)
        return all(s >= 0 for s in signs)

    def contains_region(self, other: "TriangleRegion", *, strict: bool = False) -> bool:
        return all(self.contains(v, strict=strict) for v in other.vertices)

    def diameter_sq(self) -> Fraction:
        a, b, c = self.vertices
        pairs = ((a, b), (b, c), (a, c))
        return max((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for p, q in pairs)


def preimage_region(k: int, region: TriangleRegion) -> TriangleRegion:
    """The triangle in wedge k that the map sends onto ``region``: each
    homogeneous vertex (1, x, y) times the integer inverse of k's step matrix.

    A vertex with 1 + k*x + y = 0 has no finite preimage and raises
    ``DegenerateInputError``."""
    inv = mat_inverse_unimodular(mat_step_nonneg(k, 2))
    rows = mat_mul([(1, Fraction(x), Fraction(y)) for x, y in region.vertices], inv)
    if any(h == 0 for h, _, _ in rows):
        raise DegenerateInputError(f"a vertex of the region has no finite preimage in wedge {k}")
    return TriangleRegion(tuple((u / h, v / h) for h, u, v in rows))


def realize(symbols: Sequence[int]) -> TriangleRegion:
    """The closed set of starting points whose run begins with these symbols.

    Vertex l is the preimage of domain vertex l (``DOMAIN_VERTICES``); an
    empty prefix realizes the domain itself.
    """
    symbols = list(symbols)
    for k in symbols:
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise DegenerateInputError(f"bad symbol {k!r}")
    return TriangleRegion(cylinder_vertices([NonNegSymbol(k) for k in symbols], 2))


def witness(symbols: Sequence[int]) -> Pt:
    """An exact interior rational point realizing the prefix: the centroid."""
    return realize(symbols).centroid()
