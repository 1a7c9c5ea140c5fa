"""Independent reference computations that the benchmark checks outputs against.

Nothing here imports ``trianglemap``.  Every routine works on plain integers
(remainders scaled by a common denominator, or dyadic numerators over a power
of two) and is written from the definitions of the maps, not from the
package's code:

* ``euclid`` is the Euclidean algorithm, i.e. the continued fraction (n = 1);
* ``triangle_run`` is the remainder recursion d_j = d_{j-3} - d_{j-2} - a_j d_{j-1}
  with a_j the wedge index (n = 2);
* ``simplex_run`` applies the region rules of the n-simplex (fan index from the
  floor of the slack, pair (i, j) from the first crossing and the window) to
  integer remainders (n >= 3, and it reproduces the n = 1, 2 cases too);
* ``root_bracket`` and ``power_brackets`` enclose the positive root r of the
  period-one polynomial by bisection and its powers r**j by outward-rounded
  integer products, for checking the identity d_j = r**j of period-one runs.

A symbol is an ``int`` for a fan region and a pair ``(i, j)`` for a pair region.
"""

from __future__ import annotations

from fractions import Fraction


def euclid(p: int, q: int) -> tuple[list[int], list[int]]:
    """Continued fraction of p/q in (0, 1]: partial quotients and remainders.

    The remainders are scaled by q, so they start at p and end at 0.
    """
    if not 0 < p <= q:
        raise ValueError("need 0 < p <= q")
    a, b = q, p
    quotients: list[int] = []
    remainders = [p]
    while b:
        quotients.append(a // b)
        a, b = b, a % b
        remainders.append(b)
    return quotients, remainders


def triangle_run(d0: int, d1: int, d2: int) -> tuple[list[int], list[int]]:
    """Symbols and all remainders of the planar map from integer seeds.

    The seeds stand for (1, alpha, beta) scaled by a common denominator d0.
    """
    if not d0 >= d1 >= d2 > 0:
        raise ValueError("need d0 >= d1 >= d2 > 0")
    d = [d0, d1, d2]
    symbols: list[int] = []
    while d[-1]:
        a = (d[-3] - d[-2]) // d[-1]
        symbols.append(a)
        d.append(d[-3] - d[-2] - a * d[-1])
    return symbols, d


def region_step(d: list[int]) -> tuple[object, list[int]]:
    """One step of the simplex map on integer remainders (d_0, ..., d_n).

    With q_t = d_0 - d_1 - ... - d_t, the slack is q_{n-1}.  A nonnegative
    slack selects the fan region k = floor(q_{n-1} / d_n) and appends the new
    remainder q_{n-1} - k d_n.  A negative slack selects the pair region
    (i, j): i is the first index with q_{i+1} <= 0, and j is the window
    d_j >= q_i > d_{j+1} (closed against d_{n+1} = 0); q_i is inserted after
    d_j, which keeps the remainders in decreasing order.
    """
    n = len(d) - 1
    q = [d[0]]
    for t in range(1, n + 1):
        q.append(q[-1] - d[t])
    slack = q[n - 1]
    if slack >= 0:
        k = slack // d[n]
        return k, d[1:] + [slack - k * d[n]]
    i = next(t for t in range(1, n) if q[t + 1] <= 0)
    j = next(t for t in range(i + 1, n + 1) if t == n or q[i] > d[t + 1])
    return (i, j), d[1:j + 1] + [q[i]] + d[j + 1:]


def simplex_run(d: list[int]) -> tuple[list[object], list[tuple[int, ...]]]:
    """Symbols and every remainder row of a rational point, run to termination.

    ``d`` is (q, p_1, ..., p_n) for the point (p_1/q, ..., p_n/q).
    """
    n = len(d) - 1
    if not (d[0] >= d[1] and all(d[t] >= d[t + 1] for t in range(1, n)) and d[n] > 0):
        raise ValueError("need q >= p_1 >= ... >= p_n > 0")
    rows = [tuple(d)]
    symbols: list[object] = []
    while d[n]:
        sym, d = region_step(list(d))
        symbols.append(sym)
        rows.append(tuple(d))
    return symbols, rows


def determinant(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    size = len(a)
    det = Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, size):
            f = a[r][c] / a[c][c]
            if f:
                for t in range(c, size):
                    a[r][t] -= f * a[c][t]
    return det


def row_times(vec, rows) -> list:
    """Row vector times matrix."""
    return [sum(v * row[j] for v, row in zip(vec, rows)) for j in range(len(rows[0]))]


def period_one_coeffs(n: int, k: int) -> list[int]:
    """x**(n+1) + k x**n + x**(n-1) + ... + x - 1, constant term first.

    Its positive root r gives the point (r, ..., r**n) whose symbols are all k:
    1 - r - ... - r**(n-1) - k r**n = r**(n+1) is the remainder recursion.
    """
    return [-1] + [1] * (n - 1) + [k, 1]


def root_bracket(coeffs: list[int], bits: int) -> tuple[int, int]:
    """(lo, hi) with lo/2**bits < r < hi/2**bits and hi - lo = 1, by bisection.

    ``coeffs`` (constant first) must be negative at 0 and positive at 1, with
    one root between; the sign at m/2**bits comes from homogenised Horner.
    """
    deg = len(coeffs) - 1
    scales = [1 << (bits * (deg - t)) for t in range(deg + 1)]

    def positive_at(m: int) -> bool:
        acc = coeffs[deg]
        for t in range(deg - 1, -1, -1):
            acc = acc * m + coeffs[t] * scales[t]
        if acc == 0:
            raise ValueError("bisection landed on a rational root")
        return acc > 0

    if coeffs[0] >= 0 or sum(coeffs) <= 0:
        raise ValueError("polynomial must go from negative at 0 to positive at 1")
    lo, hi = 0, 1 << bits
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if positive_at(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def power_brackets(lo: int, hi: int, bits: int, count: int) -> list[tuple[int, int]]:
    """Outward-rounded (lo_j, hi_j) over 2**bits enclosing r**j for j < count."""
    one = 1 << bits
    out = [(one, one)]
    plo, phi = one, one
    for _ in range(1, count):
        plo = (plo * lo) >> bits
        phi = -((-(phi * hi)) >> bits)
        out.append((plo, phi))
    return out


def encloses(lo_num: int, hi_num: int, prec: int, bracket: tuple[int, int], bits: int) -> bool:
    """True when [lo_num, hi_num]/2**prec contains the bracket over 2**bits."""
    blo, bhi = bracket
    return (lo_num << bits) <= (blo << prec) and (bhi << prec) <= (hi_num << bits)
