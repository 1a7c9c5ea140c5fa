"""Integer matrices of the subdivision sequences in every dimension.

A matrix is a tuple of integer rows; the ``mat_*`` helpers do the exact
arithmetic (products, Bareiss determinants, unimodular inverses, row action)
for any size.  A step matrix is the engine's push applied to the identity
(``mat_step``): drop column 0, keep columns 1..j and insert the new
remainder's form at slot j, which for the nonnegative symbol k in
dimension n is (1, -1, ..., -1, -k) at the end; at n = 2 that is

    [ 0  0   1 ]
    [ 1  0  -1 ]
    [ 0  1  -k ]

with determinant one.  The running product after k steps has columns
(C_{k-2}, C_{k-1}, C_k) satisfying the same three-term recursion as the
remainders: row-vector times matrix sends (1, alpha, beta) to
(d_{k-2}, d_{k-1}, d_k).  ``IntMatrix`` is the 3x3 view of the planar map
used by its records.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from operator import mul
from typing import Iterable, Sequence

from .errors import InconsistentInputError, NotYetConvergedError

Column = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]
Row = tuple[int, int, int]


# helpers for integer matrices of any size ------------------------------------


@cache
def mat_identity(size: int) -> Matrix:
    """The identity of one size, made once; its rows are the unit coefficient tuples."""
    return tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size))


def mat_mul(a: Sequence[Sequence], b: Matrix) -> tuple:
    """Each row of ``a``, any number of them, times ``b``; entries of ``a`` may
    be any exact number kind."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_from_columns(cols: Sequence[Column]) -> Matrix:
    return tuple(zip(*cols))


def mat_product(factors: Iterable[Matrix], size: int) -> Matrix:
    """The running product of ``factors`` in order, from the identity."""
    return reduce(mat_mul, factors, mat_identity(size))


def mat_det(m: Matrix) -> int:
    """Bareiss fraction-free elimination; exact for integer matrices."""
    a = [list(row) for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def mat_minor_det(m: Matrix, drop_row: int, drop_col: int) -> int:
    sub = tuple(
        tuple(x for j, x in enumerate(row) if j != drop_col)
        for i, row in enumerate(m)
        if i != drop_row
    )
    if not sub:
        return 1
    return mat_det(sub)


def mat_inverse_unimodular(m: Matrix) -> Matrix:
    d = mat_det(m)
    if d not in (1, -1):
        raise InconsistentInputError(f"matrix determinant {d} is not a unit")
    size = len(m)
    return tuple(
        tuple(d * (-1) ** (i + j) * mat_minor_det(m, j, i) for j in range(size))
        for i in range(size)
    )


def push_column(cols: Sequence, j: int, inserted) -> tuple:
    """The engine's push: drop column 0, keep columns 1..j and put ``inserted`` at slot j."""
    return (*cols[1:j + 1], inserted, *cols[j + 1:])


def mat_step(j: int, inserted: Column) -> Matrix:
    """The step matrix whose columns are the push applied to the identity's."""
    return mat_from_columns(push_column(mat_identity(len(inserted)), j, inserted))


def nonneg_column(k: int, n: int) -> Column:
    """The inserted column of the nonnegative symbol k over n + 1 columns: (1, -1, ..., -1, -k)."""
    if k < 0:
        raise ValueError("nonnegative symbol index must be >= 0")
    return (1,) + (-1,) * (n - 1) + (-k,)


def mat_step_nonneg(k: int, n: int) -> Matrix:
    """The (n+1)x(n+1) step matrix of the nonnegative symbol k."""
    return mat_step(n, nonneg_column(k, n))


# the 3x3 view of the planar map ----------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    rows: tuple[Row, Row, Row]

    @classmethod
    def identity(cls) -> "IntMatrix":
        return cls(mat_identity(3))

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(mat_from_columns(cols))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(mat_mul(self.rows, other.rows))

    def det(self) -> int:
        return mat_det(self.rows)

    def inverse(self) -> "IntMatrix":
        """Exact integer inverse; requires determinant +-1."""
        return IntMatrix(mat_inverse_unimodular(self.rows))

    def apply_row(self, vec: Sequence) -> tuple:
        """Row vector times matrix; entries may be any exact number kind."""
        return mat_mul((vec,), self.rows)[0]


def step_matrix(k: int) -> IntMatrix:
    return IntMatrix(mat_step_nonneg(k, 2))


def product_matrix(symbols: Iterable[int]) -> IntMatrix:
    return IntMatrix(mat_product((mat_step_nonneg(k, 2) for k in symbols), 3))


def fundamental_identity_check(alpha, beta, symbols: Sequence[int]) -> bool:
    """Verify the remainder recursion against the matrix route, step by step.

    Runs the three-term recursion d_k = d_{k-3} - d_{k-2} - a_k d_{k-1} on
    the integer forms of the remainders (coefficient triples over
    (1, alpha, beta), seeded with the unit rows) and requires every partial
    product to have determinant one and columns equal to the last three
    forms.  Equal forms give equal remainders at every point, so the check is
    exact for rational and enclosed inputs alike; alpha and beta stay in the
    public signature but do not enter it.
    """
    forms = list(mat_identity(3))
    m = mat_identity(3)
    for k in symbols:
        forms.append(tuple(a - b - k * c for a, b, c in zip(*forms[-3:])))
        m = mat_mul(m, mat_step_nonneg(k, 2))
        if mat_det(m) != 1 or m != mat_from_columns(forms[-3:]):
            return False
    return True


# recovering the start of a run -----------------------------------------------


def recover_nd(matrix: Matrix) -> tuple[Fraction, ...]:
    """Estimate the starting coordinates from an accumulated matrix.

    The direction orthogonal to all but the leading column is the vector of
    signed first-column minors; normalising by the top entry gives estimates
    for (x_1, ..., x_n).  A zero top minor means not enough contraction yet.
    """
    size = len(matrix)
    minors = [(-1) ** r * mat_minor_det(matrix, r, 0) for r in range(size)]
    if minors[0] == 0:
        raise NotYetConvergedError("leading minor is zero")
    return tuple(Fraction(minors[r], minors[0]) for r in range(1, size))


def recover_pair(m: IntMatrix) -> tuple[Fraction, Fraction]:
    """Estimate the starting pair of a planar run; ``recover_nd`` at n = 2."""
    return recover_nd(m.rows)


def recover_terminated(m: IntMatrix | Matrix, *leading: Fraction) -> tuple[Fraction, ...]:
    """Exact recovery for a terminated run from its final matrix and remainders.

    ``leading`` holds the final remainders of every column but the last, which
    is zero on termination (d_{k-2}, d_{k-1} for the planar map).  The row
    (leading..., 0) times the integer inverse of the accumulated matrix
    returns (1, x_1, ..., x_n).
    """
    rows = m.rows if isinstance(m, IntMatrix) else m
    if len(leading) != len(rows) - 1:
        raise ValueError(f"need {len(rows) - 1} remainders for a {len(rows)}x{len(rows)} matrix")
    row = mat_mul(((*map(Fraction, leading), Fraction(0)),), mat_inverse_unimodular(rows))[0]
    if row[0] != 1:
        raise InconsistentInputError("remainders are inconsistent with the matrix")
    return row[1:]
