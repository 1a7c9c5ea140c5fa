"""The 2D subdivision map, its symbol sequences, and the classical comparison.

Points live in the closed triangle 1 >= alpha >= beta > 0 (the lower edge
beta = 0 is tolerated by ``sequence``, which then terminates immediately).
The map splits the triangle into wedges indexed by k = floor((1-alpha)/beta)
and sends a point of wedge k to (beta/alpha, (1-alpha-k*beta)/alpha).

Sequences are computed without iterating the map itself: they run the
simplex engine at n = 2 (``sequence``) and n = 1 (``gauss_sequence``), which
keeps integer lattice columns whose dot products with (1, alpha, beta) are
the current remainders.  All branch decisions are certified sign and floor
queries on those integer forms, so the only rounding error in play is the
width of the input enclosures times an integer norm; root-backed inputs
refine themselves on demand when a decision would otherwise be ambiguous.
The domain check and the choice between a point's integers and its
evaluator are the simplex ones (``simplex._start``), over the names (alpha,
beta) and (x,): an exact point classifies, steps and runs on its integers.
This module keeps the planar points and records.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import IntMatrix
from .numeric import (
    ExactNumber,
    RootSpec,
    SequenceStatus,
    TERMINATED,
    root_powers,
)
from . import simplex
from .simplex import _BuiltOnRead, _classify, _run, _start

_PLANAR = ("alpha", "beta")


@dataclass(frozen=True)
class Point2:
    alpha: ExactNumber
    beta: ExactNumber

    @classmethod
    def from_root(cls, spec: RootSpec, precision: int) -> "Point2":
        """The pair (r, r**2) for the root r described by spec.

        Both coordinates share one bisection cache, so certified queries
        refine them together.
        """
        a, b = root_powers(spec, 2, precision)
        return cls(a, b)


@dataclass(frozen=True)
class SequenceRecord:
    symbols: tuple[int, ...]
    d_history: tuple[ExactNumber, ...] = _BuiltOnRead()
    status: SequenceStatus
    matrix: IntMatrix
    refinements: int
    precision_bits: int

    @property
    def terminated(self) -> bool:
        return self.status is TERMINATED


def classify(point: Point2, *, cap_bits: int | None = None) -> int:
    """The wedge index k with 1 - alpha - k*beta >= 0 > 1 - alpha - (k+1)*beta."""
    return _classify((point.alpha, point.beta), cap_bits, _PLANAR).k


def step(point: Point2, *, cap_bits: int | None = None) -> tuple[int, Point2]:
    """One application of the map: the wedge symbol and the image point."""
    ops, cols = _start((point.alpha, point.beta), cap_bits, _PLANAR)
    symbol, inserted = simplex._decide(ops, cols)
    # divide on the queries that decided: an evaluator may have refined, and
    # the domain check certified alpha > 0
    _, alpha, beta = cols
    return symbol.k, Point2(ops.ratio(beta, alpha), ops.ratio(inserted, alpha))


def sequence(point: Point2, max_len: int, *, cap_bits: int | None = None) -> SequenceRecord:
    """Certified symbol sequence with remainder history and column matrix.

    Remainders follow d_j = d_{j-3} - d_{j-2} - a_j * d_{j-1} from seeds
    (1, alpha, beta); the run terminates when a remainder hits exact zero
    (rational or algebraically detected), truncates at max_len, or reports
    precision exhaustion when a branch cannot be certified and the inputs
    cannot refine.
    """
    symbols, history, status, matrix, refinements, bits = _run(
        (point.alpha, point.beta), max_len, cap_bits, _PLANAR, lead=3, allow_zero_last=True)
    return SequenceRecord(symbols, history, status, IntMatrix(matrix), refinements, bits)


@dataclass(frozen=True)
class GaussRecord:
    quotients: tuple[int, ...]
    remainders: tuple[ExactNumber, ...] = _BuiltOnRead()
    status: SequenceStatus


def gauss_sequence(x: ExactNumber, max_len: int, *, cap_bits: int | None = None) -> GaussRecord:
    """Classical continued fraction of x in (0, 1], for comparison runs.

    This is the simplex engine at n = 1: its two columns are the integer
    forms of the previous and the current remainder, so the certified
    machinery (and on-demand refinement for root-backed input) applies
    exactly as in the 2D map.
    """
    return GaussRecord(*_run((x,), max_len, cap_bits, ("x",), lead=1)[:3])
