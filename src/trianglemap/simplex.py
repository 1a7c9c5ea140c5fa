"""The subdivision map on the ordered simplex in any dimension.

Points live in ``1 >= x_1 >= x_2 >= ... >= x_n > 0``.  One chain
``q_t = 1 - x_1 - ... - x_t`` decides each step; its entry ``q_{n-1}`` is the
slack after all but the last coordinate.  The simplex splits into

* nonnegative-slack regions indexed by k >= 0 where
  ``q_{n-1} - k*x_n >= 0 > q_{n-1} - (k+1)*x_n`` (slack = 0 is here), and
* pair regions indexed by (i, j) where ``q_{n-1} < 0``, the crossing i is the
  first index with ``q_{i+1} <= 0`` (so ``q_i > 0``, or ``q_1 = 0`` at i = 1),
  and the window j is the one with ``x_j >= q_i > x_{j+1}``, closed at
  ``x_{n+1} = 0`` (j = n when ``x_n >= q_i >= 0``).

At n = 2 the slack ``q_1 = 1 - x_1`` is never negative, so only the
nonnegative family fires and the scheme reduces to the 2D wedges; at n = 1 it
reduces to the classical continued-fraction step.  The engine keeps n+1 exact
integer columns whose dot products with (1, x_1, ..., x_n) are the remainder
values.  A step asks only the certified sign and floor queries that define
its branch, refining root-backed inputs on demand; ``precision-exhausted``
means one of those was undecidable.  Between refinements the steps of an
enclosed point run in batches, each deciding on the leading bits of the
columns' bounds with the same branch rule and applying the batch's weights
to the columns once.  A rational point's remainders times its common
denominator are integers, so an exact point decides on those with the same
branch rule and no evaluator: classifying or stepping one on the integers
themselves, and running one on packed integer columns (``numeric._Packed``),
each the remainder's integer above the column's coefficients as digits that
widen as their product bound grows, with one cached packing per shape and
width (``numeric._packing``).  ``_start`` alone picks a point's kernel, after
the one domain check.  ``_run`` is the package's only run: the planar
``triangle.sequence`` (n = 2) and the continued fraction
``triangle.gauss_sequence`` (n = 1) run through it too, with their own
coordinate names and records.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from operator import add, ge, index, mul, sub
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DegenerateInputError, PrecisionExhaustedError
from .matrices import (Column, Matrix, mat_from_columns, mat_identity, mat_inverse_unimodular,
                       mat_mul, mat_product, mat_step, nonneg_column, push_column)
from .numeric import (AMBIGUOUS, MAX_PRECISION, MIN_PRECISION, NEGATIVE, POSITIVE, PRECISION_EXHAUSTED, TERMINATED,
                      TRUNCATED, ZERO, ExactNumber, FormEvaluator, RootSpec, SequenceStatus, Sign, _Epoch, _Form,
                      _Packed, _packing, root_powers)


# symbols ------------------------------------------------------------------


@dataclass(frozen=True)
class NonNegSymbol:
    k: int

    def __str__(self) -> str:
        return str(self.k)


@dataclass(frozen=True)
class PairSymbol:
    i: int
    j: int

    def __str__(self) -> str:
        return f"({self.i},{self.j})"


SymbolND = NonNegSymbol | PairSymbol

# Symbols interned: nearly every step emits a small floor, and the bound holds
# every pair symbol of n <= 91.
_nonneg = functools.lru_cache(maxsize=4096)(NonNegSymbol)
_pair = functools.lru_cache(maxsize=4096)(PairSymbol)


# points ---------------------------------------------------------------------


@dataclass(frozen=True)
class PointN:
    coords: tuple[ExactNumber, ...]

    def __post_init__(self):
        if not self.coords:
            raise DegenerateInputError("point needs at least one coordinate")

    @classmethod
    def from_root(cls, spec: RootSpec, n: int, precision: int) -> "PointN":
        """(r, r**2, ..., r**n) for the described root, sharing one cache."""
        return cls(root_powers(spec, n, precision))


# step matrices -------------------------------------------------------------


def _names_region(symbol: SymbolND, n: int) -> bool:
    """Whether a symbol names a nonempty region in dimension n: a floor k >= 0,
    save k = 0 at n = 1 (it needs x_1 > 1), or one of ``candidate_symbols(n)``."""
    if type(symbol) is NonNegSymbol:
        return symbol.k >= (n == 1)
    return 1 <= symbol.i <= n - 2 and symbol.i < symbol.j <= n


@functools.lru_cache(maxsize=4096)
def _push_rule(symbol: SymbolND, n: int) -> tuple[int, Column]:
    """The slot j of a step's push and its inserted column over the current ones.

    A pair symbol must name a region; a floor need only be nonnegative."""
    if isinstance(symbol, NonNegSymbol):
        return n, nonneg_column(symbol.k, n)
    i, j = symbol.i, symbol.j
    if n < 3:
        raise ValueError("pair regions only exist in dimension 3 and up")
    if not _names_region(symbol, n):
        raise ValueError(f"bad pair symbol ({i},{j})")
    return j, (1,) + (-1,) * i + (0,) * (n - i)


def step_matrix_nd(symbol: SymbolND, n: int) -> Matrix:
    """The (n+1)x(n+1) integer matrix whose row action performs one d-update.

    A pair symbol must be one of ``candidate_symbols(n)``."""
    return mat_step(*_push_rule(symbol, n))


def product_matrix_nd(symbols: Iterable[SymbolND], n: int) -> Matrix:
    return mat_product((step_matrix_nd(s, n) for s in symbols), n + 1)


# classification and sequences ----------------------------------------------


def _check_domain(ops, cols: Sequence, names: Sequence[str] | None, allow_zero_last: bool) -> None:
    """Certify 1 >= x_1 >= ... >= x_n > 0 on a point's start columns: ``ops``
    asks the sign of each gap d_0 - d_1, ..., d_{n-1} - d_n and d_n in that
    order, and the first that fails raises; x_n = 0 passes with
    allow_zero_last.  Messages name the coordinates by ``names`` (default
    x_1, ..., x_n) and are built only when a test fails."""
    n = len(cols) - 1
    for t in range(n + 1):
        s = ops.certified_sign(ops.sub(cols[t], cols[t + 1]) if t < n else cols[n])
        if s is POSITIVE or (s is ZERO and (t < n or allow_zero_last)):
            continue
        names = names or [f"x_{u}" for u in range(1, n + 1)]
        if t == 0:
            msg = f"{names[0]} exceeds 1"
        elif t < n:
            msg = f"{names[t]} exceeds {names[t - 1]}"
        else:
            msg = f"{names[-1]} {'must be positive' if s is ZERO else 'is negative'}"
        if s is AMBIGUOUS:
            raise PrecisionExhaustedError(f"cannot certify domain: {msg}")
        raise DegenerateInputError(msg)


def _start(coords: Sequence[ExactNumber], cap_bits: int | None, names: Sequence[str] | None = None,
           *, allow_zero_last: bool = False) -> tuple:
    """A point's queries and start columns after its domain check, for every
    run, classification and step.  A point of ``int``s and ``Fraction``s with
    a cap within the ceiling starts on its scaled integers, ``(_NO_DIGITS,
    (den, den*x_1, ..., den*x_n))``, with ``_in_domain`` as its check's fast
    path; any other on its evaluator and unit forms."""
    if ((cap_bits is None or cap_bits <= MAX_PRECISION)
            and all(map(isinstance, coords, repeat((int, Fraction))))):
        den, xs = _scaled(coords)
        ops, cols = _NO_DIGITS, (den, *xs)
        if _in_domain(den, xs, allow_zero_last):
            return ops, cols
    else:
        ops = FormEvaluator(coords, cap_bits=cap_bits)
        cols = ops.units()
    _check_domain(ops, cols, names, allow_zero_last)
    return ops, cols


def _certain(ops, form, ambiguous: str) -> Sign:
    """The certified sign of a form; raises with message ``ambiguous`` if undecidable."""
    s = ops.certified_sign(form)
    if s is AMBIGUOUS:
        raise PrecisionExhaustedError(ambiguous)
    return s


def _decide(ops, cols: Sequence) -> tuple[SymbolND, object]:
    """The branch rule: one step's symbol and inserted column, for every n.

    ``ops`` answers ``sub``, ``addmul``, ``certified_sign`` and
    ``certified_floor`` on ``cols``: the evaluator over carried columns, a
    batch window over its forms of them, or a ``numeric._Packed`` over an
    exact run's packed columns, or with no digits (``_NO_DIGITS``) over an
    exact point's scaled integers.  An undecidable test raises
    ``PrecisionExhaustedError``.  ``q[t]`` is the column form of q_t (t < n)
    scaled by the leading remainder; the last
    entry picks the family, the crossing i and then the window j over
    x_{i+1}, ..., x_n, x_{n+1} = 0 decide a pair region.  The window j = n needs no test: the crossing
    leaves q_i > 0, or q_1 = d_0 - d_1 >= 0 at i = 1, and x_{n+1} = 0 closes it.
    """
    n = len(cols) - 1
    if n < 3:
        # the slack is d_0 or q_1, never negative: no pair regions.  Kept apart
        # as the hot path of n = 1 and 2: a chain built for every n took 0.1-0.5 us
        # more per n = 1 step under timeit (3-10% of a Gauss step; 2 vCPUs, CPython 3.11)
        slack = cols[0] if n == 1 else ops.sub(cols[0], cols[1])
    else:
        q = [cols[0]]
        for col in cols[1:n]:
            q.append(ops.sub(q[-1], col))
        slack = q[n - 1]
    if n < 3 or _certain(ops, slack, "slack sign is ambiguous") is not NEGATIVE:
        a = ops.certified_floor(slack, cols[n])
        return _nonneg(a), ops.addmul(slack, -a, cols[n])
    i = 1
    while i < n - 2 and _certain(ops, q[i + 1], "slack sign is ambiguous") is POSITIVE:
        i += 1
    for j in range(i + 1, n):
        # the window form q_i - x_{j+1}, strict against real coordinates
        if _certain(ops, ops.sub(q[i], cols[j + 1]), "pair window test is ambiguous") is POSITIVE:
            break
    else:
        j = n
    return _pair(i, j), q[i]


def _batch(ev: FormEvaluator, cols: Sequence[_Form], room: int) -> tuple[list[SymbolND], Sequence[_Form]]:
    """Take up to ``room`` steps on a window of the columns and return their
    symbols and the columns after them, pushed at once: no symbol and the
    same columns if the window decides no step.  A batch stops before the
    first step whose last remainder the window does not certify positive, or
    with a test it leaves undecided."""
    win, wcols = ev.window(cols)
    decide, sign, n = _decide, win.certified_sign, len(cols) - 1
    symbols: list[SymbolND] = []
    try:
        for _ in range(room):
            if sign(wcols[-1]) is not POSITIVE:
                break
            symbol, inserted = decide(win, wcols)
            wcols = push_column(wcols, symbol.j if type(symbol) is PairSymbol else n, inserted)
            symbols.append(symbol)
    except PrecisionExhaustedError:
        pass
    return symbols, (win.columns(wcols) if symbols else cols)


def _combine(w: Column, cols: Sequence[tuple]) -> tuple:
    """The column sum of w_t * cols[t], entry by entry; every push rule has w_0 = 1."""
    acc = iter(cols[0])
    for wt, col in zip(w[1:], cols[1:]):
        if wt == -1:
            acc = map(sub, acc, col)
        elif wt:
            acc = map(add, acc, map(mul, repeat(wt), col))
    return tuple(acc)


class _Snapshots:
    """A record's remainders as a replay of its run, not yet values.

    The handle keeps the run's dimension, its symbols, its
    ``(step, epoch)`` pairs, and its final columns as the record's matrix
    rows; no evaluator.  Each epoch turns a column's midpoint sum into its
    value, as the run's evaluator did in that epoch.
    ``_rows`` pushes the symbols from the unit columns by the run's push rule
    and carries each column's midpoint sum as the evaluator's ``sub`` and
    ``addmul`` do, so it makes no certified query.  A column carries its
    coefficients too only where a bound needs them: on a point with radii,
    or for the full dot products at a later epoch's start.  Each row is the
    previous one shifted plus the inserted column's value at the epoch in
    force, or the whole row again at an epoch's start: the values the run's
    evaluator had for those columns at that step.  ``tail`` reads the final
    row off the final columns.

    With ``lead`` None the history is the rows (n-D).  Otherwise it is flat:
    the first row's last ``lead`` entries, then each later row's last entry,
    the column its step inserted (planar ``lead=3``, Gauss ``lead=1``).
    Rows share the values of their shifted entries.  ``build`` keeps the
    values it made, so a record's later reads return the same tuple.
    """

    __slots__ = ("n", "symbols", "epochs", "final", "lead", "values")

    def __init__(self, n: int, symbols: tuple, epochs: list[tuple], final: Matrix,
                 lead: int | None = None):
        self.n, self.symbols, self.epochs, self.final, self.lead = n, symbols, epochs, final, lead
        self.values: tuple | None = None

    def _rows(self) -> Iterator[tuple]:
        """The start row's values, then the row after each step."""
        n, epochs = self.n, self.epochs
        _, ep = epochs[0]
        switches = dict(epochs[1:])
        full = bool(switches) or ep.rads is not None

        def value(col) -> ExactNumber:
            mid, coeffs = (col[-1], col[:-1]) if full else (col, ())
            return ep.value(*ep.bounds(mid, coeffs))

        # the unit columns, whose midpoint sums are the first epoch's own
        units = mat_identity(n + 1)
        cols = tuple(u + (m,) for u, m in zip(units, ep.mids)) if full else tuple(ep.mids)
        row = tuple(map(value, cols))
        yield row
        for t, s in enumerate(self.symbols, 1):
            j, w = _push_rule(s, n)
            col = _combine(w, cols) if full else sum(map(mul, w, cols))
            cols = push_column(cols, j, col)
            if t in switches:
                ep = switches[t]
                cols = tuple(c[:-1] + (ep.dot(c[:-1]),) for c in cols)
                row = tuple(map(value, cols))
            else:
                row = push_column(row, j, value(col))
            yield row

    def build(self) -> tuple:
        """The history's values: replayed on the first call, kept for every later one."""
        if self.values is None:
            rows = self._rows()
            self.values = (tuple(rows) if self.lead is None
                           else (*next(rows)[-self.lead:], *(row[-1] for row in rows)))
        return self.values

    def tail(self) -> tuple:
        """The final row's values, with no replay: each final column's full
        dot product at the last epoch, the one in force at the run's last
        push.  It is the row the replay ends on, since an epoch's start
        retakes the whole row and every later column is inserted at it."""
        _, ep = self.epochs[-1]
        return tuple(ep.value(*ep.bounds(ep.dot(col), col)) for col in zip(*self.final))


class _BuiltOnRead:
    """A record field given as ``_Snapshots`` that reads as their values, a
    tuple, built on the first read.  The handle stays in the record, so its
    final row is at hand after a read too; a field given as a tuple reads as
    itself.  ``==``, ``repr`` and ``hash`` read it like any other field, so
    they see the values."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            # a dataclass field without a default
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        return value.build() if isinstance(value, _Snapshots) else value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = value


def _last_remainders(rec) -> tuple[ExactNumber, ...]:
    """The final remainders of a run record of any kind, its history read or
    not: the values of its final columns, with no replay and no query.  A
    record whose history is a plain tuple (from ``dataclasses.replace``, or
    built with one) answers from it: its last row (n-D), its last three
    entries (planar) or its last two after d_0 = 1 (Gauss)."""
    fields = vars(rec)
    gauss = "remainders" in fields
    history = fields["remainders" if gauss else "d_history"]
    if isinstance(history, _Snapshots):
        return history.tail()
    if gauss:
        # the flat history starts at d_1 = x, and a run of no step ends on (d_0, d_1)
        return (Fraction(1), *history)[-2:]
    return history[-1] if isinstance(history[-1], tuple) else history[-3:]


@dataclass(frozen=True)
class SequenceRecordN:
    symbols: tuple[SymbolND, ...]
    d_history: tuple[tuple[ExactNumber, ...], ...] = _BuiltOnRead()
    status: SequenceStatus
    matrix: Matrix
    refinements: int
    precision_bits: int

    @property
    def terminated(self) -> bool:
        return self.status is TERMINATED


def _classify(coords: Sequence[ExactNumber], cap_bits: int | None,
              names: Sequence[str] | None = None) -> SymbolND:
    """A point's symbol: ``_decide`` on whatever ``_start`` picks for it."""
    return _decide(*_start(coords, cap_bits, names))[0]


def classify_nd(point: PointN, *, cap_bits: int | None = None) -> SymbolND:
    """The unique region symbol of a simplex point (slack ties go nonnegative)."""
    return _classify(point.coords, cap_bits)


def _run(coords: Sequence[ExactNumber], max_len: int, cap_bits: int | None,
         names: Sequence[str] | None = None, *, lead: int | None = None,
         allow_zero_last: bool = False) -> tuple:
    """Run a point to at most max_len certified symbols and return a record's
    fields in field order: the symbols (floors as ints with a flat history,
    see ``lead`` in ``_Snapshots``), the history's replay handle, the status,
    the final columns as matrix rows, the refinements and the working bits.

    Column t is the form of the remainder d_t, and x_t = d_t/d_0.  The run
    takes the kernel ``_start`` picks: a point on its scaled integers runs on
    packed integer columns (``_packed_run``), with one exact epoch, no
    refinement and the least working bits; any other runs on its evaluator
    (``_evaluator_run``).  Each loop stops at the first step it does not take
    and returns the last remainder's certified sign, and the run's ending is
    stated here alone: a negative sign breaks the remainders' order, a kernel
    fault that raises ``ValueError``; zero is ``terminated``; max_len symbols
    are ``truncated-at-max-length`` whatever the sign; anything else (an
    undecidable sign or branch) is ``precision-exhausted``.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    ops, cols = _start(coords, cap_bits, names, allow_zero_last=allow_zero_last)
    if ops is _NO_DIGITS:
        symbols, last, matrix = _packed_run(cols, max_len)
        epochs, refinements, bits = [(0, _Epoch.exact(cols[0], cols[1:], MIN_PRECISION))], 0, MIN_PRECISION
    else:
        symbols, last, cols, epochs = _evaluator_run(ops, cols, max_len)
        matrix = mat_from_columns([c.coeffs for c in cols])
        refinements, bits = ops.refinements, ops.bits
    if last is NEGATIVE:
        raise ValueError("last remainder is negative")
    status = TERMINATED if last is ZERO else TRUNCATED if len(symbols) == max_len else PRECISION_EXHAUSTED
    symbols = tuple(symbols)
    return (symbols if lead is None else tuple(symbol.k for symbol in symbols),
            _Snapshots(len(matrix) - 1, symbols, epochs, matrix, lead), status, matrix, refinements, bits)


def _evaluator_run(ev: FormEvaluator, cols: Sequence[_Form],
                   max_len: int) -> tuple[list[SymbolND], Sign, Sequence[_Form], list[tuple]]:
    """``_run`` on the evaluator from its unit forms ``cols``: the symbols, the
    last remainder's certified sign, the final columns and the epochs.

    Columns and every form built from them are the evaluator's carried
    forms, so a query costs no dot product over the columns' big
    coefficients.  A step asks only the queries that define its branch.  A
    certified answer holds for the true value, so these facts need no query
    of their own:

    * d_0 >= d_1 >= ... >= d_n >= 0: the domain check certifies it and both
      steps keep it.  So q_1 = d_0 - d_1 >= 0, and d_0 >= d_n stays positive
      after the step that certified d_n positive.
    * A floor a comes with a <= slack/x_n < a + 1 on the whole enclosure, or
      with slack - a*x_n an exact zero: either way 0 <= g1 < x_n.

    Between refinements the steps run in batches on a window of the columns
    (``FormEvaluator.window``): the branch rule on small integers whose
    decisions are the evaluator's own, and the steps' weights applied to the
    big columns once, when the batch ends.  After each batch one ordinary
    step follows: it alone may refine, test an exact zero or end the run, at
    a last remainder not certified positive, at max_len or at an undecidable
    branch (``_decide`` raises).  An
    empty batch whose ordinary step did not refine says the window is too
    narrow for the columns (partial quotients longer than its bits): the next
    s steps are ordinary ones with no window, s doubling with each such batch
    in a row and back to 1 after a batch that decides a step or a refinement.

    For a replay of its history the run keeps, besides its symbols, only
    ``epochs``: ``(step, epoch)`` for the evaluator's epoch at the start
    (step 0) and after each push whose epoch is not the last one kept (step =
    the pushes made so far).
    """
    n, sign = len(cols) - 1, ev.certified_sign
    symbols: list[SymbolND] = []
    epochs = [(0, ev.epoch)]
    # ordinary steps left before the next window, and how many an empty one costs:
    # a window before every step ran gauss_sequence on enclosures of 600 quotients
    # of 10**20 (2**17 bits) or of 2**60 (2**16 bits) x1.3-1.6 slower, and on mixed
    # huge and unit quotients level (best of 7, 4 rounds; 2 vCPUs, CPython 3.11)
    ahead, backoff = 0, 1
    while True:
        if ahead:
            ahead -= 1
        elif len(symbols) < max_len:
            batch, cols = _batch(ev, cols, max_len - len(symbols))
            ahead, backoff = (0, 1) if batch else (backoff, 2 * backoff)
            symbols += batch
        s = sign(cols[-1])
        if s is not POSITIVE or len(symbols) == max_len:
            break
        try:
            symbol, inserted = _decide(ev, cols)
        except PrecisionExhaustedError:
            break
        cols = push_column(cols, symbol.j if type(symbol) is PairSymbol else n, inserted)
        symbols.append(symbol)
        if ev.epoch is not epochs[-1][1]:
            epochs.append((len(symbols), ev.epoch))
            ahead, backoff = 0, 1
    return symbols, s, cols, epochs


#: Digit width of a packed run's first columns; ``_packed_run`` doubles it as
#: the coefficients grow.
_PACKED_BITS = 64

#: ``_decide``'s queries on an exact point's scaled integers den, den*x_1, ...,
#: den*x_n: a packing with no digits, whose columns are those integers.
_NO_DIGITS = _packing(0, _PACKED_BITS)


def _packed_run(start: Sequence[int], max_len: int) -> tuple[list[SymbolND], Sign, Matrix]:
    """``_run`` on an exact point's packed integer columns (``_Packed``), from
    its scaled integers ``start`` = (den, den*x_1, ..., den*x_n): the symbols,
    the last remainder's sign, asked once after the last step (every exact
    branch decides), and the final columns as matrix rows.

    Every form a step builds is Σ w_t·col_t over the columns before it, so no
    coefficient of it exceeds Σ |w_t| times theirs.  The inserted column has
    Σ |w_t| = n + k for a floor k and i + 1 for a pair (i, j), and every
    form the step tests has at most n.  So the run carries a bound, the
    product over its steps of Σ |w_t|, that no coefficient exceeds.  With
    reach = bit_length(n), ``bound << reach < 2**(bits - 1)`` holds at the
    start of every step, so each digit holds every tested coefficient: a
    step decides, and if its growth would break that for the next step, the
    columns from before it are repacked at the digit width doubled until it
    fits.  The decision stands, since every coefficient it tested fitted the
    old digits, so only the inserted column is built again, from the
    repacked columns by the push rule.  The packings come from ``_packing``,
    so a run of a shape met before builds none, and the start columns are
    each integer shifted above its unit digit.
    """
    n = len(start) - 1
    ops = _packing(n + 1, _PACKED_BITS)
    cols = tuple([(v << ops.shift) + u for v, u in zip(start, ops.units)])
    # bound << reach < 2**(bits - 1) is bound < room
    reach, bound = n.bit_length(), 1
    room = 1 << (ops.bits - 1 - reach)
    symbols: list[SymbolND] = []
    while not (cols[-1] < ops.top or len(symbols) == max_len):
        symbol, inserted = _decide(ops, cols)
        if type(symbol) is PairSymbol:
            j, grow = symbol.j, symbol.i + 1
        else:
            j, grow = n, n + symbol.k
        bound *= grow
        if bound >= room:
            ops, cols = _widened(ops, cols, bound << reach)
            room = 1 << (ops.bits - 1 - reach)
            inserted = sum(map(mul, _push_rule(symbol, n)[1], cols))
        cols = push_column(cols, j, inserted)
        symbols.append(symbol)
    return symbols, ops.certified_sign(cols[-1]), mat_from_columns([ops.unpack(col)[1] for col in cols])


def _widened(ops: _Packed, cols: Sequence[int], top: int) -> tuple[_Packed, tuple[int, ...]]:
    """The queries and the columns repacked at the digit width doubled until
    ``top`` stays below 2**(bits - 1)."""
    bits = ops.bits
    while top.bit_length() >= bits:
        bits *= 2
    wide = _packing(ops.size, bits)
    return wide, tuple(wide.pack(*ops.unpack(col)) for col in cols)


def sequence_nd(point: PointN, max_len: int, *, cap_bits: int | None = None) -> SequenceRecordN:
    """Certified symbol sequence in dimension n with full remainder history.

    The history is a replay of the run, made when it is first read."""
    return SequenceRecordN(*_run(point.coords, max_len, cap_bits))


# regions, membership, decomposition audit -----------------------------------


def cylinder_vertices(symbols: Iterable[SymbolND], n: int) -> tuple[tuple[Fraction, ...], ...]:
    """The n+1 exact vertices of the closed set of points whose run starts with ``symbols``.

    Every branch maps its region onto the whole simplex, so this cylinder is
    the domain's image under the inverse of the prefix's product matrix P:
    the rows of D·P⁻¹, where row l of D is (1, 1^l 0^(n-l)), each divided by
    its first entry.  That entry is at least 1: every step matrix admitted
    here has a nonnegative inverse with top-left entry at least 1 (not so for
    k = 0 at n = 1, whose region is empty).  Vertex l is the preimage of
    (1^l 0^(n-l)).
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    symbols = list(symbols)
    # the step matrices reject a negative floor and a bad pair; what is left
    # naming no region is k = 0 at n = 1
    product = product_matrix_nd(symbols, n)
    if not all(_names_region(s, n) for s in symbols):
        raise ValueError("index 0 region is empty in dimension 1")
    domain = tuple((1,) * (l + 1) + (0,) * (n - l) for l in range(n + 1))
    rows = mat_mul(domain, mat_inverse_unimodular(product))
    return tuple(tuple(Fraction(c, row[0]) for c in row[1:]) for row in rows)


def region_vertices(n: int, symbol: SymbolND) -> tuple[tuple[Fraction, ...], ...]:
    """The n+1 exact vertices of a region of the subdivision.

    This is the one-symbol cylinder: vertex l is the preimage of
    (1^l 0^(n-l)) under the region's step.
    """
    return cylinder_vertices((symbol,), n)


def _in_domain(den: int, xs: Sequence[int], closed: bool) -> bool:
    """Whether numerators ``xs`` over ``den`` > 0 give a point of the domain
    1 >= x_1 >= ... >= x_n > 0, or of its closure (x_n >= 0) with ``closed``."""
    last = xs[-1]
    if xs[0] > den or last < 0 or (last == 0 and not closed):
        return False
    return all(map(ge, xs, xs[1:]))


def _scaled(x: Sequence[int | Fraction]) -> tuple[int, list[int]]:
    """A rational point as its common denominator and its numerators over it."""
    den = lcm(*(v.denominator for v in x))
    return den, [v.numerator * (den // v.denominator) for v in x]


def _members_scaled(xs: Sequence[int], q: Sequence[int], symbols: Iterable[SymbolND],
                    closed: bool) -> list[SymbolND]:
    """The symbols among ``symbols`` whose region holds a domain point given
    as numerators ``xs`` over den > 0, in their order: the region rule, tested
    on every symbol in one scan.

    The point must pass ``_in_domain`` with the same ``closed``, and each
    symbol must name a region (``_names_region``): this tests the regions'
    own inequalities only.  ``q`` is the chain q_0, ..., q_n scaled by den:
    ``q[t]`` is den less the first t numerators, so ``q[0]`` is den and
    ``q[n - 1]`` the slack.  Scaling by the positive den keeps every
    inequality, so each test is an integer comparison.
    """
    n = len(xs)
    last = xs[n - 1]
    slack = q[n - 1]
    # the fan owns slack == 0: a pair region needs a negative slack, or a zero
    # one in its closure
    pair_slack = slack < 0 or (closed and slack == 0)
    members = []
    for symbol in symbols:
        if type(symbol) is NonNegSymbol:
            hi = slack - symbol.k * last
            lo_next = hi - last
            if hi >= 0 and (lo_next < 0 or (closed and lo_next <= 0)):
                members.append(symbol)
            continue
        if not pair_slack:
            continue
        i, j = symbol.i, symbol.j
        qi = q[i]
        xj1 = xs[j] if j < n else 0
        if q[i + 1] > 0 or xs[j - 1] < qi:
            continue
        if closed:
            held = qi >= 0 and qi >= xj1
        else:
            # half-open convention: the crossing index is the first t with
            # q_{t+1} <= 0, so q_i == 0 is admitted only at i == 1; the window
            # is strict on the right against real coordinates and closed
            # against the virtual endpoint x_{n+1} = 0.
            held = (qi > 0 or (qi == 0 and i == 1)) and (j == n or qi > xj1)
        if held:
            members.append(symbol)
    return members


def region_membership(point: Sequence[Fraction], symbol: SymbolND, *, closed: bool = False) -> bool:
    """Exact membership test straight from the defining inequalities.

    With closed=False this implements the partition convention (half-open
    boundaries); closed=True relaxes every strict inequality, giving the
    closure, which is what region vertices satisfy.  The inequalities are
    tested in integer arithmetic over the point's common denominator.  A
    symbol that names no region (k < 0, k = 0 at n = 1, or a pair outside
    ``candidate_symbols(n)``) has no members, open or closed (``_names_region``).
    """
    x = [Fraction(v) for v in point]
    if not x:
        raise DegenerateInputError("point needs at least one coordinate")
    den, xs = _scaled(x)
    return (_names_region(symbol, len(xs)) and _in_domain(den, xs, closed)
            and bool(_members_scaled(xs, list(accumulate(xs, sub, initial=den)), (symbol,), closed)))


def candidate_symbols(n: int) -> list[SymbolND]:
    """Every pair symbol of dimension n, in (i, j) order; empty below n = 3."""
    return [PairSymbol(i, j) for i in range(1, n - 1) for j in range(i + 1, n + 1)]


def _below(getrandbits: Callable[[int], int], width: int) -> int:
    """A uniform draw from [0, width), width >= 1, on ``getrandbits``: k-bit
    draws, k = width.bit_length(), until one falls below width.  This is
    CPython's ``Random._randbelow_with_getrandbits`` (3.10-3.13), so lo plus
    this draw is ``randint(lo, lo + width - 1)``, and leaves the generator in
    the same state."""
    k = width.bit_length()
    r = getrandbits(k)
    while r >= width:
        r = getrandbits(k)
    return r


def _sample_scaled(rng: random.Random, n: int, max_denominator: int) -> tuple[int, list[int]]:
    """The draws behind one sampled point: its denominator, uniform over
    n + 1..max_denominator, and n numerators, each uniform over 1..den, in
    descending order.  Each draw is ``rng.randint``'s over the same range,
    made by ``_below`` on ``rng.getrandbits``, so a seed gives the same
    points on every supported CPython.  ``max_denominator`` must be an
    integer (``operator.index``)."""
    hi = index(max_denominator)
    if hi < n + 1:
        raise ValueError("denominator bound too small to sample the simplex")
    bits = rng.getrandbits
    den = n + 1 + _below(bits, hi - n)
    return den, sorted([1 + _below(bits, den) for _ in range(n)], reverse=True)


def sample_rational_point(rng: random.Random, n: int, max_denominator: int) -> tuple[Fraction, ...]:
    """One random rational point with 1 >= x_1 >= ... >= x_n > 0.

    Its denominator is drawn uniformly from n + 1..max_denominator and its
    numerators uniformly from 1..den, each as ``rng.randint`` would draw it
    (``_sample_scaled``), so a seed gives the same points on CPython
    3.10-3.13; ``max_denominator`` must be an integer.  The top facet
    x_1 = 1 is included: the subdivision covers it (such points sit in a
    pair region whose inserted value is zero), so the coverage audit should
    exercise it too.
    """
    den, nums = _sample_scaled(rng, n, max_denominator)
    return tuple(Fraction(p, den) for p in nums)


@dataclass(frozen=True)
class DecompositionReport:
    n: int
    samples: int
    violations: tuple[tuple[tuple[Fraction, ...], int], ...]
    classify_mismatches: int

    @property
    def ok(self) -> bool:
        return not self.violations and self.classify_mismatches == 0


#: Largest dimension ``decomposition_check`` audits: each sample is tested
#: against all n(n - 1)/2 - 1 pair symbols, so at n = 1,000 building them took
#: 0.5 s and 81 MB and each sample's one scan over them 0.11 s more, and one
#: sample at n = 2,000 took 2.8 s and 276 MB (2 vCPUs, CPython 3.11).
MAX_AUDIT_DIMENSION = 1000


def decomposition_check(n: int, samples: int, *, seed: int = 0,
                        max_denominator: int = 10000) -> DecompositionReport:
    """Sample rational points and count how many regions claim each one.

    Membership is tested directly from the defining inequalities, in one
    scan (``_members_scaled``) over the floor-determined nonnegative index
    (plus its neighbours, which must fail) and every pair symbol
    exhaustively, in integer arithmetic over the sample's common
    denominator, once the sample has passed the domain test (no region
    claims a point outside the domain).  No candidate is checked for naming
    a region: k - 1 = -1 would need a negative slack, k = 0 at n = 1 would
    need x_1 > 1, and every pair comes from ``candidate_symbols``.  The samples are
    ``sample_rational_point``'s, seeded by ``seed``.  Every
    sampled point must land in exactly one region; its region must also
    agree with the branch rule ``_decide`` on the sample's integers
    (den, den*x_1, ..., den*x_n), as ``classify_nd`` decides an exact point,
    rather than with these inequalities.  ``Fraction``s are built only for
    a violation's record.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if n > MAX_AUDIT_DIMENSION:
        raise ValueError(f"dimension above the {MAX_AUDIT_DIMENSION}-dimension ceiling")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = random.Random(seed)
    pairs = candidate_symbols(n)
    violations: list[tuple[tuple[Fraction, ...], int]] = []
    mismatches = 0
    for _ in range(samples):
        den, xs = _sample_scaled(rng, n, max_denominator)
        matches: list[SymbolND] = []
        if _in_domain(den, xs, False):
            q = list(accumulate(xs, sub, initial=den))
            slack = q[n - 1]
            cands: Iterable[SymbolND] = pairs
            if slack >= 0:
                k = slack // xs[n - 1]
                cands = (_nonneg(k - 1), _nonneg(k), _nonneg(k + 1), *pairs)
            matches = _members_scaled(xs, q, cands, False)
        if len(matches) != 1:
            violations.append((tuple(Fraction(p, den) for p in xs), len(matches)))
            continue
        # a claimed sample passed _in_domain: its integers are the ones _start gives _classify
        if _decide(_NO_DIGITS, (den, *xs))[0] != matches[0]:
            mismatches += 1
    return DecompositionReport(
        n=n,
        samples=samples,
        violations=tuple(violations),
        classify_mismatches=mismatches,
    )
