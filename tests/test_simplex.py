import contextlib
import copy
import dataclasses
import pickle
import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from trianglemap import simplex
from trianglemap.errors import DegenerateInputError, NotYetConvergedError, PrecisionExhaustedError
from trianglemap.matrices import (IntMatrix, mat_det, mat_from_columns, mat_identity, mat_inverse_unimodular, mat_mul,
                                  push_column, recover_nd)
from trianglemap.io_formats import parse_point
from trianglemap.numeric import (MAX_PRECISION, BigFloat, FormEvaluator, RootSpec, SequenceStatus, Sign, _Epoch,
                                root_powers)
from trianglemap.polynomials import IntPolynomial
from trianglemap.periodicity import (
    fixed_point_nd,
    fixed_point_poly,
    period_one_point,
    rational_termination_check,
)
from trianglemap.simplex import (
    DecompositionReport,
    NonNegSymbol,
    PairSymbol,
    PointN,
    SequenceRecordN,
    candidate_symbols,
    classify_nd,
    cylinder_vertices,
    decomposition_check,
    product_matrix_nd,
    region_membership,
    region_vertices,
    sample_rational_point,
    sequence_nd,
    _decide,
    _last_remainders,
    _start,
    step_matrix_nd,
)
from trianglemap.triangle import GaussRecord, Point2, SequenceRecord, classify, gauss_sequence, sequence


def F(*args) -> Fraction:
    return Fraction(*args)


def test_symbols_display():
    assert str(NonNegSymbol(3)) == "3"
    assert str(PairSymbol(1, 2)) == "(1,2)"


def test_step_matrix_reduces_to_2d():
    from trianglemap.matrices import step_matrix
    for k in (0, 1, 4):
        assert step_matrix_nd(NonNegSymbol(k), 2) == step_matrix(k).rows


def test_step_matrix_dets():
    for n in (2, 3, 4):
        for sym in [NonNegSymbol(0), NonNegSymbol(3)] + candidate_symbols(n):
            det = mat_det(step_matrix_nd(sym, n))
            assert det in (-1, 1), (n, sym, det)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_run_matrix_is_the_product_of_its_step_matrices(n):
    # the engine's columns and the step matrices follow one push rule; a pair
    # step matrix is otherwise pinned only through determinants and vertices
    rng = random.Random(n)
    starts = [NonNegSymbol(k) for k in range(3)] + candidate_symbols(n)
    points = [tuple(sum(c) / (n + 1) for c in zip(*region_vertices(n, s))) for s in starts]
    points += [sample_rational_point(rng, n, 10 ** 6) for _ in range(40)]
    seen = set()
    for x in points:
        rec = sequence_nd(PointN(x), 60)
        assert rec.matrix == product_matrix_nd(rec.symbols, n), x
        seen.update(rec.symbols)
    # each region's centroid starts in its region, so every pair symbol ran
    assert set(candidate_symbols(n)) <= seen


def test_matrix_helpers():
    m = product_matrix_nd([NonNegSymbol(1), NonNegSymbol(2)], 3)
    inv = mat_inverse_unimodular(m)
    assert mat_mul(m, inv) == mat_identity(4)


def test_classify_known_pair_region():
    assert classify_nd(PointN((F(9, 10), F(9, 10), F(1, 10)))) == PairSymbol(1, 3)


@pytest.mark.parametrize("n", [3, 4])
def test_window_j_equal_n_asks_no_query(monkeypatch, n):
    # at a point of region (1, n): the slack, each crossing test and one
    # window test for each j < n; the window q_1 - x_{n+1} = q_1 is not asked
    point = tuple(sum(col) / (n + 1) for col in zip(*region_vertices(n, PairSymbol(1, n))))
    ev, units = _start(point, None)
    asked = []
    real = FormEvaluator.certified_sign
    monkeypatch.setattr(FormEvaluator, "certified_sign",
                        lambda self, form: asked.append(form.coeffs) or real(self, form))
    assert _decide(ev, units)[0] == PairSymbol(1, n)
    e = [tuple(int(i == t) for i in range(n + 1)) for t in range(n + 1)]
    q = [e[0]]
    for t in range(1, n):
        q.append(tuple(a - b for a, b in zip(q[-1], e[t])))
    crossing = q[2:n - 1]
    windows = [tuple(a - b for a, b in zip(q[1], e[j + 1])) for j in range(2, n)]
    assert asked == [q[n - 1], *crossing, *windows]
    assert q[1] not in asked


def test_classify_known_fan_region():
    assert classify_nd(PointN((F(1, 2), F(1, 3), F(1, 4)))) == NonNegSymbol(0)
    assert classify_nd(PointN((F(9, 10), F(1, 10), F(1, 11)))) == NonNegSymbol(0)


def test_classify_requires_ordered_coords():
    with pytest.raises(DegenerateInputError):
        classify_nd(PointN((F(1, 3), F(1, 2), F(1, 4))))


def test_top_facet_lands_in_pair_region():
    # x1 = 1 with negative slack has q_1 = 0: the window closes at j = n
    assert classify_nd(PointN((F(1), F(9, 10), F(1, 10)))) == PairSymbol(1, 3)
    assert classify_nd(PointN((F(1), F(1, 2), F(1, 3), F(1, 4)))) == PairSymbol(1, 4)


def test_top_facet_orbit_terminates_next_step():
    # the pair step on x1 = 1 inserts a zero value, ending the sequence
    rec = sequence_nd(PointN((F(1), F(9, 10), F(1, 10))), 10)
    assert rec.symbols == (PairSymbol(1, 3),)
    assert rec.status is SequenceStatus.TERMINATED
    assert rec.d_history[-1][-1] == 0


def test_tie_orbit_through_top_facet_terminates():
    # a tie x1 = x2 inside a pair region maps onto the x1 = 1 facet
    rec = sequence_nd(PointN((F(9, 10), F(9, 10), F(1, 10))), 10)
    assert rec.symbols == (PairSymbol(1, 3), PairSymbol(1, 3))
    assert rec.status is SequenceStatus.TERMINATED


@pytest.mark.parametrize("run", [
    lambda: sequence(Point2(F(1, 2), F(1, 3)), -1),
    lambda: gauss_sequence(F(1, 3), -1),
    lambda: sequence_nd(PointN((F(3, 4), F(1, 2), F(1, 4))), -1),
], ids=["sequence", "gauss_sequence", "sequence_nd"])
def test_negative_max_len_rejected(run):
    with pytest.raises(ValueError, match="max_len must be nonnegative"):
        run()


def test_sequence_nd_rational_terminates():
    rec = sequence_nd(PointN((F(1, 2), F(1, 3), F(1, 4))), 200)
    assert rec.status is SequenceStatus.TERMINATED
    assert rec.d_history[-1][-1] == 0


def test_sequence_nd_matches_triangle_oracle():
    rec = sequence_nd(PointN((F(1, 2), F(1, 3))), 50)
    assert tuple(s.k for s in rec.symbols) == (1, 1)
    assert rec.status is SequenceStatus.TERMINATED


domain_pairs = st.integers(2, 200).flatmap(
    lambda den: st.tuples(st.integers(1, den), st.integers(1, den)).map(
        lambda ab: (Fraction(max(ab), den), Fraction(min(ab), den))))


def _fraction_expansion(x):
    """Continued-fraction quotients of x in (0, 1] by stdlib Fraction arithmetic."""
    quotients = []
    while x:
        x = 1 / x
        quotients.append(x.numerator // x.denominator)
        x -= quotients[-1]
    return tuple(quotients)


@given(domain_pairs)
@settings(max_examples=40)
def test_n2_reduction(pair):
    # both n = 2 entry points against the integer remainder recursion; with
    # denominators up to 300 it never needs more than 13 symbols
    scale = pair[0].denominator * pair[1].denominator
    trace = rational_termination_check(scale, int(pair[0] * scale), int(pair[1] * scale))
    rec2 = sequence(Point2(*pair), 80)
    recn = sequence_nd(PointN(pair), 80)
    assert rec2.symbols == trace.symbols
    assert tuple(s.k for s in recn.symbols) == trace.symbols
    assert rec2.status is recn.status is SequenceStatus.TERMINATED
    d = [Fraction(v, scale) for v in trace.d_values]
    assert rec2.d_history == tuple(d)
    assert recn.d_history == tuple(tuple(d[t:t + 3]) for t in range(len(d) - 2))


@given(st.integers(2, 300).flatmap(
    lambda den: st.integers(1, den - 1).map(lambda num: Fraction(num, den))))
@settings(max_examples=40)
def test_n1_reduction_to_gauss(x):
    # both n = 1 entry points against the stdlib Fraction expansion
    expected = _fraction_expansion(x)
    g = gauss_sequence(x, 80)
    rec = sequence_nd(PointN((x,)), 80)
    assert g.quotients == expected
    assert tuple(s.k for s in rec.symbols) == expected
    assert g.status is rec.status is SequenceStatus.TERMINATED
    # Gauss keeps x and then each Euclidean remainder, over the denominator
    a, b = x.denominator, x.numerator
    rems = [b]
    while b:
        a, b = b, a % b
        rems.append(b)
    assert g.remainders == tuple(Fraction(r, x.denominator) for r in rems)


def test_recover_nd_estimates():
    point = fixed_point_nd(3, 1, 256)
    rec = sequence_nd(point, 25)
    assert rec.status is SequenceStatus.TRUNCATED
    est = recover_nd(rec.matrix)
    for e, coord in zip(est, point.coords):
        lo, hi = coord.bounds()
        assert abs(e - (lo + hi) / 2) < F(1, 10 ** 6)


def test_recover_nd_identity_raises_or_zero():
    est = recover_nd(mat_identity(4))
    assert est == (F(0), F(0), F(0))


def test_recover_nd_zero_leading_minor():
    m = ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    with pytest.raises(NotYetConvergedError):
        recover_nd(m)


def _admitted_steps(n: int, k: int) -> list:
    """The step matrices of NonNegSymbol(k) and of every pair symbol of dimension n."""
    return [step_matrix_nd(s, n) for s in [NonNegSymbol(k)] + candidate_symbols(n)]


@pytest.mark.parametrize("n", range(1, 8))
def test_step_inverses_are_nonnegative_with_unit_corner(n):
    # k sits in one entry of its step matrix, whose determinant is +-1, so
    # every entry of the inverse (a cofactor) is affine in k: nonnegative
    # entries at k0 and nonnegative increments to k0 + 1 hold for every k >= k0
    k0 = 1 if n == 1 else 0
    for m0, m1 in zip(_admitted_steps(n, k0), _admitted_steps(n, k0 + 1)):
        inv0, inv1 = mat_inverse_unimodular(m0), mat_inverse_unimodular(m1)
        assert inv0[0][0] >= 1
        assert all(a >= 0 and b >= a for r0, r1 in zip(inv0, inv1) for a, b in zip(r0, r1))


def _recover_points(n: int) -> list:
    """A rational, a decimal and a root-backed point of dimension n."""
    rational = ",".join(f"{p}/97" for p in (91, 73, 52, 30, 11)[:n])
    decimal = ",".join(("0.91", "0.537", "0.3119", "0.17", "0.0713")[:n])
    coeffs = ",".join(map(str, fixed_point_poly(n, 2).coeffs))
    return [rational, f"dec:{decimal}:64", f"root:{coeffs}:0,1:pow{n}"]


@pytest.mark.parametrize("n", range(1, 6))
def test_recover_nd_inverts_every_run(n):
    # the inverse of a run's matrix P is a product of nonnegative step
    # inverses with top-left entry >= 1, so the leading minor, +-(P^-1)_00,
    # never vanishes; the estimate is the cylinder vertex over (1, 0, ..., 0)
    for text in _recover_points(n):
        rec = sequence_nd(PointN(parse_point(text, 64)), 40)
        assert rec.symbols, text
        assert recover_nd(rec.matrix) == cylinder_vertices(rec.symbols, n)[0], text


def test_region_vertices_fan():
    for n in (2, 3, 4):
        for k in (0, 1, 5):
            verts = region_vertices(n, NonNegSymbol(k))
            assert len(verts) == n + 1
            edge = tuple(F(1, n + k - 1) for _ in range(n)) if n + k > 1 else None
            if edge is not None:
                assert edge in verts
            assert tuple(F(1, n + k) for _ in range(n)) in verts


def test_region_vertices_gauss_case():
    assert region_vertices(1, NonNegSymbol(2)) == ((F(1, 2),), (F(1, 3),))
    with pytest.raises(ValueError, match="index 0 region is empty"):
        region_vertices(1, NonNegSymbol(0))


def test_region_vertices_pair_needs_dimension():
    for n in (1, 2):
        with pytest.raises(ValueError, match="pair regions only exist"):
            region_vertices(n, PairSymbol(1, 2))


def test_region_vertices_rejects_bad_input():
    for n in (0, -1):
        for sym in (NonNegSymbol(1), PairSymbol(1, 3)):
            with pytest.raises(ValueError, match="dimension must be at least 1"):
                region_vertices(n, sym)
    for n in (1, 3):
        with pytest.raises(ValueError, match="must be >= 0"):
            region_vertices(n, NonNegSymbol(-1))
    with pytest.raises(ValueError, match="bad pair symbol"):
        region_vertices(3, PairSymbol(2, 2))
    # a later 0 empties a cylinder at n = 1 just as a first one does
    with pytest.raises(ValueError, match="index 0 region is empty"):
        cylinder_vertices([NonNegSymbol(1), NonNegSymbol(0)], 1)
    # the step matrices are built first: a negative floor is named before
    # an empty region, wherever each stands in the prefix
    for prefix in ([NonNegSymbol(-1), NonNegSymbol(0)], [NonNegSymbol(0), NonNegSymbol(-1)]):
        with pytest.raises(ValueError, match="must be >= 0"):
            cylinder_vertices(prefix, 1)


def test_pair_symbols_outside_the_subdivision_rejected():
    for n in range(1, 7):
        valid = set(candidate_symbols(n))
        detail = "pair regions only exist" if n < 3 else "bad pair symbol"
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                sym = PairSymbol(i, j)
                if sym in valid:
                    continue
                for build in (step_matrix_nd, lambda s, n: product_matrix_nd([s], n),
                              lambda s, n: region_vertices(n, s)):
                    with pytest.raises(ValueError, match=detail):
                        build(sym, n)


def test_region_membership_consistent_with_classify():
    pts = [
        (F(9, 10), F(9, 10), F(1, 10)),
        (F(1, 2), F(1, 3), F(1, 4)),
        (F(9, 10), F(8, 10), F(7, 10)),
        (F(1), F(9, 10), F(1, 10)),
        (F(3, 5), F(2, 5), F(3, 10)),
    ]
    for coords in pts:
        sym = classify_nd(PointN(coords))
        assert region_membership(coords, sym)
        others = [s for s in candidate_symbols(3) if s != sym]
        others += [NonNegSymbol(k) for k in range(6) if NonNegSymbol(k) != sym]
        assert not any(region_membership(coords, s) for s in others)


def test_region_vertices_lie_in_closed_region():
    for n in (3, 4):
        syms = [NonNegSymbol(0), NonNegSymbol(2)] + candidate_symbols(n)
        for sym in syms:
            for v in region_vertices(n, sym):
                assert region_membership(v, sym, closed=True), (n, sym, v)


def _hand_region_vertices(n, symbol):
    """Region vertices from per-symbol formulas: the fan region k has the
    frame points 1^l 0^(n-l) / l for l < n and the diagonal points 1^n over
    n + k - 1 and n + k; the pair region (i, j) has each frame point
    1^l 0^(n-l) over min(i, l) (plus one past j) for l != j, and 1^j 0^(n-j)
    over i + 1 and over i."""
    def frame(ones):
        return tuple(F(1) if t < ones else F(0) for t in range(n))

    if isinstance(symbol, NonNegSymbol):
        k = symbol.k
        if n == 1:
            return ((F(1, k),), (F(1, k + 1),))
        verts = [frame(1)]
        for level in range(2, n):
            verts.append(tuple(c / level for c in frame(level)))
        verts.append(tuple(c / (n + k - 1) for c in frame(n)))
        verts.append(tuple(c / (n + k) for c in frame(n)))
        return tuple(verts)
    i, j = symbol.i, symbol.j
    verts = []
    for level in range(1, n + 1):
        if level == j:
            continue
        scale = min(i, level) + (1 if level > j else 0)
        verts.append(tuple(c / scale for c in frame(level)))
    verts.append(tuple(c / (i + 1) for c in frame(j)))
    verts.append(tuple(c / i for c in frame(j)))
    return tuple(verts)


@pytest.mark.parametrize("n", range(1, 7))
def test_region_vertices_match_hand_formulas(n):
    for k in range(1 if n == 1 else 0, 7):
        sym = NonNegSymbol(k)
        assert region_vertices(n, sym) == _hand_region_vertices(n, sym), (n, k)
    for sym in candidate_symbols(n):
        got = region_vertices(n, sym)
        assert len(got) == n + 1
        assert set(got) == set(_hand_region_vertices(n, sym)), (n, sym)


def _homogeneous_row(v):
    """The primitive integer row (w, w*v) of a rational vertex."""
    w = lcm(*(c.denominator for c in v))
    return (w,) + tuple(int(c * w) for c in v)


@pytest.mark.parametrize("n", range(1, 6))
def test_cylinders_are_unimodular_and_realize_their_prefix(n):
    rng = random.Random(700 + n)
    alphabet = [NonNegSymbol(k) for k in range(1 if n == 1 else 0, 4)] + candidate_symbols(n)
    for _ in range(150):
        prefix = [rng.choice(alphabet) for _ in range(rng.randint(1, 6))]
        verts = cylinder_vertices(prefix, n)
        assert len(verts) == n + 1
        assert mat_det(tuple(_homogeneous_row(v) for v in verts)) in (1, -1), prefix
        for v in verts:
            assert region_membership(v, prefix[0], closed=True), (prefix, v)
        barycentre = tuple(sum(c) / (n + 1) for c in zip(*verts))
        rec = sequence_nd(PointN(barycentre), len(prefix))
        assert rec.symbols == tuple(prefix), (prefix, rec.symbols)


def test_empty_cylinder_is_the_domain():
    for n in range(1, 5):
        assert cylinder_vertices((), n) == tuple(
            tuple(F(int(t < ones)) for t in range(n)) for ones in range(n + 1))


def test_sampler_respects_domain():
    rng = random.Random(3)
    top_hits = 0
    for _ in range(200):
        coords = sample_rational_point(rng, 3, 12)
        assert 1 >= coords[0] >= coords[1] >= coords[2] > 0
        top_hits += coords[0] == 1
    assert top_hits > 0


def test_decomposition_check_small():
    rep = decomposition_check(3, 300, seed=5)
    assert rep.ok
    assert rep.samples == 300
    assert len(rep.violations) == 0
    assert rep.classify_mismatches == 0


def test_decomposition_check_n4():
    rep = decomposition_check(4, 120, seed=5)
    assert rep.ok


def test_decomposition_check_rejects_no_samples():
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            decomposition_check(3, samples)


# the region rule against a Fraction oracle ------------------------------------


def _fraction_membership(point, symbol, *, closed=False) -> bool:
    """The region rule in Fraction arithmetic: an oracle for the integer rule
    that ``region_membership`` applies over the common denominator."""
    x = [Fraction(v) for v in point]
    n = len(x)

    def gt(v) -> bool:
        return v >= 0 if closed else v > 0

    if x[0] > 1 or any(x[t] < x[t + 1] for t in range(n - 1)) or not gt(x[n - 1]):
        return False
    q = []
    acc = Fraction(1)
    for t in range(n):
        acc -= x[t]
        q.append(acc)  # q[t] = q_{t+1}
    slack = q[n - 2] if n >= 2 else Fraction(1)
    if isinstance(symbol, NonNegSymbol):
        k = symbol.k
        # k = 0 at n = 1 would need x_1 > 1: its closure is empty too
        if k < 0 or (k == 0 and n == 1):
            return False
        hi = slack - k * x[n - 1]
        lo_next = hi - x[n - 1]
        return hi >= 0 and (lo_next < 0 or (closed and lo_next <= 0))
    if symbol not in candidate_symbols(n):
        return False
    i, j = symbol.i, symbol.j
    qi = q[i - 1]
    qi1 = q[i]
    xj = x[j - 1]
    xj1 = x[j] if j < n else Fraction(0)
    if closed:
        return slack <= 0 and qi >= 0 and qi1 <= 0 and xj >= qi >= xj1
    if slack >= 0:
        return False
    if qi < 0 or (qi == 0 and i > 1):
        return False
    if qi1 > 0:
        return False
    if xj < qi:
        return False
    if j < n and qi <= xj1:
        return False
    return True


def _probe_symbols(n: int) -> list:
    """k = 0..8, every pair symbol of dimension n, and symbols no region of it has."""
    invalid = [PairSymbol(0, 1), PairSymbol(-1, 2), PairSymbol(2, 2), PairSymbol(3, 2),
               PairSymbol(1, n + 1), PairSymbol(n, n + 1), NonNegSymbol(-1), NonNegSymbol(-2)]
    edge = [PairSymbol(n - 1, n)] if n >= 2 else []
    return [NonNegSymbol(k) for k in range(9)] + candidate_symbols(n) + edge + invalid


def _assert_rule_matches_oracle(point) -> None:
    for sym in _probe_symbols(len(point)):
        for closed in (False, True):
            expected = _fraction_membership(point, sym, closed=closed)
            assert region_membership(point, sym, closed=closed) is expected, (point, sym, closed)


#: Largest denominator of the exhaustive grid, per dimension.
_GRID_MAX_DEN = {1: 8, 2: 7, 3: 6, 4: 5, 5: 4, 6: 3}


def _grid(n):
    # numerators run from -1 to den + 1, so the grid holds every facet and
    # ridge of the subdivision at these denominators and points just outside
    # the domain; at den <= 2, swapping a neighbouring pair also breaks the
    # order at either end
    for den in range(1, _GRID_MAX_DEN[n] + 1):
        for nums in combinations_with_replacement(range(den + 1, -2, -1), n):
            variants = {nums}
            if den <= 2:
                variants |= {nums[1:2] + nums[:1] + nums[2:], nums[:-2] + nums[:-3:-1]}
            for v in variants:
                yield tuple(F(p, den) for p in v[:n])


def _in_domain(point) -> bool:
    return point[0] <= 1 and point[-1] > 0 and all(a >= b for a, b in zip(point, point[1:]))


@pytest.mark.parametrize("n", sorted(_GRID_MAX_DEN))
def test_region_membership_matches_oracle_on_grid(n):
    for point in _grid(n):
        _assert_rule_matches_oracle(point)


@pytest.mark.parametrize("n", sorted(_GRID_MAX_DEN))
def test_classify_nd_lands_in_its_region_on_grid(n):
    # the grid's in-domain points include every facet and ridge at these
    # denominators, where the half-open convention decides the symbol
    for point in filter(_in_domain, _grid(n)):
        assert region_membership(point, classify_nd(PointN(point))), point


@pytest.mark.parametrize("n", sorted(_GRID_MAX_DEN))
def test_symbols_naming_no_region_have_no_members(n):
    # the pairs outside the subdivision's alphabet, and k = 0 at n = 1, name
    # no region: not even their closures hold a point
    valid = set(candidate_symbols(n))
    outside = [PairSymbol(i, j) for i in range(n + 2) for j in range(n + 2)
               if PairSymbol(i, j) not in valid]
    if n == 1:
        outside.append(NonNegSymbol(0))
    for point in _grid(n):
        for sym in outside:
            for closed in (False, True):
                assert not region_membership(point, sym, closed=closed), (point, sym, closed)


@st.composite
def boundary_points(draw):
    """Points placed on one region boundary (or one numerator step off it):
    slack = 0, q_i = 0, q_i = x_j, x_1 = 1 or x_n = 0."""
    n = draw(st.integers(1, 6))
    nums = sorted(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)), reverse=True)
    kind = draw(st.sampled_from(["slack", "q_i", "window", "top", "last"]))
    i = draw(st.integers(1, n))
    j = draw(st.integers(i, n))
    if kind == "slack":
        den = sum(nums[:n - 1])
    elif kind == "q_i":
        den = sum(nums[:i])
    elif kind == "window":
        den = sum(nums[:i]) + nums[j - 1]
    elif kind == "top":
        den = nums[0]
    else:
        nums[-1] = 0
        den = draw(st.integers(nums[0], nums[0] + 40))
    den = max(den, 1)
    t = draw(st.integers(0, n - 1))
    nums[t] += draw(st.sampled_from([0, 0, 0, -1, 1]))
    return tuple(F(p, den) for p in nums)


@given(boundary_points())
@settings(max_examples=300)
def test_region_membership_matches_oracle_on_boundaries(point):
    _assert_rule_matches_oracle(point)


@given(boundary_points().filter(_in_domain))
@settings(max_examples=300)
def test_classify_nd_lands_in_its_region_on_boundaries(point):
    assert region_membership(point, classify_nd(PointN(point)))


@given(boundary_points().filter(_in_domain))
@settings(max_examples=300)
def test_boundary_points_have_one_claim(point):
    # slack <= 1 and k*x_n <= slack bound the nonnegative index by 1/x_n
    n = len(point)
    bound = int(1 / point[-1]) + 2
    symbols = [NonNegSymbol(k) for k in range(bound + 1)] + candidate_symbols(n)
    claims = [s for s in symbols if region_membership(point, s)]
    assert claims == [classify_nd(PointN(point))], (point, claims)


def test_region_membership_mixed_denominators_and_types():
    for point in [(1, F(1, 2), F(1, 3)), (F(9, 10), F(4, 15), F(1, 6), F(1, 35)),
                  (F(1, 2), 0), ("1/2", "1/3", "1/7"), (F(3, 7),)]:
        _assert_rule_matches_oracle(point)


def test_negative_index_claims_no_point():
    point = (F(3, 5), F(1, 2), F(1, 5))
    for closed in (False, True):
        assert not region_membership(point, NonNegSymbol(-1), closed=closed)
    claims = [s for s in _probe_symbols(3) if region_membership(point, s)]
    assert claims == [PairSymbol(1, 2)]


def test_region_membership_needs_a_coordinate():
    with pytest.raises(DegenerateInputError, match="point needs at least one coordinate"):
        region_membership((), NonNegSymbol(0))


# the audit against a reference built on the oracle ----------------------------


def _reference_audit(n, samples, seed, max_denominator) -> DecompositionReport:
    """decomposition_check as written on Fraction points and the oracle rule."""
    rng = random.Random(seed)
    violations = []
    mismatches = 0
    for _ in range(samples):
        x = sample_rational_point(rng, n, max_denominator)
        slack = 1 - sum(x[:n - 1]) if n >= 2 else F(1)
        matches = []
        if slack >= 0:
            k = int(slack / x[n - 1])
            matches += [NonNegSymbol(c) for c in (k - 1, k, k + 1)
                        if c >= 0 and _fraction_membership(x, NonNegSymbol(c))]
        matches += [s for s in candidate_symbols(n) if _fraction_membership(x, s)]
        if len(matches) != 1:
            violations.append((x, len(matches)))
        elif classify_nd(PointN(x)) != matches[0]:
            mismatches += 1
    return DecompositionReport(n=n, samples=samples, violations=tuple(violations),
                               classify_mismatches=mismatches)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("seed, max_den", [(11, 10_000), (12, 12), (13, 40)])
def test_decomposition_check_equals_reference_audit(n, seed, max_den):
    # the small denominator bounds put many samples on facets and ridges
    report = decomposition_check(n, 120, seed=seed, max_denominator=max_den)
    assert report == _reference_audit(n, 120, seed, max_den)


#: sample_rational_point(random.Random(20240), 4, 10_000), twenty draws, as
#: (numerator, denominator) pairs; the benchmark's audit check replays them.
_SAMPLER_PIN = [
    ((1674, 2033), (3903, 8132), (1351, 4066), (59, 2033)),
    ((1109, 1214), (899, 1214), (186, 607), (737, 2428)),
    ((2416, 2447), (2210, 2447), (1625, 2447), (932, 2447)),
    ((5578, 9003), (4177, 9003), (3941, 9003), (857, 9003)),
    ((2567, 3151), (5050, 9453), (5047, 9453), (3773, 9453)),
    ((738, 781), (3029, 4686), (2677, 9372), (2525, 9372)),
    ((3065, 3194), (4055, 4791), (3716, 4791), (365, 1597)),
    ((1715, 1877), (1361, 1877), (1063, 1877), (855, 1877)),
    ((6620, 7201), (5819, 7201), (2102, 7201), (458, 7201)),
    ((2857, 4501), (1695, 4501), (102, 643), (292, 4501)),
    ((2467, 4121), (4703, 8242), (919, 8242), (909, 8242)),
    ((6872, 8739), (760, 971), (5207, 8739), (4711, 8739)),
    ((4912, 8633), (2808, 8633), (2346, 8633), (1081, 8633)),
    ((9477, 9791), (7201, 9791), (4316, 9791), (1116, 9791)),
    ((8869, 8922), (7175, 8922), (1988, 4461), (1179, 2974)),
    ((6419, 9752), (2883, 4876), (5455, 9752), (1373, 9752)),
    ((367, 502), (2239, 3263), (1602, 3263), (1927, 6526)),
    ((8206, 8497), (7013, 8497), (5984, 8497), (4829, 8497)),
    ((758, 927), (2941, 7416), (325, 1236), (43, 3708)),
    ((2107, 3765), (70, 251), (153, 1255), (83, 753)),
]


def test_sampler_draws_are_pinned():
    rng = random.Random(20240)
    drawn = [sample_rational_point(rng, 4, 10_000) for _ in range(20)]
    assert drawn == [tuple(F(p, q) for p, q in point) for point in _SAMPLER_PIN]


@pytest.mark.parametrize("n, k, bits, lengths", [
    (2, 2, 512, (100, 200)),
    (3, 1, 512, (100, 200)),
    # refines at steps 48, 100 and 200: both lengths run n + 1 steps past the
    # last, so every column has been brought to the last rescale
    (3, 1, 64, (300, 400)),
], ids=["n2", "n3", "n3-refining"])
def test_full_dot_products_do_not_grow_with_run_length(monkeypatch, n, k, bits, lengths):
    # carried forms, the domain check's too, pay a full-width dot product at
    # most once per column after each rescale, never per query
    real = _Epoch.dot
    calls = []

    def dot(self, coeffs):
        calls.append(len(coeffs))
        return real(self, coeffs)

    monkeypatch.setattr(_Epoch, "dot", dot)
    seen = []
    for length in lengths:
        calls.clear()
        if n == 2:
            rec = sequence(period_one_point(k, bits), length)
        else:
            rec = sequence_nd(fixed_point_nd(n, k, bits), length)
        assert len(rec.symbols) == length
        assert len(calls) <= (n + 1) * rec.refinements
        seen.append((rec.refinements, len(calls)))
    assert seen[0] == seen[1]


# remainder histories, built on first read -----------------------------------


def _ordinary_run(ev, cols, max_len, each=None):
    """The engine's run with no batch: every step an ordinary certified one,
    and ``each``, if given, sees the columns its own step pushed.  It returns
    the symbols, the status, the final columns and the epochs that ``_run``
    keeps."""
    n = len(cols) - 1
    symbols = []
    epochs = [(0, ev.epoch)]
    while True:
        s = ev.certified_sign(cols[-1])
        if s is Sign.NEGATIVE:
            raise ValueError("last remainder is negative")
        if s is Sign.ZERO:
            return symbols, SequenceStatus.TERMINATED, cols, epochs
        if len(symbols) == max_len:
            return symbols, SequenceStatus.TRUNCATED, cols, epochs
        try:
            if s is Sign.AMBIGUOUS:
                raise PrecisionExhaustedError("last remainder sign is ambiguous")
            symbol, inserted = simplex._decide(ev, cols)
        except PrecisionExhaustedError:
            return symbols, SequenceStatus.PRECISION_EXHAUSTED, cols, epochs
        cols = push_column(cols, symbol.j if isinstance(symbol, PairSymbol) else n, inserted)
        symbols.append(symbol)
        if ev.epoch is not epochs[-1][1]:
            epochs.append((len(symbols), ev.epoch))
        if each:
            each(cols)


def _unbatched(patch):
    """Make every run's batches decide nothing, so each step is an ordinary one."""
    patch.setattr(simplex, "_batch", lambda ev, cols, room: ([], cols))


def _engine_state(coords, max_len, cap_bits, allow_zero_last, batched):
    """What a run leaves, from ``_run`` or from ``_ordinary_run``: its symbols,
    status, final columns, refinements, working bits and epochs."""
    if batched:
        symbols, history, status, matrix, refinements, bits = simplex._run(
            coords, max_len, cap_bits, allow_zero_last=allow_zero_last)
        epochs = history.epochs
    else:
        ev, cols = _start(coords, cap_bits, allow_zero_last=allow_zero_last)
        symbols, status, cols, epochs = _ordinary_run(ev, cols, max_len)
        matrix, refinements, bits = mat_from_columns([c.coeffs for c in cols]), ev.refinements, ev.bits
    return (tuple(symbols), status, matrix, refinements, bits,
            [(t, ep.mids, ep.rads, ep.scale, ep.bits) for t, ep in epochs])


def _materialized_history(coords, max_len, kind):
    """The history the records used to build eagerly: ``materialize`` at each step.

    ``kind`` is "nd" (rows of every column), "planar" (the three seed columns,
    then the inserted one) or "gauss" (the current remainder)."""
    ev, cols = _start(coords, None, allow_zero_last=kind == "planar")
    if kind == "nd":
        hist = [tuple(ev.materialize(c) for c in cols)]
    elif kind == "planar":
        hist = [ev.materialize(c) for c in cols]
    else:
        hist = [ev.materialize(cols[1])]

    def each(cols):
        if kind == "nd":
            hist.append(tuple(ev.materialize(c) for c in cols))
        else:
            hist.append(ev.materialize(cols[2 if kind == "planar" else 1]))

    _ordinary_run(ev, cols, max_len, each)
    return tuple(hist), ev.refinements


def _same_values(a, b) -> bool:
    """Equal, with each BigFloat's integers and precision equal too."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same_values, a, b))
    if isinstance(a, BigFloat):
        return type(b) is BigFloat and (a.lo_num, a.hi_num, a.prec) == (b.lo_num, b.hi_num, b.prec)
    return type(a) is type(b) is Fraction and a == b


@pytest.mark.parametrize("text, max_len, refines", [
    ("5/7", 40, False),
    ("dec:0.6180339887498948482045868343656:96", 60, False),
    ("root:-1,1,1:0,1:pow1", 150, True),
    ("17/19,4/19", 40, False),
    ("dec:0.54,0.29:128", 80, False),
    ("root:-1,1,2,1:0,1:pow2", 200, True),
    ("11/13,9/13,3/13", 40, False),
    ("dec:0.9,0.7,0.30000000000000000000001:64", 40, False),
    # refines mid-run: its d-values in cli_golden.json mix two precisions
    ("root:-1,1,1,2,1:0,1:pow3", 32, True),
], ids=["rational-1", "dec-1", "root-1", "rational-2", "dec-2", "root-2",
        "rational-3", "dec-3", "root-3"])
def test_history_equals_materialize_at_each_step(text, max_len, refines):
    # every run parses its own point, as the CLI does
    def point():
        return parse_point(text, 64)

    expected, refinements = _materialized_history(point(), max_len, "nd")
    rec = sequence_nd(PointN(point()), max_len)
    assert (rec.refinements > 0) is refines and rec.refinements == refinements
    assert type(rec.d_history) is tuple
    assert _same_values(rec.d_history, expected)
    if len(point()) == 2:
        expected, _ = _materialized_history(point(), max_len, "planar")
        rec = sequence(Point2(*point()), max_len)
        assert type(rec.d_history) is tuple and _same_values(rec.d_history, expected)
    if len(point()) == 1:
        expected, _ = _materialized_history(point(), max_len, "gauss")
        rec = gauss_sequence(point()[0], max_len)
        assert type(rec.remainders) is tuple and _same_values(rec.remainders, expected)


def test_records_compare_and_print_their_values():
    coords = parse_point("root:-1,1,2,1:0,1:pow2", 64)
    made = [sequence(Point2(*coords), 60), sequence(Point2(*coords), 60)]
    # equality and repr read the history; the first read builds it
    assert made[0] == made[1] and hash(made[0]) == hash(made[1])
    assert repr(made[0]) == repr(made[1])
    assert f"d_history={made[0].d_history!r}" in repr(made[0])
    assert made[0] != sequence(Point2(*coords), 59)
    fields = [f.name for f in dataclasses.fields(made[0])]
    assert fields == ["symbols", "d_history", "status", "matrix", "refinements", "precision_bits"]
    rows = sequence_nd(PointN(coords), 30)
    assert rows == sequence_nd(PointN(coords), 30) and repr(rows) == repr(sequence_nd(PointN(coords), 30))
    assert [f.name for f in dataclasses.fields(GaussRecord)] == ["quotients", "remainders", "status"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        made[0].d_history = ()
    # a record built by hand takes its history as given
    rec = GaussRecord((2,), (Fraction(1, 2), Fraction(0)), SequenceStatus.TERMINATED)
    assert rec.remainders == (Fraction(1, 2), Fraction(0))
    assert rec == gauss_sequence(Fraction(1, 2), 5)


def test_runs_leave_their_point_as_parsed():
    # the powers of one root share an enclosure; each run refines its own copy
    coords = parse_point("root:-1,1,2,1:0,1:pow2", 64)
    enc = coords[0].source.enclosure
    parsed = (enc.lo_num, enc.hi_num, enc.shift)
    first = sequence_nd(PointN(coords), 200)
    second = sequence_nd(PointN(coords), 200)
    assert first.refinements == second.refinements == 3
    assert first == second
    assert (enc.lo_num, enc.hi_num, enc.shift) == parsed


def test_history_rows_share_shifted_values():
    rec = sequence_nd(PointN(parse_point("root:-1,1,1,2,1:0,1:pow3", 512)), 32)
    assert rec.refinements == 0
    rows = rec.d_history
    # each step keeps every column but d_0, and between refinements its value too
    shared = sum(any(v is w for w in prev) for prev, row in zip(rows, rows[1:]) for v in row)
    assert shared == 3 * (len(rows) - 1)


def _eager_rows(coords, max_len, cap_bits, allow_zero_last):
    """The value of every column, with the working bits, after each step of a
    run: what a record that collected its history while running would hold."""
    ev, cols = _start(coords, cap_bits, allow_zero_last=allow_zero_last)
    rows = [(tuple(map(ev.materialize, cols)), ev.bits)]
    _, status, _, _ = _ordinary_run(ev, cols, max_len,
                                    lambda cols: rows.append((tuple(map(ev.materialize, cols)), ev.bits)))
    return rows, status, ev.refinements


_TERMINATED, _TRUNCATED, _EXHAUSTED = (SequenceStatus.TERMINATED, SequenceStatus.TRUNCATED,
                                       SequenceStatus.PRECISION_EXHAUSTED)


@pytest.mark.parametrize("text, max_len, cap_bits, status, refines", [
    ("5/7", 40, None, _TERMINATED, False),
    ("dec:0.6180339887498948482045868343656:96", 100, None, _EXHAUSTED, False),
    ("root:-1,1,1:0,1:pow1", 150, None, _TRUNCATED, True),
    ("root:-1,1,1:0,1:pow1", 400, 128, _EXHAUSTED, True),
    ("17/19,4/19", 40, None, _TERMINATED, False),
    ("dec:0.54,0.29:128", 80, None, _EXHAUSTED, False),
    ("root:-1,1,2,1:0,1:pow2", 200, None, _TRUNCATED, True),
    # refines in its last two steps: the final row is one precision throughout
    ("root:-1,1,2,1:0,1:pow2", 38, None, _TRUNCATED, True),
    ("root:-1,1,2,1:0,1:pow2", 400, 128, _EXHAUSTED, True),
    ("11/13,9/13,3/13", 40, None, _TERMINATED, False),
    ("dec:0.9,0.7,0.30000000000000000000001:64", 40, None, _EXHAUSTED, False),
    ("root:-1,1,1,2,1:0,1:pow3", 32, None, _TRUNCATED, True),
    ("root:-1,1,1,2,1:0,1:pow3", 400, 128, _EXHAUSTED, True),
])
def test_replayed_history_equals_eager_collection(text, max_len, cap_bits, status, refines):
    coords = parse_point(text, 64)
    n = len(coords)
    rows, got_status, refinements = _eager_rows(coords, max_len, cap_bits, n == 2)
    assert got_status is status and (refinements > 0) is refines
    if refines:
        # some step refined between two yields, so the rows mix two precisions
        assert len({bits for _, bits in rows}) > 1
    values = tuple(row for row, _ in rows)

    def run_nd():
        return sequence_nd(PointN(parse_point(text, 64)), max_len, cap_bits=cap_bits)

    assert _same_values(run_nd().d_history, values)
    assert _same_values(_last_remainders(run_nd()), values[-1])
    # a flat history: the seed remainders, the planar one from d_0 = 1 and the
    # continued fraction's from x, then each step's inserted one
    inserted = tuple(row[-1] for row in values[1:])
    if n == 2:
        flat = values[0] + inserted
        def run_planar():
            return sequence(Point2(*parse_point(text, 64)), max_len, cap_bits=cap_bits)

        assert _same_values(run_planar().d_history, flat)
        assert _same_values(_last_remainders(run_planar()), values[-1])
    if n == 1:
        def run_gauss():
            return gauss_sequence(parse_point(text, 64)[0], max_len, cap_bits=cap_bits)

        assert _same_values(run_gauss().remainders, values[0][1:] + inserted)
        assert _same_values(_last_remainders(run_gauss()), values[-1])


def test_final_row_after_a_late_refinement():
    # a refinement in the run's last two steps: the flat history's last three
    # entries mix precisions, while the final columns are all read at the last one
    rec = sequence(Point2(*parse_point("root:-1,1,2,1:0,1:pow2", 64)), 38)
    assert [d.prec for d in _last_remainders(rec)] == [132, 132, 132]
    assert [d.prec for d in rec.d_history[-3:]] == [66, 66, 132]


def _history(rec):
    return rec.remainders if isinstance(rec, GaussRecord) else rec.d_history


def test_history_read_makes_no_query(monkeypatch):
    coords = parse_point("root:-1,1,1,2,1:0,1:pow3", 64)
    records = [sequence_nd(PointN(coords), 120), sequence(Point2(*coords[:2]), 120),
               gauss_sequence(coords[0], 120)]
    fresh = sequence_nd(PointN(coords), 120)
    assert all(rec.refinements > 0 for rec in (records[0], records[1], fresh))
    # pickled and deep-copied records, their histories still unread
    copies = [pickle.loads(pickle.dumps(rec)) for rec in records]
    copies += [copy.deepcopy(rec) for rec in records]
    assert not any(isinstance(v, tuple) for rec in copies
                   for k, v in vars(rec).items() if k in ("d_history", "remainders"))
    calls = []
    for name in ("certified_sign", "certified_floor", "refine", "exact_zero", "materialize",
                 "eval_bounds"):
        real = getattr(FormEvaluator, name)
        monkeypatch.setattr(FormEvaluator, name,
                            lambda self, *args, _name=name, _real=real: calls.append(_name)
                            or _real(self, *args))
    tail = _last_remainders(fresh)
    histories = [_history(rec) for rec in records]
    copied = [_history(rec) for rec in copies]
    assert calls == []
    assert _same_values(tail, histories[0][-1])
    for rec, orig, history, got in zip(copies, records * 2, histories * 2, copied):
        assert _same_values(got, history) and rec == orig


@pytest.mark.parametrize("kind, text, max_len", [
    ("nd", "root:-1,1,1,2,1:0,1:pow3", 120),
    ("nd", "11/13,9/13,3/13", 40),
    ("planar", "root:-1,1,2,1:0,1:pow2", 120),
    ("planar", "17/19,4/19", 40),
    ("gauss", "root:-1,1,1:0,1:pow1", 120),
    ("gauss", "5/7", 40),
    # one remainder in the flat history, two final ones: no slice of it gives them
    ("gauss", "root:-1,1,1:0,1:pow1", 0),
    ("gauss", "5/7", 0),
])
def test_final_remainders_after_a_read(monkeypatch, kind, text, max_len):
    coords = parse_point(text, 64)
    make = {"nd": lambda: sequence_nd(PointN(coords), max_len),
            "planar": lambda: sequence(Point2(*coords), max_len),
            "gauss": lambda: gauss_sequence(coords[0], max_len)}[kind]
    rec, fresh = make(), make()
    before = _last_remainders(rec)
    history = _history(rec)
    calls = []
    for name in ("certified_sign", "certified_floor", "refine", "exact_zero", "materialize",
                 "eval_bounds"):
        real = getattr(FormEvaluator, name)
        monkeypatch.setattr(FormEvaluator, name,
                            lambda self, *args, _name=name, _real=real: calls.append(_name)
                            or _real(self, *args))
    after = _last_remainders(rec)
    assert calls == []
    assert _same_values(after, before) and _same_values(after, _last_remainders(fresh))
    assert _history(rec) is history and len(after) == len(coords) + 1
    if kind == "nd":
        assert _same_values(after, history[-1])
    if max_len == 0 and kind == "gauss":
        assert len(history) == 1


@pytest.mark.parametrize("kind, text, max_len", [
    ("nd", "root:-1,1,1,2,1:0,1:pow3", 120),
    ("nd", "11/13,9/13,3/13", 40),
    ("nd", "11/13,9/13,3/13", 0),
    ("planar", "root:-1,1,2,1:0,1:pow2", 120),
    ("planar", "17/19,4/19", 40),
    ("planar", "17/19,4/19", 0),
    ("gauss", "root:-1,1,1:0,1:pow1", 120),
    ("gauss", "5/7", 40),
    ("gauss", "root:-1,1,1:0,1:pow1", 0),
    ("gauss", "5/7", 0),
])
def test_final_remainders_of_a_tuple_history(kind, text, max_len):
    # dataclasses.replace and the constructor leave the history a plain tuple:
    # the final remainders are read off it
    coords = parse_point(text, 64)
    rec = {"nd": lambda: sequence_nd(PointN(coords), max_len),
           "planar": lambda: sequence(Point2(*coords), max_len),
           "gauss": lambda: gauss_sequence(coords[0], max_len)}[kind]()
    expected = _last_remainders(rec)
    field = "remainders" if kind == "gauss" else "d_history"
    copies = [dataclasses.replace(rec),
              type(rec)(*(getattr(rec, f.name) for f in dataclasses.fields(rec)))]
    for copied in copies:
        assert type(vars(copied)[field]) is tuple and copied == rec
        assert _same_values(_last_remainders(copied), expected)


def test_negative_last_remainder_is_a_kernel_fault(floor_off_by):
    # a floor one too high leaves 1/2 - 2 * 1/3 as the last remainder: the
    # remainders' order is broken, which no precision would mend
    point = PointN((F(1, 2), F(1, 3)))
    assert sequence_nd(point, 10).symbols[0] == NonNegSymbol(1)
    floor_off_by(1)
    # found before the next step, and at the end of a run as well
    for max_len in (10, 1):
        with pytest.raises(ValueError, match="last remainder is negative"):
            sequence_nd(point, max_len)


def test_negative_floor_is_recorded_as_it_was_pushed(floor_off_by):
    # at (3/5, 1/2) the first floor is 0; one too low must stay -1, and the
    # replay refuses it rather than pushing some other column
    point = PointN((F(3, 5), F(1, 2)))
    assert sequence_nd(point, 1).symbols == (NonNegSymbol(0),)
    floor_off_by(-1)
    rec = sequence_nd(point, 1)
    assert rec.symbols == (NonNegSymbol(-1),)
    with pytest.raises(ValueError, match="must be >= 0"):
        rec.d_history


def test_a_wrong_floor_reaches_the_exact_classifiers(floor_off_by):
    # exact points classify on their integers, still through simplex._decide
    planar, point = (F(1, 2), F(1, 5)), (F(1, 2), F(1, 5), F(1, 7))
    assert classify(Point2(*planar)) == 2
    assert classify_nd(PointN(planar)) == NonNegSymbol(2)
    assert classify_nd(PointN(point)) == NonNegSymbol(2)
    floor_off_by(1)
    assert classify(Point2(*planar)) == 3
    assert classify_nd(PointN(planar)) == NonNegSymbol(3)
    assert classify_nd(PointN(point)) == NonNegSymbol(3)


# exact points decide on their integers ----------------------------------------


def _outcome(decide):
    """A decision's symbol, or the type and message of what it raised."""
    try:
        return decide()
    except Exception as exc:
        return type(exc), str(exc)


def _exact_coordinate(value: Fraction, kind: str):
    """``value`` as an int or a bool where it is one, else as itself."""
    if kind == "int" and value.denominator == 1:
        return int(value)
    if kind == "bool" and value in (0, 1):
        return bool(value)
    return value


@st.composite
def exact_points(draw):
    """Small-denominator coordinates, often sorted, so that ties (x_1 = 1,
    x_t = x_{t+1}, x_n = 0), negative coordinates and x_1 > 1 all come up;
    some as ints and bools."""
    n = draw(st.integers(1, 6))
    den = draw(st.integers(1, 12))
    nums = draw(st.lists(st.integers(-den, 2 * den), min_size=n, max_size=n))
    if draw(st.booleans()):
        nums.sort(reverse=True)
    kinds = draw(st.lists(st.sampled_from(["fraction", "int", "bool"]), min_size=n, max_size=n))
    coords = tuple(_exact_coordinate(Fraction(p, den), k) for p, k in zip(nums, kinds))
    names = draw(st.sampled_from([None, ("alpha", "beta")])) if n == 2 else None
    cap_bits = draw(st.sampled_from([None, 64, MAX_PRECISION, MAX_PRECISION + 1]))
    return coords, cap_bits, names


@given(exact_points())
@settings(max_examples=400)
@example(((F(1), F(1, 2), F(1, 3)), None, None))
@example(((F(2, 3), F(1, 3), F(1, 3)), None, None))
@example(((F(2, 3), F(1, 3), F(0)), None, None))
@example(((F(1, 2), F(-1, 3)), None, ("alpha", "beta")))
@example(((F(3, 2), F(1, 3), F(1, 4)), None, None))
@example(((1, True, 1), None, None))
@example(((True, False), None, ("alpha", "beta")))
@example(((F(1, 2), F(1, 3), F(1, 4)), MAX_PRECISION + 1, None))
def test_integer_classification_equals_the_evaluator(case):
    coords, cap_bits, names = case
    expected = _outcome(lambda: _decide(*_start(coords, cap_bits, names))[0])
    assert _outcome(lambda: simplex._classify(coords, cap_bits, names)) == expected
    if names is None:
        assert _outcome(lambda: classify_nd(PointN(coords), cap_bits=cap_bits)) == expected
    else:
        wedge = expected.k if isinstance(expected, NonNegSymbol) else expected
        assert _outcome(lambda: classify(Point2(*coords), cap_bits=cap_bits)) == wedge


def test_exact_points_classify_with_no_evaluator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an exact point built an evaluator")

    monkeypatch.setattr(simplex, "FormEvaluator", refuse)
    assert classify_nd(PointN((F(9, 10), F(9, 10), F(1, 10)))) == PairSymbol(1, 3)
    assert classify(Point2(1, F(1, 2))) == 0
    assert decomposition_check(4, 200, seed=3).ok
    with pytest.raises(DegenerateInputError, match="beta exceeds alpha"):
        classify(Point2(F(1, 3), F(1, 2)))


# exact points run on packed integers ------------------------------------------


def _continued_fraction(quotients) -> Fraction:
    """[0; a_1, a_2, ...] for the partial quotients a_t."""
    x = Fraction(0)
    for a in reversed(quotients):
        x = 1 / (a + x)
    return x


#: A prefix at n = 3 with floors of 10**20 and 10**4000 and pair steps.
_EXACT_PREFIX = (NonNegSymbol(10 ** 20), PairSymbol(1, 3), NonNegSymbol(10 ** 4000), PairSymbol(1, 2),
                 NonNegSymbol(2))
_EXACT_TAIL = (F(7, 9), F(4, 9), F(1, 9))


def _evaluator_fields(coords, max_len, lead):
    """``_run``'s fields from the evaluator's unbatched loop, ``_ordinary_run``."""
    ev, cols = _start(coords, None, allow_zero_last=lead == 3)
    symbols, status, cols, epochs = _ordinary_run(ev, cols, max_len)
    symbols = tuple(symbols)
    matrix = mat_from_columns([c.coeffs for c in cols])
    return (symbols if lead is None else tuple(s.k for s in symbols),
            simplex._Snapshots(len(cols) - 1, symbols, epochs, matrix, lead), status, matrix,
            ev.refinements, ev.bits)


def _run_record(fields, lead):
    """The record of ``_run``'s fields: n-D, planar (lead 3) or Gauss (lead 1)."""
    if lead is None:
        return SequenceRecordN(*fields)
    symbols, history, status, matrix, refinements, bits = fields
    if lead == 3:
        return SequenceRecord(symbols, history, status, IntMatrix(matrix), refinements, bits)
    return GaussRecord(symbols, history, status)


def _epochs(history):
    return [(t, ep.mids, ep.rads, ep.scale, ep.bits) for t, ep in history.epochs]


def _cylinder_point(prefix, tail):
    """The point whose run is the symbols ``prefix`` and then the run of
    ``tail``, a point inside the domain: (1, tail) times the inverse of the
    prefix's product, over its first entry (``cylinder_vertices``' map)."""
    den = lcm(*(y.denominator for y in tail))
    row = (den, *(int(y * den) for y in tail))
    row = mat_mul((row,), mat_inverse_unimodular(product_matrix_nd(prefix, len(tail))))[0]
    return tuple(F(c, row[0]) for c in row[1:])


@contextlib.contextmanager
def _long_int_text():
    """Lift Python's cap of 4,300 digits on int/str conversion, as the CLI
    does, for the reprs of records with quotients of 10**4000."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@st.composite
def exact_runs(draw):
    """A rational point at n = 1-6 and a cut: either a point whose run starts
    with a drawn symbol prefix, with floors of 10**20 and 10**4000 that make
    the digits widen, or a small-denominator point with ties (x_1 = 1,
    x_t = x_{t+1}, x_n = 0).  The cut is a max_len, or "all", "exact" (the
    terminating step's) or "short" (one less)."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        floors = st.sampled_from([k for k in (0, 1, 2, 3, 10 ** 20, 10 ** 4000) if k >= (n == 1)])
        steps = floors.map(NonNegSymbol)
        if n >= 3:
            steps = steps | st.sampled_from(candidate_symbols(n))
        prefix = draw(st.lists(steps, max_size=5))
        # a tail strictly inside the domain, so the point is inside the cylinder
        den = draw(st.integers(n + 1, 40))
        nums = draw(st.lists(st.integers(1, den - 1), min_size=n, max_size=n, unique=True))
        coords = _cylinder_point(prefix, tuple(F(p, den) for p in sorted(nums, reverse=True)))
    else:
        prefix = []
        den = draw(st.integers(1, 12))
        coords = tuple(sorted((F(draw(st.integers(0, den)), den) for _ in range(n)), reverse=True))
    return coords, tuple(prefix), draw(st.sampled_from(["all", "exact", "short"]) | st.integers(0, 20))


@given(exact_runs())
@settings(max_examples=150, deadline=None)
@example(((_continued_fraction([10 ** 20] * 3 + [10 ** 4000, 2, 10 ** 20]),), (), "all"))
@example(((_continued_fraction([10 ** 20] * 3 + [10 ** 4000, 2, 10 ** 20]),), (), "exact"))
@example((_cylinder_point(_EXACT_PREFIX, _EXACT_TAIL), _EXACT_PREFIX, "exact"))
@example((_cylinder_point(_EXACT_PREFIX, _EXACT_TAIL), _EXACT_PREFIX, "short"))
@example(((F(1), F(1, 2), F(1, 3)), (), "exact"))
@example(((F(1), F(9, 10), F(1, 10)), (), "all"))
@example(((F(2, 3), F(2, 3), F(1, 3), F(1, 3)), (), "all"))
@example(((F(1, 2), F(0)), (), "all"))
@example(((F(17, 19), F(4, 19)), (), "exact"))
def test_exact_runs_equal_the_evaluator(case):
    # the packed loop leaves every record as the evaluator's unbatched loop does
    coords, prefix, cut = case
    n = len(coords)
    for lead in [None] + ([3] if n == 2 else [1] if n == 1 else []):
        try:
            length = len(_evaluator_fields(coords, 10 ** 6, lead)[0])
        except DegenerateInputError as exc:
            with pytest.raises(DegenerateInputError, match=f"^{exc}$"):
                simplex._run(coords, 0, None, lead=lead, allow_zero_last=lead == 3)
            continue
        max_len = {"all": 10 ** 6, "exact": length, "short": max(length - 1, 0)}.get(cut, cut)
        expected = _evaluator_fields(coords, max_len, lead)
        got = simplex._run(coords, max_len, None, lead=lead, allow_zero_last=lead == 3)
        assert got[0] == expected[0] and got[0][:len(prefix)] == tuple(
            s if lead is None else s.k for s in prefix)[:len(got[0])]
        assert got[2] is expected[2] and got[3] == expected[3] and got[4:] == expected[4:]
        if cut == "exact":
            assert got[2] is _TERMINATED
        assert _epochs(got[1]) == _epochs(expected[1])
        rec, ref = _run_record(got, lead), _run_record(expected, lead)
        assert _same_values(_last_remainders(rec), _last_remainders(ref))
        assert _same_values(_history(rec), _history(ref))
        with _long_int_text():
            assert rec == ref and repr(rec) == repr(ref)


def test_exact_runs_build_no_evaluator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an exact point built an evaluator")

    monkeypatch.setattr(simplex, "FormEvaluator", refuse)
    rec = sequence_nd(PointN(_cylinder_point(_EXACT_PREFIX, _EXACT_TAIL)), 100)
    assert rec.symbols[:len(_EXACT_PREFIX)] == _EXACT_PREFIX and rec.status is _TERMINATED
    assert gauss_sequence(F(5, 7), 10).quotients == (1, 2, 2)
    assert sequence(Point2(F(1, 2), F(0)), 10).status is _TERMINATED
    with pytest.raises(DegenerateInputError, match="beta exceeds alpha"):
        sequence(Point2(F(1, 3), F(1, 2)), 10)
    # a cap above the ceiling goes to the evaluator, which refuses it
    with pytest.raises(AssertionError, match="built an evaluator"):
        sequence_nd(PointN((F(1, 2),)), 10, cap_bits=MAX_PRECISION + 1)


# batched steps ----------------------------------------------------------------


_BIG = 10 ** 45


def _dyadic(*nums: int, bits: int) -> str:
    """A ``dec:`` point of the exact dyadic values p / 2**bits for p in nums."""
    return "dec:" + ",".join(f"0.{p * 5 ** bits:0{bits}d}" for p in nums) + f":{bits}"


# rational rows run on packed integers, so they compare that loop with the
# evaluator's unbatched one; dyadic rows are exact points the evaluator runs
@pytest.mark.parametrize("text, max_len, cap_bits, status, refines", [
    ("5/7", 40, None, _TERMINATED, False),
    (f"{_BIG * 5 // 8 + 7}/{_BIG}", 200, None, _TERMINATED, False),
    # over 128 bits: the window cuts exact bounds too
    pytest.param(_dyadic(2 ** 160 * 5 // 8 + 7 ** 50, bits=160), 400, None, _TERMINATED, False,
                 id="dyadic-1-160"),
    pytest.param(_dyadic(*(2 ** 160 * k // 10 + e for k, e in ((9, 3 ** 90), (7, 5 ** 60), (3, 7 ** 50))),
                         bits=160), 400, None, _TERMINATED, False, id="dyadic-3-160"),
    ("dec:0.6180339887498948482045868343656:96", 100, None, _EXHAUSTED, False),
    ("root:-1,1,1:0,1:pow1", 300, None, _TRUNCATED, True),
    ("root:-1,1,1:0,1:pow1", 400, 128, _EXHAUSTED, True),
    ("17/19,4/19", 40, None, _TERMINATED, False),
    (f"{_BIG * 7 // 9 + 3}/{_BIG},{_BIG * 2 // 7 + 1}/{_BIG}", 400, None, _TERMINATED, False),
    ("dec:0.54,0.29:128", 80, None, _EXHAUSTED, False),
    ("root:-1,1,2,1:0,1:pow2", 300, None, _TRUNCATED, True),
    ("root:-1,1,2,1:0,1:pow2", 400, 128, _EXHAUSTED, True),
    ("370195607627/381848216645,336619384770/381848216645,288599339707/381848216645",
     100, None, _TERMINATED, False),
    ("dec:0.95646559138619455059955841977438015,0.91483640719224127693046640436625427,"
     "0.87500000000000000000000000000000000:200", 400, None, _EXHAUSTED, False),
    ("root:-7,0,0,8:0,1:pow3", 300, None, _TRUNCATED, True),
    ("root:-7,0,0,8:0,1:pow3", 600, 256, _EXHAUSTED, True),
    ("516488539417/524745386290,375593141795/524745386290,331717954813/524745386290,"
     "267950949001/524745386290", 100, None, _TERMINATED, False),
    ("dec:0.95646559138619455059955841977438015,0.91483640719224127693046640436625427,"
     "0.87500000000000000000000000000000000,0.83690739532551772676215361230258263:200",
     400, None, _EXHAUSTED, False),
    ("root:-7,0,0,8:0,1:pow4", 300, None, _TRUNCATED, True),
    ("root:-7,0,0,8:0,1:pow4", 600, 256, _EXHAUSTED, True),
])
def test_batched_runs_equal_unbatched(monkeypatch, text, max_len, cap_bits, status, refines):
    # a window decision is the evaluator's own, so batches change no symbol,
    # status, refinement, epoch, column or history of any record
    n = len(parse_point(text, 64))
    runs = {"nd": lambda: sequence_nd(PointN(parse_point(text, 64)), max_len, cap_bits=cap_bits)}
    if n == 2:
        runs["planar"] = lambda: sequence(Point2(*parse_point(text, 64)), max_len, cap_bits=cap_bits)
    if n == 1:
        runs["gauss"] = lambda: gauss_sequence(parse_point(text, 64)[0], max_len, cap_bits=cap_bits)

    def engine(batched):
        return _engine_state(parse_point(text, 64), max_len, cap_bits, n == 2, batched)

    with monkeypatch.context() as patch:
        _unbatched(patch)
        expected = {kind: make() for kind, make in runs.items()}
    got = {kind: make() for kind, make in runs.items()}
    batched = engine(True)
    assert batched == engine(False)
    symbols, got_status, _, refinements, _, _ = batched
    assert got_status is status and (refinements > 0) is refines
    if n >= 3:
        assert any(isinstance(s, PairSymbol) for s in symbols)
    for kind in runs:
        assert _same_values(_last_remainders(got[kind]), _last_remainders(expected[kind]))
        assert _same_values(_history(got[kind]), _history(expected[kind]))
        assert got[kind] == expected[kind] and repr(got[kind]) == repr(expected[kind])


@pytest.mark.parametrize("n", [2, 3])
def test_batches_decide_most_steps(monkeypatch, n):
    # a run whose steps all went to the evaluator would ask one floor per step
    length = 6400

    def run():
        if n == 2:
            return sequence(period_one_point(2, 512), length, cap_bits=2 ** 20)
        return sequence_nd(fixed_point_nd(n, 1, 512), length, cap_bits=2 ** 20)

    with monkeypatch.context() as patch:
        _unbatched(patch)
        expected = run()
    floors = []
    real = FormEvaluator.certified_floor
    monkeypatch.setattr(FormEvaluator, "certified_floor",
                        lambda self, num, den: floors.append(num) or real(self, num, den))
    rec = run()
    assert len(floors) < length // 10
    assert rec.symbols == expected.symbols
    assert (rec.refinements, rec.precision_bits) == (expected.refinements, expected.precision_bits)
    assert (rec.refinements, rec.precision_bits) == (5, 16448)


@pytest.mark.parametrize("n, length, batches", [
    (2, 600, [51, 16, 4, 1, 0, 50, 19, 5, 1, 51, 51, 36, 11, 2, 1, 51, 51, 51, 51, 51, 26]),
    (3, 400, [65, 21, 5, 1, 0, 65, 23, 6, 1, 0, 65, 65, 45, 13, 3, 1, 5]),
    # the second empty batch's ordinary step does not refine, so no window is
    # loaded for the step after it, whose window was empty as well
    (4, 300, [62, 23, 7, 2, 0, 62, 26, 9, 2, 0, 62, 33]),
])
def test_batch_lengths_of_period_one_runs(monkeypatch, n, length, batches):
    # the period-one runs at 128 bits decide their steps in these batches: a
    # window that ended its batches early would show here first
    lengths = []
    real = simplex._batch

    def batch(ev, cols, room):
        symbols, cols = real(ev, cols, room)
        lengths.append(len(symbols))
        return symbols, cols

    monkeypatch.setattr(simplex, "_batch", batch)
    if n == 2:
        rec = sequence(period_one_point(2, 128), length)
    else:
        rec = sequence_nd(fixed_point_nd(n, 1, 128), length)
    assert rec.status is _TRUNCATED
    assert lengths == batches


def _decimal(x: Fraction, bits: int) -> str:
    """A ``dec:`` point enclosing x in (0, 1) at ``bits``: its decimal digits to
    past 2**-bits, so the enclosure is about 2**-bits wide."""
    digits = bits // 3
    return f"dec:0.{x.numerator * 10 ** digits // x.denominator:0{digits}d}:{bits}"


def test_empty_batches_back_off(monkeypatch):
    # partial quotients of 10**20 do not fit a window: every batch is empty, and
    # after each one (its ordinary step does not refine) the engine skips the
    # window for twice as many steps as after the one before.  An exact point
    # runs on no window, so the point is an enclosure of [0; 10**20 x 60, 2]
    # wide enough for its first 60 quotients only: the 61st, an integer ratio
    # of the rational, is undecidable on it
    x = parse_point(_decimal(_continued_fraction([10 ** 20] * 60 + [2]), 8192), 64)[0]
    with monkeypatch.context() as patch:
        _unbatched(patch)
        expected = gauss_sequence(x, 100)
    loads = []
    real = FormEvaluator.window
    monkeypatch.setattr(FormEvaluator, "window", lambda self, cols: loads.append(cols) or real(self, cols))
    rec = gauss_sequence(x, 100)
    assert rec.quotients == (10 ** 20,) * 60 and rec.status is _EXHAUSTED
    assert len(loads) <= 8
    assert rec == expected and repr(rec) == repr(expected)
    assert _same_values(_history(rec), _history(expected))


_HUGE_THEN_ONES = _continued_fraction([10 ** 20] * 8 + [1] * 40 + [10 ** 20] * 24 + [2])


@pytest.mark.parametrize("text, bits, max_len, loads", [
    # 8 quotients of 10**20, 40 ones and 24 more of 10**20, on an enclosure as
    # in test_empty_batches_back_off: the batch that decides the ones starts
    # the backoff over at the next huge quotient
    pytest.param(_decimal(_HUGE_THEN_ONES, 8192), 64, 200, [0, 2, 5, 10, 49, 51, 54, 59, 68],
                 id="huge-then-ones-dec-8192"),
    # every quotient 10**20, on a root that refines at steps 2, 4, 8, 16 and 31:
    # each refinement starts the backoff over
    (f"root:-1,{10 ** 20},1:0,1:pow1", 256, 60, [0, 2, 4, 6, 8, 10, 13, 16, 18, 21, 26, 31, 33, 36, 41, 50]),
])
def test_window_backoff_starts_over(monkeypatch, text, bits, max_len, loads):
    got = []
    real = simplex._batch
    monkeypatch.setattr(simplex, "_batch", lambda ev, cols, room: got.append(max_len - room) or real(ev, cols, room))

    def engine(batched):
        return _engine_state(parse_point(text, bits), max_len, None, False, batched)

    batched = engine(True)
    assert got == loads
    assert batched == engine(False)
    if text.startswith("dec:"):
        assert len(batched[0]) == 72 and batched[1] is _EXHAUSTED


# the domain check read off the epoch -----------------------------------------


def _check_domain_asking_every_sign(ev, units, names, allow_zero_last) -> None:
    """The domain check that builds every difference and asks its certified
    sign: the oracle for ``_check_domain``."""
    n = len(units) - 1
    for t, form in enumerate([*map(ev.sub, units, units[1:]), units[n]]):
        s = ev.certified_sign(form)
        if s is Sign.POSITIVE or (s is Sign.ZERO and (t < n or allow_zero_last)):
            continue
        names = names or [f"x_{u}" for u in range(1, n + 1)]
        if t == 0:
            msg = f"{names[0]} exceeds 1"
        elif t < n:
            msg = f"{names[t]} exceeds {names[t - 1]}"
        else:
            msg = f"{names[-1]} {'must be positive' if s is Sign.ZERO else 'is negative'}"
        if s is Sign.AMBIGUOUS:
            raise PrecisionExhaustedError(f"cannot certify domain: {msg}")
        raise DegenerateInputError(msg)


def _domain_outcome(check, coords, cap_bits, names, allow_zero_last):
    """What a domain check does on a fresh evaluator: its error (type and
    message, or None) and the evaluator's bits, refinements and epoch after it."""
    ev = FormEvaluator(coords, cap_bits=cap_bits)
    try:
        check(ev, ev.units(), names, allow_zero_last)
        error = None
    except (DegenerateInputError, PrecisionExhaustedError) as exc:
        error = (type(exc), str(exc))
    ep = ev.epoch
    return error, ev.bits, ev.refinements, (ep.mids, ep.rads, ep.scale, ep.bits)


def _assert_domain_check_matches_reference(coords, cap_bits=None, names=None, allow_zero_last=False):
    expected = _domain_outcome(_check_domain_asking_every_sign, coords, cap_bits, names, allow_zero_last)
    assert _domain_outcome(simplex._check_domain, coords, cap_bits, names, allow_zero_last) == expected
    try:
        _start(coords, cap_bits, names, allow_zero_last=allow_zero_last)
        error = None
    except (DegenerateInputError, PrecisionExhaustedError) as exc:
        error = (type(exc), str(exc))
    assert error == expected[0]
    return expected


#: The golden ratio's conjugate 0.618..., whose 64-bit enclosure ends are rationals
#: the first bounds cannot order against it: the check refines to decide them.
_GOLDEN = RootSpec(IntPolynomial((-1, 1, 1)), Fraction(0), Fraction(1))


def _golden(bits=64):
    return root_powers(_GOLDEN, 1, bits)[0]


@pytest.mark.parametrize("coords, cap_bits, allow_zero_last, error", [
    ((F(1, 2), F(1, 3), F(1, 5)), None, False, None),
    ((F(1, 2), F(1, 2), F(1, 5)), None, False, None),
    ((F(1), F(1, 3)), None, False, None),
    ((F(1), F(1), F(1)), None, False, None),
    ((F(1, 2), F(0)), None, False, (DegenerateInputError, "x_2 must be positive")),
    ((F(1, 2), F(0)), None, True, None),
    ((F(1, 3), F(1, 2)), None, False, (DegenerateInputError, "x_2 exceeds x_1")),
    ((F(3, 2),), None, False, (DegenerateInputError, "x_1 exceeds 1")),
    ((F(2, 3), F(1, 3), F(-1, 5)), None, False, (DegenerateInputError, "x_3 is negative")),
    ("dec:0.1,0.1:64", None, False,
     (PrecisionExhaustedError, "cannot certify domain: x_2 exceeds x_1")),
    ("dec:0.5,0.1,0.1:64", None, False,
     (PrecisionExhaustedError, "cannot certify domain: x_3 exceeds x_2")),
    ("dec:0.5,0.25,0.125:64", None, False, None),
    ("root:-1,1,2,1:0,1:pow2", None, False, None),
    ("root:-1,1,1,2,1:0,1:pow3", None, False, None),
    ("root:-1,1,1:0,1:pow1", 64, False, None),
    # an end of the enclosure ties its first bounds with the root: refinement decides
    ("golden:g,low", None, False, None),
    ("golden:high,g", None, False, None),
    ("golden:g,high", None, False, (DegenerateInputError, "x_2 exceeds x_1")),
    ("golden:low,g", None, False, (DegenerateInputError, "x_2 exceeds x_1")),
    ("golden:g,low", 64, False, (PrecisionExhaustedError, "cannot certify domain: x_2 exceeds x_1")),
], ids=lambda v: v if isinstance(v, str) else None)
def test_domain_check_matches_asking_every_sign(coords, cap_bits, allow_zero_last, error):
    if isinstance(coords, str) and coords.startswith("golden:"):
        g = _golden()
        named = {"g": g, "low": g.low, "high": g.high}
        # a third coordinate, checked after the refinement on bounds read before it
        coords = (*(named[c] for c in coords[len("golden:"):].split(",")), F(1, 10))
    elif isinstance(coords, str):
        coords = parse_point(coords, 64)
    outcome = _assert_domain_check_matches_reference(coords, cap_bits, None, allow_zero_last)
    assert outcome[0] == error


def test_domain_check_refines_as_asking_every_sign():
    g = _golden()
    error, bits, refinements, _ = _assert_domain_check_matches_reference((g, g.low, F(1, 10)))
    assert error is None and refinements >= 1 and bits > 64


def test_domain_check_names_its_coordinates():
    for coords in [(F(1, 3), F(1, 2)), (F(3, 2), F(1, 2)), (F(1, 2), F(0)), (F(1, 2), F(-1, 2))]:
        _assert_domain_check_matches_reference(coords, names=("alpha", "beta"))


_DOMAIN_SPECS = [RootSpec(IntPolynomial((-1, 1, k, 1)), Fraction(0), Fraction(1))
                 for k in range(1, 4)]


@st.composite
def domain_cases(draw):
    """Points on and around the domain: root powers, rationals at their
    enclosures' ends, decimals, ties, 0 and 1, sorted or not."""
    spec = draw(st.sampled_from(_DOMAIN_SPECS))
    roots = root_powers(spec, draw(st.integers(1, 3)), draw(st.integers(64, 160)))
    coords = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["root", "end", "fraction", "decimal", "edge", "tie"]))
        if kind == "root":
            coords.append(draw(st.sampled_from(roots)))
        elif kind == "end":
            r = draw(st.sampled_from(roots))
            coords.append(r.low if draw(st.booleans()) else r.high)
        elif kind == "fraction":
            coords.append(draw(st.fractions(-1, 2, max_denominator=50)))
        elif kind == "decimal":
            f = draw(st.fractions(0, 1, max_denominator=1000))
            coords.append(BigFloat.from_fraction(f, draw(st.integers(64, 128))))
        elif kind == "edge":
            coords.append(draw(st.sampled_from([F(0), F(1), 1, 0])))
        elif coords:
            coords.append(coords[-1])
    if not coords:
        coords.append(roots[0])
    if draw(st.booleans()):
        coords.sort(key=float, reverse=True)
    cap_bits = draw(st.sampled_from([None, 64, 200]))
    return tuple(coords), cap_bits, draw(st.booleans())


@settings(deadline=None, max_examples=150)
@given(domain_cases())
def test_domain_check_matches_asking_every_sign_on_random_points(case):
    coords, cap_bits, allow_zero_last = case
    _assert_domain_check_matches_reference(coords, cap_bits, None, allow_zero_last)


@pytest.mark.parametrize("coords", [
    (F(1, 2), F(1, 3), F(1, 5)),
    (F(99, 100), F(1, 2), F(1, 3), F(1, 4), F(1, 1000)),
    tuple(BigFloat.from_fraction(F(c, 8), 64) for c in (7, 4, 1)),
], ids=["n3", "n5", "dyadic"])
def test_exact_domain_point_starts_with_no_sign_query(monkeypatch, coords):
    asked = []
    real = FormEvaluator.certified_sign
    monkeypatch.setattr(FormEvaluator, "certified_sign",
                        lambda self, form: asked.append(form) or real(self, form))
    _start(coords, None)
    assert asked == []


def test_domain_ties_still_ask_their_sign(monkeypatch):
    asked = []
    real = FormEvaluator.certified_sign
    monkeypatch.setattr(FormEvaluator, "certified_sign",
                        lambda self, form: asked.append(form.coeffs) or real(self, form))
    _start((F(1), F(1, 2), F(1, 2)), None)
    assert asked == [(1, -1, 0, 0), (0, 0, 1, -1)]


# symbols served from tables ---------------------------------------------------


def test_pair_symbols_come_from_one_table():
    point = PointN((F(9, 10), F(9, 10), F(1, 10)))
    first, second = classify_nd(point), classify_nd(point)
    assert first is second and first == PairSymbol(1, 3) and str(first) == "(1,3)"
    assert simplex._pair(2, 4) == PairSymbol(2, 4) and hash(simplex._pair(2, 4)) == hash(PairSymbol(2, 4))


def test_floor_symbols_past_the_table():
    # floors are interned like pairs: a run's floor is the interned symbol, and a
    # floor outside every region or past the cache's bound equals a fresh one
    assert simplex._nonneg(3) is simplex._nonneg(3) == NonNegSymbol(3)
    assert classify_nd(PointN((F(2, 7),))) is simplex._nonneg(3)
    for k in (-1, 4096, 10 ** 20):
        assert simplex._nonneg(k) == NonNegSymbol(k) and str(simplex._nonneg(k)) == str(k)
        assert hash(simplex._nonneg(k)) == hash(NonNegSymbol(k))


# the audit with its domain test hoisted --------------------------------------


def _member_scaled_with_domain_test(xs, q, symbol, closed) -> bool:
    """The region rule with the domain test inside it, run for every candidate."""
    n = len(xs)
    last = xs[n - 1]
    if xs[0] > q[0] or last < 0 or (last == 0 and not closed):
        return False
    for t in range(n - 1):
        if xs[t] < xs[t + 1]:
            return False
    return simplex._member_scaled(xs, q, symbol, closed)


def _region_membership_per_candidate(point, symbol, *, closed=False) -> bool:
    x = [Fraction(v) for v in point]
    den = lcm(*(v.denominator for v in x))
    xs = [v.numerator * (den // v.denominator) for v in x]
    q = [den]
    for v in xs:
        q.append(q[-1] - v)
    return _member_scaled_with_domain_test(xs, q, symbol, closed)


def _audit_testing_domain_per_candidate(n, samples, seed, max_denominator) -> DecompositionReport:
    """decomposition_check with the domain tested inside every candidate."""
    rng = random.Random(seed)
    pairs = candidate_symbols(n)
    violations = []
    mismatches = 0
    for _ in range(samples):
        den, xs = simplex._sample_scaled(rng, n, max_denominator)
        q = [den]
        for v in xs:
            q.append(q[-1] - v)
        slack = q[n - 1]
        matches = []
        if slack >= 0:
            k = slack // xs[n - 1]
            for cand in (k - 1, k, k + 1):
                if _member_scaled_with_domain_test(xs, q, NonNegSymbol(cand), False):
                    matches.append(NonNegSymbol(cand))
        for sym in pairs:
            if _member_scaled_with_domain_test(xs, q, sym, False):
                matches.append(sym)
        x = tuple(Fraction(p, den) for p in xs)
        if len(matches) != 1:
            violations.append((x, len(matches)))
            continue
        if classify_nd(PointN(x)) != matches[0]:
            mismatches += 1
    return DecompositionReport(n=n, samples=samples, violations=tuple(violations),
                               classify_mismatches=mismatches)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_decomposition_check_equals_domain_tests_per_candidate(n, seed):
    # a denominator bound of n + 1 puts many samples on the top facet x_1 = 1
    for max_den in (n + 1, n + 3, 10_000):
        report = decomposition_check(n, 150, seed=seed, max_denominator=max_den)
        assert report == _audit_testing_domain_per_candidate(n, 150, seed, max_den)
        assert report.samples == 150


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_region_membership_outside_the_domain_matches_per_candidate_rule(n):
    outside = [p for p in _grid(n) if not _in_domain(p)]
    assert outside
    for point in outside:
        for sym in _probe_symbols(n):
            for closed in (False, True):
                expected = _region_membership_per_candidate(point, sym, closed=closed)
                assert region_membership(point, sym, closed=closed) is expected, (point, sym, closed)
