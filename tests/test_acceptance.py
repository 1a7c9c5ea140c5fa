"""End-to-end acceptance checks.

Each test is one acceptance criterion, run at its stated scale and
tolerance; `pytest -v` prints one pass/fail line per criterion.
"""

import math
import random
import subprocess
import sys
from fractions import Fraction

from trianglemap.matrices import (
    fundamental_identity_check,
    mat_det,
    recover_pair,
    recover_terminated,
)
from trianglemap.numeric import SequenceStatus
from trianglemap.periodicity import (
    derive_cubic,
    fixed_point_nd,
    period_one_point,
    period_one_poly,
    period_one_root,
    rational_termination_check,
)
from trianglemap.polynomials import divides
from trianglemap.realization import realize
from trianglemap.simplex import (
    NonNegSymbol,
    PointN,
    decomposition_check,
    region_vertices,
    sequence_nd,
    step_matrix_nd,
)
from trianglemap.triangle import Point2, gauss_sequence, sequence


def _fraction_expansion(x):
    """Continued-fraction quotients of x in (0, 1] by stdlib Fraction arithmetic."""
    quotients = []
    while x:
        x = 1 / x
        quotients.append(x.numerator // x.denominator)
        x -= quotients[-1]
    return tuple(quotients)


def _random_domain_pair(rng, max_den):
    den = rng.randint(2, max_den)
    b = rng.randint(1, den)
    a = rng.randint(b, den)
    return Fraction(a, den), Fraction(b, den)


def test_criterion_01_constant_streams_certified():
    # every k in 0..20: 100 symbols equal to k from 512-bit certified input,
    # with no ambiguity outcome
    for k in range(21):
        pt = period_one_point(k, 512)
        rec = sequence(pt, 100)
        assert rec.status is SequenceStatus.TRUNCATED, (k, rec.status)
        assert len(rec.symbols) == 100
        assert rec.symbols == (k,) * 100
    print("PASS 1: constant streams, k = 0..20, 100 certified symbols each")


def test_criterion_02_rational_termination_and_decrease():
    rng = random.Random(1002)
    for _ in range(1000):
        alpha, beta = _random_domain_pair(rng, 10 ** 4)
        rec = sequence(Point2(alpha, beta), 10 ** 6)
        assert rec.status is SequenceStatus.TERMINATED, (alpha, beta)
        scale = math.lcm(alpha.denominator, beta.denominator)
        ints = [d * scale for d in rec.d_history]
        assert all(v.denominator == 1 for v in map(Fraction, ints))
        for prev, cur in zip(ints[2:], ints[3:]):
            assert cur < prev, (alpha, beta)
    print("PASS 2: 1000 rational pairs terminate with strictly decreasing"
          " integer remainders")


def test_criterion_03_lattice_identity_and_unit_det():
    rng = random.Random(1003)
    for _ in range(200):
        alpha, beta = _random_domain_pair(rng, 10 ** 3)
        rec = sequence(Point2(alpha, beta), 10 ** 6)
        assert fundamental_identity_check(alpha, beta, rec.symbols), (alpha, beta)
        assert rec.matrix.det() == 1
    print("PASS 3: row-vector transport identity exact on 200 pairs,"
          " determinant one throughout")


def test_criterion_04_recovery():
    # irrational case: cross-product estimate after 40 steps
    pt = period_one_point(1, 512)
    rec = sequence(pt, 40)
    est = recover_pair(rec.matrix)
    root = period_one_root(1, 512)
    lo, hi = root.bounds()
    tol = Fraction(1, 10 ** 12)
    assert max(abs(est[0] - lo), abs(est[0] - hi)) < tol
    assert max(abs(est[1] - lo * lo), abs(est[1] - hi * hi)) < tol
    # rational case: exact recovery after termination
    rng = random.Random(1004)
    for _ in range(50):
        alpha, beta = _random_domain_pair(rng, 500)
        r = sequence(Point2(alpha, beta), 10 ** 6)
        assert r.terminated
        got = recover_terminated(r.matrix, r.d_history[-3], r.d_history[-2])
        assert got == (alpha, beta)
    print("PASS 4: estimate within 1e-12 after 40 steps; terminated input"
          " recovered exactly")


def test_criterion_05_realized_regions():
    rng = random.Random(1005)
    for _ in range(200):
        length = rng.randint(1, 8)
        prefix = tuple(rng.randint(0, 4) for _ in range(length))
        region = realize(prefix)
        wit = region.centroid()
        rec = sequence(Point2(*wit), length)
        assert rec.symbols == prefix, (prefix, rec.symbols)
        outer = realize(())
        for i in range(1, length + 1):
            inner = realize(prefix[:i])
            assert outer.contains_region(inner)
            assert abs(inner.orientation()) < abs(outer.orientation())
            outer = inner
    print("PASS 5: 200 random prefixes realized; witness reproduces prefix,"
          " regions strictly nest")


def test_criterion_06_constant_stream_cubic():
    for k in range(1, 6):
        target = period_one_poly(k)
        for later, earlier in ((2, 1), (3, 1)):
            poly = derive_cubic((k,) * 4, later, earlier)
            assert divides(target, poly), (k, later, earlier, poly)
    print("PASS 6: eliminant of each constant stream divisible by the"
          " matching cubic, k = 1..5")


def test_criterion_07_subdivision_audit():
    rep3 = decomposition_check(3, 10 ** 5, seed=1007)
    assert rep3.ok, rep3
    rep4 = decomposition_check(4, 10 ** 4, seed=1007)
    assert rep4.ok, rep4
    for n in (3, 4):
        for k in range(6):
            verts = region_vertices(n, NonNegSymbol(k))
            assert len(verts) == n + 1
            edge = tuple(Fraction(1, n + k - 1) for _ in range(n))
            assert edge in verts, (n, k)
    print("PASS 7: every sampled point in exactly one region"
          " (1e5 at n=3, 1e4 at n=4); fan regions carry n+1 vertices"
          " including the shared edge point")


def test_criterion_08_reductions():
    # both entry points of each dimension against references that share no
    # code with the engine
    rng = random.Random(1008)
    for _ in range(100):
        den = rng.randint(2, 10 ** 3)
        x = Fraction(rng.randint(1, den - 1), den)
        expected = _fraction_expansion(x)
        g = gauss_sequence(x, 10 ** 6)
        r = sequence_nd(PointN((x,)), 10 ** 6)
        assert g.quotients == expected, x
        assert tuple(s.k for s in r.symbols) == expected, x
        assert g.status is r.status is SequenceStatus.TERMINATED
    for _ in range(1000):
        alpha, beta = _random_domain_pair(rng, 10 ** 3)
        scale = math.lcm(alpha.denominator, beta.denominator)
        trace = rational_termination_check(scale, int(alpha * scale), int(beta * scale))
        rec2 = sequence(Point2(alpha, beta), 10 ** 6)
        recn = sequence_nd(PointN((alpha, beta)), 10 ** 6)
        assert rec2.symbols == trace.symbols, (alpha, beta)
        assert tuple(s.k for s in recn.symbols) == trace.symbols, (alpha, beta)
        assert tuple(d * scale for d in rec2.d_history) == trace.d_values
        assert rec2.status is recn.status is SequenceStatus.TERMINATED
    print("PASS 8: dimension-1 runs equal the Fraction continued-fraction"
          " expansion (100 cases); dimension-2 runs equal the integer"
          " remainder recursion (1000 cases)")


def test_criterion_09_fixed_direction_evidence():
    for n in (3, 4):
        for k in range(6):
            pt = fixed_point_nd(n, k, 512)
            rec = sequence_nd(pt, 30)
            assert rec.symbols == (NonNegSymbol(k),) * 30, (n, k, rec.symbols)
            assert rec.status is SequenceStatus.TRUNCATED
            step_det = mat_det(step_matrix_nd(NonNegSymbol(k), n))
            assert step_det in (-1, 1)
            assert mat_det(rec.matrix) in (-1, 1)
    print("PASS 9: power-basis fixed points give 30 constant symbols"
          " for n = 3,4 and k = 0..5; unit determinants throughout")


def test_criterion_10_cli_determinism():
    commands = (
        ["decomp-check", "--n", "3", "--samples", "200", "--seed", "42"],
        ["verify", "--suite", "identity", "--cases", "10", "--seed", "7"],
        ["seq", "--point", "root:-1,1,2,1:0,1:pow2", "--max", "25"],
    )
    for argv in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "trianglemap.cli", *argv],
                           capture_output=True, check=True)
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, argv
        assert runs[0].stdout
    print("PASS 10: repeated seeded command lines are byte-identical")
