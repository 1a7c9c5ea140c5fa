"""Hand-checked cases for the benchmark's reference computations.

Run with ``python3 -m pytest benchmarks``.
"""

from fractions import Fraction

import reference


def test_euclid_five_sevenths():
    # 7 = 1*5 + 2, 5 = 2*2 + 1, 2 = 2*1
    assert reference.euclid(5, 7) == ([1, 2, 2], [5, 2, 1, 0])
    assert reference.euclid(1, 1) == ([1], [1, 0])


def test_triangle_run_hand_cases():
    symbols, d = reference.triangle_run(113, 76, 45)
    assert symbols == [0, 0, 0, 0, 3, 0, 0, 3]
    assert d == [113, 76, 45, 37, 31, 8, 6, 5, 2, 1, 0]
    assert reference.triangle_run(7, 5, 2) == ([1], [7, 5, 2, 0])


def test_simplex_run_pair_regions():
    # slack 13 - 11 - 9 < 0: crossing i = 1 (q_1 = 2), window j = 3 (3 >= 2 > 0)
    symbols, rows = reference.simplex_run([13, 11, 9, 3])
    assert symbols == [(1, 3), (1, 3), 2]
    assert rows == [(13, 11, 9, 3), (11, 9, 3, 2), (9, 3, 2, 2), (3, 2, 2, 0)]
    # q_1 = 0 is a valid crossing only at i = 1; the run ends one step later
    assert reference.simplex_run([10, 9, 9, 1])[0] == [(1, 3), (1, 3)]


def test_region_step_fan_and_window():
    assert reference.region_step([30, 15, 10, 6]) == (0, [15, 10, 6, 5])
    # q_1 = 3 sits strictly above d_3 = 2, so the window closes at j = 2
    assert reference.region_step([10, 7, 4, 2]) == ((1, 2), [7, 4, 3, 2])


def test_simplex_run_reduces_to_lower_dimensions():
    for d0, d1, d2 in [(113, 76, 45), (7, 5, 2), (1000, 999, 1), (97, 60, 60)]:
        assert reference.simplex_run([d0, d1, d2])[0] == reference.triangle_run(d0, d1, d2)[0]
    for p, q in [(5, 7), (355, 1000), (1, 1)]:
        assert reference.simplex_run([q, p])[0] == reference.euclid(p, q)[0]


def test_determinant_and_row_times():
    step = [[0, 0, 1], [1, 0, -1], [0, 1, -3]]
    assert reference.determinant(step) == 1
    assert reference.determinant([[1, 2], [2, 4]]) == 0
    assert reference.row_times([1, Fraction(1, 2), Fraction(1, 3)], step) == \
        [Fraction(1, 2), Fraction(1, 3), Fraction(-1, 2)]


def test_root_and_power_brackets():
    coeffs = reference.period_one_coeffs(2, 1)
    assert coeffs == [-1, 1, 1, 1]
    bits = 80
    lo, hi = reference.root_bracket(coeffs, bits)
    scale = Fraction(1, 1 << bits)
    value = lambda x: sum(c * x ** t for t, c in enumerate(coeffs))
    assert hi - lo == 1 and value(lo * scale) < 0 < value(hi * scale)
    assert abs(float(lo * scale) - 0.5436890126920764) < 1e-15
    brackets = reference.power_brackets(lo, hi, bits, 6)
    assert brackets[0] == (1 << bits, 1 << bits)
    for j, (plo, phi) in enumerate(brackets):
        assert plo * scale <= (lo * scale) ** j and (hi * scale) ** j <= phi * scale


def test_encloses():
    # [1/4, 3/4] contains [3/8, 1/2] but not [1/8, 1/2]
    assert reference.encloses(1, 3, 2, (3, 4), 3)
    assert not reference.encloses(1, 3, 2, (1, 4), 3)
