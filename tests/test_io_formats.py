import json
from fractions import Fraction

import pytest

from trianglemap import numeric
from trianglemap.errors import DegenerateInputError
from trianglemap.cli import main
from trianglemap.io_formats import (
    format_exact,
    format_matrix,
    format_point,
    parse_fraction,
    parse_point,
    parse_symbols_2d,
    parse_symbols_nd,
)
from trianglemap.numeric import BigFloat
from trianglemap.simplex import NonNegSymbol, PairSymbol


def test_parse_fraction():
    assert parse_fraction("3/7") == Fraction(3, 7)
    assert parse_fraction("2") == Fraction(2)
    assert parse_fraction(" 1/2 ") == Fraction(1, 2)


def test_format_fraction_round_trip():
    for f in (Fraction(1, 3), Fraction(-2, 7), Fraction(5)):
        assert parse_fraction(format_exact(f)) == f


def test_format_exact_fraction_vs_interval():
    assert format_exact(Fraction(1, 2)) == "1/2"
    enc = format_exact(BigFloat.from_bounds(Fraction(1, 4), Fraction(1, 2), 64))
    assert set(enc) == {"lo", "hi", "bits"}
    assert parse_fraction(enc["lo"]) == Fraction(1, 4)


def test_parse_point2_rational():
    assert parse_point("1/2,1/3", 128) == (Fraction(1, 2), Fraction(1, 3))


def test_parse_point2_decimal():
    alpha, beta = parse_point("dec:0.5,0.25:128", 64)
    assert alpha.low == Fraction(1, 2)
    assert beta.high == Fraction(1, 4)


def test_parse_point2_root():
    a, b = parse_point("root:-1,1,1,1:0,1:pow2", 128)
    assert a.source is not None and b.source is not None
    assert a.low > b.low  # r > r^2 on (0, 1)


def test_parse_pointn_dimensions():
    assert len(parse_point("1/2,1/3,1/4", 128)) == 3
    assert len(parse_point("2/3", 128)) == 1


def test_parse_symbols_2d():
    assert parse_symbols_2d("1,0,2") == (1, 0, 2)
    assert parse_symbols_2d(" 3 ") == (3,)
    with pytest.raises(DegenerateInputError):
        parse_symbols_2d("1,-2")


def test_parse_symbols_nd():
    syms = parse_symbols_nd("(1,3),0,6")
    assert syms == (PairSymbol(1, 3), NonNegSymbol(0), NonNegSymbol(6))


def test_parse_symbols_nd_rejects_garbage():
    with pytest.raises(DegenerateInputError):
        parse_symbols_nd("(1,3),x")


def test_parse_symbols_whitespace_never_joins_digits():
    # whitespace may separate tokens, but "3 4" must not read as 34
    with pytest.raises(DegenerateInputError, match=r"near '3 4,\(1,2\)'"):
        parse_symbols_nd("3 4,(1,2)")
    with pytest.raises(DegenerateInputError, match=r"near '\(1 2\)'"):
        parse_symbols_nd("(1 2)")
    with pytest.raises(DegenerateInputError):
        parse_symbols_2d("3 4")
    assert parse_symbols_nd(" ( 1 , 2 ) , 3 , 45 ") == (PairSymbol(1, 2), NonNegSymbol(3), NonNegSymbol(45))
    assert parse_symbols_2d(" 3 , 4 ") == (3, 4)


def test_parse_symbols_2d_rejects_pairs():
    with pytest.raises(DegenerateInputError, match="dimension 3"):
        parse_symbols_2d("1,(1,2)")


@pytest.mark.parametrize("argv", [
    ["realize", "--symbols", "3 4"],
    ["derive-poly", "--symbols", "3 3,3"],
])
def test_planar_cli_symbols_whitespace(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad symbol stream" in captured.err


@pytest.mark.parametrize("point, detail", [
    ("", "bad rational ''"),
    ("1/0,1/2", "bad rational '1/0'"),
    ("root:-1,1,1,1:0:pow2", "bad interval '0'"),
    ("root:abc", "bad root point 'root:abc'"),
    ("root:-1,1,1,1:0,1:powx", "bad power suffix 'powx'"),
    ("dec::64", "bad decimal point 'dec::64'"),
    ("dec:0.5,0.3:abc", "bad precision 'abc'"),
    ("dec:0.5:2000000", "precision above the 1048576-bit ceiling"),
    ("root:-1,1,1,1:0,1:pow257", "count above the 256-power ceiling"),
], ids=["empty", "zero-denominator", "interval", "root", "power", "decimal", "precision",
        "ceiling", "power-ceiling"])
def test_malformed_point_text(capsys, point, detail):
    assert main(["seq", "--point", point]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.splitlines()[-1]) == {
        "error": "degenerate-input", "detail": detail}


@pytest.mark.parametrize("argv", [
    ["seq", "--point", "dec:0.5:99999999999"],
    ["seq", "--point", "root:-1,1,1,1:0,1:pow2", "--bits", "2000000"],
    ["verify", "--suite", "period1", "--bits", "2000000"],
], ids=["decimal", "root", "period1"])
def test_precision_ceiling_is_an_input_error(capsys, argv):
    # read the ceiling first: without it these inputs allocate or bisect
    # without bound
    assert numeric.MAX_PRECISION == 1 << 20
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.splitlines()[-1]) == {
        "error": "degenerate-input", "detail": "precision above the 1048576-bit ceiling"}


def test_format_matrix_row_major():
    rows = ((0, 1), (-2, 3))
    assert format_matrix(rows) == ["0", "1", "-2", "3"]


def test_format_point():
    assert format_point((Fraction(1, 3), Fraction(1, 4))) == "1/3,1/4"


@pytest.mark.parametrize("point, text", [
    ("1e-999999", "1e-999999"),
    ("dec:1e-999999:64", "1e-999999"),
    ("1/2,1E+0315653", "1E+0315653"),
], ids=["rational", "decimal", "positive-padded"])
def test_decimal_exponent_ceiling(capsys, point, text):
    # refused before Fraction builds the power of ten
    assert main(["classify", "--point", point]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.splitlines()[-1]) == {
        "error": "degenerate-input",
        "detail": f"decimal exponent of {text!r} is beyond the 315652 ceiling"}


def test_exponents_up_to_the_ceiling_parse(capsys):
    assert parse_fraction("1e-315652") == Fraction(1, 10 ** 315652)
    assert parse_fraction("1e-0_5") == Fraction(1, 10 ** 5)
    assert main(["classify", "--point", "1e-99999,1e-99999"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 2


def test_decimal_part_with_zero_denominator(capsys):
    assert main(["seq", "--point", "dec:1/0:64"]) == 1
    assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
        "error": "degenerate-input", "detail": "bad rational '1/0'"}
