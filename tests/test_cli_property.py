"""Point text of every form, well made and mangled, and every subcommand's
flags, in range and out, through ``cli.main``.

Whatever the input, a command ends with a documented exit code: 0 with
nothing on stderr, or 1-4 with exactly one JSON line on stderr, and never a
traceback.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import event, example, given, settings, strategies as st

from trianglemap.cli import main
from trianglemap.numeric import MAX_PRECISION, MIN_PRECISION
from trianglemap.simplex import MAX_AUDIT_DIMENSION

COMMANDS = {
    "classify": ["classify"],
    "seq": ["seq", "--max", "20"],
    "seq-d-values": ["seq", "--d-values"],
    "recover": ["recover", "--steps", "20"],
}

_digits = st.integers(0, 10 ** 6).map(str)


@st.composite
def rational_text(draw) -> str:
    """One coordinate: a fraction, an integer, a decimal or a decimal with an
    exponent of at most 50 either way."""
    kind = draw(st.sampled_from(["fraction", "integer", "decimal", "exponent"]))
    if kind == "fraction":
        return f"{draw(st.integers(-10 ** 6, 10 ** 6))}/{draw(st.integers(-10 ** 6, 10 ** 6))}"
    if kind == "integer":
        return str(draw(st.integers(-3, 3)))
    sign = draw(st.sampled_from(["", "-"]))
    text = f"{sign}{draw(st.integers(0, 9))}.{draw(_digits)}"
    if kind == "exponent":
        text += f"{draw(st.sampled_from('eE'))}{draw(st.integers(-50, 50))}"
    return text


@st.composite
def unit_text(draw) -> str:
    """One coordinate in (0, 1], in the same three spellings."""
    kind = draw(st.sampled_from(["fraction", "decimal", "exponent"]))
    if kind == "fraction":
        den = draw(st.integers(1, 10 ** 9))
        return f"{draw(st.integers(1, den))}/{den}"
    if kind == "decimal":
        return f"0.{draw(st.integers(1, 10 ** 6)):06d}"
    return f"{draw(st.integers(1, 9))}.{draw(_digits)}e-{draw(st.integers(1, 50))}"


@st.composite
def coordinates(draw) -> str:
    """1-5 coordinates, half the time a point of the domain 1 >= x_1 >= ... >= x_n > 0."""
    if draw(st.booleans()):
        texts = sorted(draw(st.lists(unit_text(), min_size=1, max_size=5)), key=Fraction, reverse=True)
    else:
        texts = draw(st.lists(rational_text(), min_size=1, max_size=5))
    return ",".join(texts)


_bits = st.sampled_from([0, 1, 63, 64, 65, 128, 256, 1024, 4096])

# root specs that isolate one root in (0, 1): 1/phi, the tribonacci-like
# cubic's root, 1/sqrt 2, the rational 1/2 and a quartic's root
_good_roots = st.sampled_from([("-1,1,1", "0,1"), ("-1,1,1,1", "0,1"), ("-1,0,2", "0,1"),
                               ("-1,2", "0,1"), ("-1,1,1,1,1", "1/2,1")])


@st.composite
def root_text(draw) -> str:
    """A ``root:`` point of degree 1-4 with 1-8 powers, its spec valid or not."""
    if draw(st.booleans()):
        poly, interval = draw(_good_roots)
    else:
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=5))
        poly = ",".join(map(str, coeffs))
        lo = draw(st.fractions(-2, 2, max_denominator=8))
        hi = lo + draw(st.fractions(0, 2, max_denominator=8))
        interval = f"{lo},{hi}"
    return f"root:{poly}:{interval}:pow{draw(st.integers(1, 8))}"


@st.composite
def point_text(draw) -> str:
    kind = draw(st.sampled_from(["rational", "dec", "root"]))
    if kind == "rational":
        return draw(coordinates())
    if kind == "dec":
        return f"dec:{draw(coordinates())}:{draw(_bits)}"
    return draw(root_text())


# no digits: an inserted digit could lengthen a precision past what a test affords
_hostile = st.sampled_from(list(":,/-+.eE _()x\t"))


@st.composite
def mangled(draw, text: str) -> str:
    """``text`` with one or two characters inserted, deleted or replaced."""
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            text = text[:at] + draw(_hostile) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + draw(_hostile) + text[at + 1:]
    return text


points = point_text().flatmap(lambda text: st.one_of(st.just(text), mangled(text)))


def _assert_documented_exit(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse's own errors leave main through SystemExit
            code = exc.code
    err = err.getvalue()
    event(f"exit {code}")
    assert code in (0, 1, 2, 3, 4), (code, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        return
    lines = [line for line in err.splitlines() if line.startswith("{")]
    assert len(lines) == 1, err
    record = json.loads(lines[0])
    assert set(record) == {"error", "detail"}, record


# examples take milliseconds; the deadline marks input that runs without bound
@settings(deadline=5000, max_examples=300)
@given(command=st.sampled_from(sorted(COMMANDS)), point=points, inline=st.booleans())
@example(command="seq", point="dec:0.5:99999999999", inline=False)
@example(command="classify", point="1e-999999", inline=False)
@example(command="seq", point="root:-1,1,1,1:0,1:pow257", inline=False)
@example(command="seq", point="-1/3", inline=True)
@example(command="classify", point="-1/3,1/4", inline=False)
def test_point_text_ends_with_a_documented_exit(command, point, inline):
    option = [f"--point={point}"] if inline else ["--point", point]
    _assert_documented_exit(COMMANDS[command] + option)


# every subcommand's flags ------------------------------------------------------


def _flag(name: str, valid, invalid=st.nothing()) -> st.SearchStrategy:
    """``[name, value]`` for a value in range or one out of it, or nothing, which
    leaves the default."""
    return st.one_of(st.just([]), st.one_of(valid, invalid).map(lambda v: [name, str(v)]))


# in range the precision flags stay small enough for quick runs; out of range
# they include the values just past the floor and the ceiling
_bits_flag = _flag("--bits", st.sampled_from([MIN_PRECISION, 65, 256, 1024]),
                   st.sampled_from([-1, 0, MIN_PRECISION - 1, MAX_PRECISION + 1]))
_cap_bits_flag = _flag("--cap-bits", st.sampled_from([1024, 4096, MAX_PRECISION]),
                       st.sampled_from([-1, MIN_PRECISION - 1, MAX_PRECISION + 1]))


def _count(name: str) -> st.SearchStrategy:
    """A length or step-count flag: 0-30, or a negative one."""
    return _flag(name, st.integers(0, 30), st.integers(-2, -1))


@st.composite
def symbols_text(draw) -> str:
    """A planar symbol stream of 0-8 floors, half the time with one more that
    is huge, negative or a pair symbol, well made or mangled."""
    parts = draw(st.lists(st.integers(0, 12).map(str), max_size=8))
    if draw(st.booleans()):
        odd = draw(st.sampled_from(["10000000000", "-1", "(1,2)"]))
        parts.insert(draw(st.integers(0, len(parts))), odd)
    text = ",".join(parts)
    return draw(st.one_of(st.just(text), mangled(text)))


def _argv(*parts) -> st.SearchStrategy:
    """A command line joined from fixed words and strategies of word lists."""
    return st.tuples(*(st.just(p) if isinstance(p, list) else p for p in parts)).map(
        lambda lists: [word for words in lists for word in words])


_points = points.map(lambda point: [f"--point={point}"])
commands = st.one_of(
    _argv(["seq"], _points, _count("--max"), _bits_flag, _cap_bits_flag),
    _argv(["classify"], _points, _bits_flag, _cap_bits_flag),
    _argv(["recover"], _points, _count("--steps"), _bits_flag, _cap_bits_flag),
    _argv(["realize", "--symbols"], symbols_text().map(lambda text: [text])),
    _argv(["derive-poly", "--symbols"], symbols_text().map(lambda text: [text]),
          _flag("--earlier", st.integers(-1, 9)), _flag("--later", st.integers(-1, 9)),
          _flag("--hint", coordinates()), _bits_flag),
    _argv(["decomp-check", "--n"],
          st.one_of(st.integers(1, 6), st.sampled_from([-1, 0, MAX_AUDIT_DIMENSION + 1])).map(
              lambda n: [str(n)]),
          _flag("--samples", st.integers(1, 20), st.integers(-1, 0)),
          _flag("--seed", st.integers(0, 3)),
          _flag("--max-den", st.sampled_from([7, 100, 10000]), st.sampled_from([-1, 0, 3]))),
    _argv(["verify", "--suite"], st.sampled_from(["conjecture1", "decomp", "derive", "identity",
                                                  "period1", "reduction", "none"]).map(lambda s: [s]),
          _flag("--cases", st.integers(1, 6), st.integers(-1, 0)),
          _flag("--kmax", st.integers(0, 4), st.just(-1)),
          _count("--length"), _bits_flag, _cap_bits_flag),
)


@settings(deadline=5000, max_examples=300)
@given(argv=commands)
@example(argv=["decomp-check", "--n", str(MAX_AUDIT_DIMENSION + 1)])
@example(argv=["seq", "--point", "1/2", "--bits", str(MAX_PRECISION + 1)])
@example(argv=["verify", "--suite", "period1", "--cap-bits", str(MAX_PRECISION + 1)])
@example(argv=["seq", "--point", "1/2", "--max", "-1"])
@example(argv=["recover", "--point", "1/2", "--steps", "0"])
def test_flags_end_with_a_documented_exit(argv):
    _assert_documented_exit(argv)
