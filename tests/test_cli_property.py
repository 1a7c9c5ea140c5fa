"""Point text of every form, well made and mangled, through ``cli.main``.

Whatever the text, a point command ends with a documented exit code: 0 with
nothing on stderr, or 1-4 with exactly one JSON line on stderr, and never a
traceback.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import event, example, given, settings, strategies as st

from trianglemap.cli import main

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


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse's own errors leave main through SystemExit
            code = exc.code
    return code, err.getvalue()


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
    code, err = _run(COMMANDS[command] + option)
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
