import json
import os
import sys
from fractions import Fraction

import pytest

from trianglemap import cli, matrices, numeric, simplex, triangle
from trianglemap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    lines = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    return code, lines, out.err


def test_seq_rational(capsys):
    code, lines, _ = run(capsys, "seq", "--point", "1/2,1/3")
    assert code == 0
    summary = lines[-1]
    assert summary["symbols"] == "1,1"
    assert summary["status"] == "terminated"


def test_seq_root_point(capsys):
    code, lines, _ = run(capsys, "seq", "--point", "root:-1,1,1,1:0,1:pow2",
                         "--max", "15")
    assert code == 0
    assert lines[-1]["symbols"] == ",".join(["1"] * 15)
    assert lines[-1]["status"] == "truncated-at-max-length"


def test_seq_nd_point(capsys):
    code, lines, _ = run(capsys, "seq", "--point", "11/13,9/13,3/13", "--max", "50")
    assert code == 0
    assert lines[-1]["symbols"] == "(1,3),(1,3),2"
    assert lines[-1]["status"] == "terminated"


def test_seq_nd_orbit_through_top_facet(capsys):
    # a tie x1 = x2 maps onto the x1 = 1 facet, whose pair step terminates
    code, lines, _ = run(capsys, "seq", "--point", "9/10,9/10,1/10", "--max", "5")
    assert code == 0
    assert lines[-1]["symbols"] == "(1,3),(1,3)"
    assert lines[-1]["status"] == "terminated"


def test_seq_trace(capsys):
    code, lines, _ = run(capsys, "seq", "--point", "1/2,1/3", "--trace")
    assert code == 0
    assert lines[0] == {"index": 1, "symbol": "1"}
    assert len(lines) == 3


def test_classify(capsys):
    code, lines, _ = run(capsys, "classify", "--point", "1/2,1/3")
    assert code == 0
    assert lines[0] == {"symbol": "1", "dimension": 2}


def test_recover_terminated_exact(capsys):
    code, lines, _ = run(capsys, "recover", "--point", "1/2,1/3")
    assert code == 0
    rec = lines[-1]
    assert rec["method"] == "terminated-exact"
    assert rec["estimates"] == ["1/2", "1/3"]
    assert rec["residual"] == "0"


def test_recover_terminated_exact_nd(capsys):
    # a terminated run in any dimension recovers its start exactly
    code, lines, _ = run(capsys, "recover", "--point", "1/2,1/3,1/5", "--steps", "50")
    assert code == 0
    rec = lines[-1]
    assert rec["status"] == "terminated"
    assert rec["method"] == "terminated-exact"
    assert rec["estimates"] == ["1/2", "1/3", "1/5"]
    assert rec["residual"] == "0"


def test_precision_exhausted_is_explained(capsys):
    # (1 - 0.6)/0.4 is exactly 1, but decimal input has no exact-zero route
    for argv in (("seq", "--point", "dec:0.5,0.3:64"),
                 ("recover", "--point", "dec:0.5,0.3:64")):
        code, lines, err = run(capsys, *argv)
        assert code == 2
        assert lines[-1]["status"] == "precision-exhausted"
        assert json.loads(err) == {
            "error": "precision-exhausted",
            "detail": "1 symbol(s) certified; the next branch is undecidable"
                      " at 64 working bits",
        }


@pytest.mark.parametrize("module, name, argv", [
    (triangle, "sequence", ["seq", "--point", "root:-1,1,3,1:0,1:pow2", "--max", "100000"]),
    (simplex, "decomposition_check", ["decomp-check", "--n", "3"]),
], ids=["seq", "decomp-check"])
def test_out_of_memory_is_one_json_line(capsys, monkeypatch, module, name, argv):
    # stands in for a run that outgrows its address space (say under ulimit -v)
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(module, name, exhausted)
    code, lines, err = run(capsys, *argv)
    assert code == cli.EXIT_MEMORY == 4
    assert lines == []
    assert json.loads(err) == {"error": "out-of-memory", "detail": "memory exhausted"}


def test_recover_estimate(capsys):
    code, lines, _ = run(capsys, "recover", "--point", "root:-1,1,1,1:0,1:pow2",
                         "--steps", "40")
    assert code == 0
    assert lines[-1]["method"] == "estimate"


def test_realize(capsys):
    code, lines, _ = run(capsys, "realize", "--symbols", "2")
    assert code == 0
    rec = lines[0]
    assert rec["witness"] == "19/36,7/36"
    assert rec["vertices"] == ["1,0", "1/3,1/3", "1/4,1/4"]


def test_derive_poly(capsys):
    code, lines, _ = run(capsys, "derive-poly", "--symbols", "2,2,2,2",
                         "--later", "2", "--earlier", "1")
    assert code == 0
    assert lines[0]["poly"] == "-1,1,2,1"
    assert lines[0]["factor_checked"] is True


@pytest.mark.parametrize("hint, code, residual", [
    ("1/2", 0, 0.125),
    ("dec:0.5:64", 0, 0.125),
    ("1e100", 0, 1e300),
    # the residual near 1e1200 is past the float range
    ("1e400", 1, None),
    ("dec:1e400:64", 1, None),
], ids=["rational", "decimal", "large", "past-float-range", "past-float-range-decimal"])
def test_derive_poly_hint(capsys, hint, code, residual):
    got, lines, err = run(capsys, "derive-poly", "--symbols", "1,1,1,1", "--hint", hint)
    assert got == code
    if code == 0:
        assert lines[0]["root_residual"] == residual and err == ""
    else:
        assert lines == []
        assert json.loads(err) == {"error": "degenerate-input",
                                   "detail": "root residual at the hint exceeds the float range"}


@pytest.mark.parametrize("argv", [
    ["realize", "--symbols", "1,2", "--bits", "1", "--cap-bits", "5"],
    ["decomp-check", "--n", "3", "--samples", "10", "--bits", "1"],
    ["derive-poly", "--symbols", "2,2,2,2", "--later", "2", "--earlier", "1",
     "--cap-bits", "1"],
], ids=["realize", "decomp-check", "derive-poly"])
def test_unread_precision_flags_rejected(capsys, argv):
    # these subcommands take no precision flag they would not read
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "usage"


def test_decomp_check(capsys):
    code, lines, _ = run(capsys, "decomp-check", "--n", "3", "--samples", "50",
                         "--seed", "9")
    assert code == 0
    assert lines[0]["ok"] is True


@pytest.mark.parametrize("argv, detail", [
    (["decomp-check", "--n", "3", "--samples", "-5"], "samples must be at least 1"),
    (["decomp-check", "--n", "3", "--samples", "0"], "samples must be at least 1"),
    (["verify", "--suite", "decomp", "--cases", "-3"], "--cases must be at least 1"),
    (["verify", "--suite", "identity", "--cases", "0"], "--cases must be at least 1"),
    (["verify", "--suite", "reduction", "--cases", "0"], "--cases must be at least 1"),
    (["verify", "--suite", "period1", "--kmax", "-1"], "suite period1 ran no cases"),
    (["verify", "--suite", "conjecture1", "--kmax", "-1"], "suite conjecture1 ran no cases"),
    (["verify", "--suite", "derive", "--kmax", "0"], "suite derive ran no cases"),
    (["verify", "--suite", "period1", "--length", "0"], "--length must be at least 1"),
    (["recover", "--point", "1/2,1/3", "--steps", "0"], "--steps must be at least 1"),
], ids=["decomp-check-negative", "decomp-check-zero", "verify-decomp",
        "verify-identity", "verify-reduction", "verify-period1-kmax",
        "verify-conjecture1-kmax", "verify-derive-kmax", "verify-period1-length",
        "recover-steps"])
def test_vacuous_audits_rejected(capsys, argv, detail):
    # an audit over no samples would report ok without checking anything
    code, lines, err = run(capsys, *argv)
    assert code == 1
    assert lines == []
    assert json.loads(err.splitlines()[-1]) == {"error": "degenerate-input", "detail": detail}


@pytest.mark.parametrize("delta", [1, -1])
def test_verify_identity_catches_swapped_symbol(capsys, monkeypatch, delta):
    # the branch rule emits its first symbol off by one, keeping the true
    # column, so the run goes on but its record no longer belongs to its
    # point; batched and ordinary steps alike take the fault
    real = simplex._decide
    swapped = []

    def decide(ops, cols):
        symbol, inserted = real(ops, cols)
        if not swapped:
            swapped.append(symbol)
            symbol = simplex.NonNegSymbol(symbol.k + delta)
        return symbol, inserted

    monkeypatch.setattr(simplex, "_decide", decide)
    code, lines, _ = run(capsys, "verify", "--suite", "identity", "--cases", "10")
    assert code == 3
    assert [r["ok"] for r in lines[:-1]] == [False] + [True] * 9
    assert lines[-1]["failures"] == 1


def test_verify_identity_catches_a_wrong_status(capsys, monkeypatch):
    # a run that ended on a zero remainder but is recorded as cut at the cap
    real = triangle._run

    def run_truncated(*args, **kwargs):
        symbols, history, _, *rest = real(*args, **kwargs)
        return (symbols, history, numeric.SequenceStatus.TRUNCATED, *rest)

    monkeypatch.setattr(triangle, "_run", run_truncated)
    code, lines, _ = run(capsys, "verify", "--suite", "identity", "--cases", "10")
    assert code == 3
    # every one of these runs terminates well inside the cap
    assert not any(r["ok"] for r in lines[:-1]) and lines[-1]["failures"] == 10


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "reduction", "--cases", "20"],
    ["verify", "--suite", "identity", "--cases", "20"],
    ["decomp-check", "--n", "3", "--samples", "50"],
], ids=["reduction", "identity", "decomp-check"])
def test_audits_catch_a_wrong_floor(capsys, floor_off_by, argv, delta):
    # the engine does not re-check a certified floor, so a kernel that
    # answers one off must fail the audits that compare with references
    floor_off_by(delta)
    code, _, _ = run(capsys, *argv)
    assert code == 3


@pytest.mark.parametrize("n", ["3", "4"])
def test_decomp_check_catches_shifted_window(capsys, monkeypatch, n):
    # every pair symbol one window to the left: the membership rule disagrees
    real = simplex._decide

    def decide(ops, cols):
        symbol, inserted = real(ops, cols)
        if isinstance(symbol, simplex.PairSymbol):
            symbol = simplex.PairSymbol(symbol.i, symbol.j - 1)
        return symbol, inserted

    monkeypatch.setattr(simplex, "_decide", decide)
    code, lines, _ = run(capsys, "decomp-check", "--n", n)
    assert code == 3
    assert lines[0]["violations"] == 0 and lines[0]["classify_mismatches"] > 0


def test_decomp_check_catches_a_doubly_claimed_point(capsys, monkeypatch):
    # the pair region (1,2) also claims every point of the other regions
    real = simplex._member_scaled
    extra = simplex.PairSymbol(1, 2)
    monkeypatch.setattr(simplex, "_member_scaled",
                        lambda xs, q, symbol, closed: real(xs, q, symbol, closed) or symbol == extra)
    code, lines, _ = run(capsys, "decomp-check", "--n", "3", "--samples", "50")
    assert code == 3
    assert lines[0]["violations"] >= 1 and lines[0]["ok"] is False


@pytest.mark.parametrize("point", [
    "dec:0.499999999999999999999999999999:64",
    "dec:0.5,0.249999999999999999999999999999:64",
    "dec:0.5,0.25,0.124999999999999999999999999999:64",
], ids=["n1", "n2", "n3"])
def test_certified_floor_decides_a_boundary_branch(capsys, point):
    # x_n's enclosure is [2**-n - 2**-64, 2**-n]: the slack over it has floor
    # 2 everywhere, though the inserted remainder is 0 at the top end.  The
    # floor certifies the step; only the next step's sign is undecidable.
    code, lines, _ = run(capsys, "classify", "--point", point)
    assert code == 0
    assert lines[0]["symbol"] == "2"
    code, lines, _ = run(capsys, "seq", "--point", point)
    assert code == 2
    assert lines[-1]["symbols"] == "2"
    assert lines[-1]["length"] == 1
    assert lines[-1]["status"] == "precision-exhausted"


def test_identity_certificate_pins_symbols_to_floors():
    # the matrix identity holds for any stream, floors or not, so the
    # identity suite also compares each run with the remainder recursion
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert matrices.fundamental_identity_check(half, third, (5, 5, 5))


def test_verify_suite(capsys):
    code, lines, _ = run(capsys, "verify", "--suite", "derive", "--kmax", "2")
    assert code == 0
    assert lines[-1]["failures"] == 0


@pytest.mark.parametrize("suite", ["conjecture1", "derive", "period1"])
def test_verify_suites_to_k10(capsys, suite):
    code, lines, _ = run(capsys, "verify", "--suite", suite, "--kmax", "10")
    assert code == 0
    assert lines[-1]["summary"] is True
    assert lines[-1]["failures"] == 0


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "seq", "--point", "1/3,1/2")
    assert code == 1
    assert "degenerate-input" in err


@pytest.mark.parametrize("command", ["seq", "classify"])
@pytest.mark.parametrize("point, detail", [
    # dimension 1: the n-D engine names its coordinates x_1, ..., x_n
    ("3/2", "x_1 exceeds 1"),
    ("0", "x_1 must be positive"),
    ("-1/2", "x_1 is negative"),
    # dimension 2: the planar entry points name them alpha and beta
    ("3/2,1/2", "alpha exceeds 1"),
    ("1/2,3/4", "beta exceeds alpha"),
    ("1/2,-1/4", "beta is negative"),
    # dimension 3
    ("3/2,1/2,1/4", "x_1 exceeds 1"),
    ("1/2,3/4,1/4", "x_2 exceeds x_1"),
    ("1/2,1/4,1/3", "x_3 exceeds x_2"),
    ("1/2,1/4,0", "x_3 must be positive"),
    ("1/2,1/4,-1/4", "x_3 is negative"),
])
def test_domain_violation_messages(capsys, command, point, detail):
    code, out, err = run(capsys, command, f"--point={point}")
    assert code == 1
    assert out == []
    assert json.loads(err) == {"error": "degenerate-input", "detail": detail}


def test_domain_undecidable_messages(capsys):
    for point, detail in (("dec:0.1,0.1:64", "beta exceeds alpha"),
                          ("dec:0.5,0.1,0.1:64", "x_3 exceeds x_2")):
        code, _, err = run(capsys, "classify", "--point", point)
        assert code == 2
        assert json.loads(err) == {"error": "precision-exhausted",
                                   "detail": f"cannot certify domain: {detail}"}


@pytest.mark.parametrize("point, detail", [
    # the slack 1 - 0.6 - 0.4, the window test 0.3 - x_3 and the floor
    # 0.2/0.2 each sit on an exact tie that decimal input cannot certify
    ("dec:0.6,0.4,0.1:64", "slack sign is ambiguous"),
    ("dec:0.7,0.5,0.3:64", "pair window test is ambiguous"),
    ("dec:0.5,0.3,0.2:64", "floor undecidable at the precision cap"),
])
def test_undecidable_branch_messages_nd(capsys, point, detail):
    code, out, err = run(capsys, "classify", "--point", point)
    assert code == 2
    assert out == []
    assert json.loads(err) == {"error": "precision-exhausted", "detail": detail}
    code, lines, _ = run(capsys, "seq", "--point", point)
    assert code == 2
    assert lines[-1]["status"] == "precision-exhausted"
    assert lines[-1]["length"] == 0


def test_planar_lower_edge(capsys):
    # the planar sequence tolerates beta = 0 and stops at once; classify does not
    code, lines, err = run(capsys, "seq", "--point", "1/2,0")
    assert code == 0 and err == ""
    assert lines[-1]["status"] == "terminated" and lines[-1]["length"] == 0
    code, lines, err = run(capsys, "classify", "--point", "1/2,0")
    assert code == 1 and lines == []
    assert json.loads(err) == {"error": "degenerate-input", "detail": "beta must be positive"}


def test_root_interval_must_isolate_one_root(capsys):
    # (0, 1) holds three roots of 15x^3 - 20x^2 + 8x - 1: 0.276, 1/3 and 0.724
    code, out, err = run(capsys, "seq", "--point", "root:-1,8,-20,15:0,1:pow2", "--max", "10")
    assert code == 1
    assert out == []
    assert json.loads(err)["error"] == "degenerate-input"
    assert "3 distinct roots" in err
    code, _, _ = run(capsys, "seq", "--point", "root:-1,8,-20,15:1/2,1:pow2", "--max", "10")
    assert code == 0


def test_bits_floor_enforced(capsys):
    code, _, err = run(capsys, "seq", "--point", "1/2,1/3", "--bits", "16")
    assert code == 1


@pytest.mark.parametrize("command", [
    ["seq", "--point", "1/2,1/3"],
    ["classify", "--point", "1/2,1/3"],
    ["recover", "--point", "1/2,1/3"],
    ["derive-poly", "--symbols", "2,2,2,2"],
    ["verify", "--suite", "decomp", "--cases", "1"],
], ids=["seq", "classify", "recover", "derive-poly", "verify"])
def test_bits_ceiling_enforced(capsys, command):
    code, lines, err = run(capsys, *command, "--bits", str(numeric.MAX_PRECISION + 1))
    assert code == 1 and lines == []
    assert json.loads(err) == {"error": "degenerate-input",
                               "detail": "precision above the 1048576-bit ceiling"}
    code, lines, _ = run(capsys, *command, "--bits", str(numeric.MAX_PRECISION))
    assert code == 0 and lines


@pytest.mark.parametrize("cap", ["-5", "0", "10", "63", str(numeric.MAX_PRECISION + 1)])
@pytest.mark.parametrize("command", [
    ["seq", "--point", "root:-1,1,2,1:0,1:pow2", "--max", "200"],
    ["classify", "--point", "root:-1,1,2,1:0,1:pow2"],
    ["recover", "--point", "1/2,1/3"],
    ["verify", "--suite", "period1", "--kmax", "1"],
], ids=["seq", "classify", "recover", "verify"])
def test_cap_bits_checked(capsys, command, cap):
    # the cap lies between --bits and the precision ceiling, or the input is refused
    code, lines, err = run(capsys, *command, "--bits", "64", "--cap-bits", cap)
    assert code == 1 and lines == []
    assert json.loads(err) == {"error": "degenerate-input",
                               "detail": "--cap-bits must be between --bits and 1048576"}


@pytest.mark.parametrize("cap", ["64", str(numeric.MAX_PRECISION)])
def test_cap_bits_bounds_accepted(capsys, cap):
    code, lines, _ = run(capsys, "seq", "--point", "root:-1,1,2,1:0,1:pow2", "--max", "30",
                         "--bits", "64", "--cap-bits", cap)
    assert code == 0 and lines[-1]["length"] == 30


def test_default_cap_clamped_to_ceiling(capsys, monkeypatch):
    caps = []
    real = numeric.FormEvaluator.__init__

    def init(self, values, *, cap_bits=None):
        real(self, values, cap_bits=cap_bits)
        caps.append(self.cap)

    monkeypatch.setattr(numeric.FormEvaluator, "__init__", init)
    code, _, _ = run(capsys, "classify", "--point", "root:-1,1,2,1:0,1:pow2", "--bits", "40000")
    assert code == 0 and caps == [numeric.MAX_PRECISION]


@pytest.mark.parametrize("argv, built", [
    (["seq", "--point", "root:-1,1,1,2,1:0,1:pow3", "--max", "32", "--bits", "64"], 0),
    (["seq", "--point", "9/10,7/10,1/2,1/5"], 0),
    (["seq", "--point", "root:-1,1,2,1:0,1:pow2", "--max", "20"], 0),
    (["recover", "--point", "root:-1,1,1,2,1:0,1:pow3", "--steps", "20"], 0),
    (["recover", "--point", "9/10,7/10,1/2,1/5"], 5),
    (["seq", "--point", "9/10,7/10,1/2,1/5", "--d-values"], 5),
    (["seq", "--point", "root:-1,1,2,1:0,1:pow2", "--max", "20", "--d-values"], 23),
], ids=["root-3d", "rational-4d", "root-2d", "recover-truncated", "recover-4d",
        "d-values-4d", "d-values-2d"])
def test_history_values_built_only_when_printed(capsys, monkeypatch, argv, built):
    # without --d-values no remainder value is made; n-D output and recover
    # make only the final row's
    made = []
    real = numeric._Epoch.value
    monkeypatch.setattr(numeric._Epoch, "value",
                        lambda self, lo, hi: made.append((lo, hi)) or real(self, lo, hi))
    code, _, _ = run(capsys, *argv)
    assert code == 0 and len(made) == built


def test_numbers_past_int_str_digit_cap(capsys):
    # Python caps int/str conversion at 4300 digits by default; exact inputs
    # and the matrices they produce may be longer
    code, lines, _ = run(capsys, "classify", "--point", "1/2,1/1" + "0" * 4400)
    assert code == 0
    assert len(lines[0]["symbol"]) == 4400 and lines[0]["symbol"].startswith("500")
    code, lines, _ = run(capsys, "seq", "--point", "1/3,1/1" + "0" * 4000, "--max", "3")
    assert code == 0
    assert lines[0]["status"] == "terminated"
    assert [len(s) for s in lines[0]["symbols"].split(",")] == [4000, 4000, 1]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["seq"])  # missing --point
    assert exc.value.code == 1


@pytest.mark.parametrize("buffering", [-1, 1], ids=["at-the-last-flush", "while-printing"])
def test_closed_stdout_is_one_json_line(capsys, monkeypatch, buffering):
    # a pipe whose reader is gone: every write to it raises BrokenPipeError,
    # either from main's last flush or, line-buffered, from a print in _emit
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", buffering=buffering) as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        code = main(["verify", "--suite", "period1", "--kmax", "3"])
        monkeypatch.undo()
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE == 1
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "output-closed", "detail": "stdout was closed early"}


def test_csv_format(capsys):
    code = main(["seq", "--point", "1/2,1/3", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    header, row = out.strip().splitlines()
    assert "symbols" in header.split(",")
    assert "terminated" in row


def test_determinism(capsys):
    args = ["decomp-check", "--n", "3", "--samples", "40", "--seed", "4"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_cap_that_leaves_nothing_to_tighten(capsys):
    # caps 133 and 134 sit below the 134 bits a refined root value already
    # holds: no further refinement is counted, and the output is cap 132's
    def seq(cap):
        code = main(["seq", "--point", "root:-1,1,1:0,1:pow1", "--bits", "64",
                     "--cap-bits", cap, "--max", "400"])
        return code, capsys.readouterr()

    code, out = seq("132")
    summary = json.loads(out.out)
    assert code == 2 and (summary["refinements"], summary["bits"], summary["length"]) == (1, 132, 95)
    assert seq("133") == seq("134") == (code, out)
