"""A behaviour fingerprint: one sha256 per group of outputs, against a committed file.

Each group runs a fixed-seed corpus through the library or ``cli.main`` and
hashes a canonical text of what came out: symbols by ``str``, statuses by
``.value``, values by ``io_formats.format_exact``, matrices as ints.  No
``repr`` goes in, so every supported Python gives the same hashes.  A change
meant to keep behaviour must leave ``tests/fingerprint.json`` as it is; one
meant to change it regenerates the file with

    PYTHONPATH=src python tests/test_fingerprint.py

and says in its description which groups moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from trianglemap import (GaussRecord, Point2, PointN, SequenceRecord, cli, decomposition_check,
                         fixed_point_nd, gauss_sequence, period_one_point, sequence, sequence_nd)
from trianglemap.io_formats import format_exact, parse_point
from trianglemap.simplex import _last_remainders

FINGERPRINT = Path(__file__).resolve().parent / "fingerprint.json"

_LENGTHS = (60, 400)
_CAPS = (None, 200, 2048)


def _values(values) -> list:
    return [format_exact(v) for v in values]


def _record_text(rec) -> dict:
    """A record with its history read, as plain JSON data."""
    if isinstance(rec, GaussRecord):
        return {"symbols": [str(s) for s in rec.quotients], "status": rec.status.value,
                "history": _values(rec.remainders)}
    if isinstance(rec, SequenceRecord):
        history, rows = _values(rec.d_history), rec.matrix.rows
    else:
        history, rows = [_values(row) for row in rec.d_history], rec.matrix
    return {"symbols": [str(s) for s in rec.symbols], "status": rec.status.value,
            "history": history, "matrix": [[int(c) for c in row] for row in rows],
            "refinements": rec.refinements, "bits": rec.precision_bits}


def _runs(coords, max_len: int, cap_bits):
    """Every run kind that takes a point of this dimension, as record makers."""
    makers = {"nd": lambda: sequence_nd(PointN(coords), max_len, cap_bits=cap_bits)}
    if len(coords) == 2:
        makers["planar"] = lambda: sequence(Point2(*coords), max_len, cap_bits=cap_bits)
    if len(coords) == 1:
        makers["gauss"] = lambda: gauss_sequence(coords[0], max_len, cap_bits=cap_bits)
    return makers


def _run_texts(label: str, coords, lengths=_LENGTHS, caps=(None,)) -> list:
    """Each run of a point, read in full, and the final remainders of a fresh one."""
    out = []
    for max_len in lengths:
        for cap in caps:
            for kind, make in _runs(coords, max_len, cap).items():
                out.append({"point": label, "kind": kind, "max_len": max_len, "cap": cap,
                            "record": _record_text(make()),
                            "tail": _values(_last_remainders(make()))})
    return out


def _rational_points(n: int) -> list[tuple[Fraction, ...]]:
    rng = random.Random(1000 + n)
    points = []
    for digits in (2, 8, 20, 40, 60):
        den = rng.randint(10 ** (digits - 1) + n + 1, 10 ** digits)
        nums = sorted((rng.randint(1, den) for _ in range(n)), reverse=True)
        points.append(tuple(Fraction(p, den) for p in nums))
    return points


def _group_rational(n: int) -> list:
    out = []
    for point in _rational_points(n):
        label = ",".join(map(str, point))
        out += _run_texts(label, point)
    return out


_DEC = ("dec:0.6180339887498948482045868343656:96",
        "dec:0.54,0.29:128",
        "dec:0.9,0.7,0.30000000000000000000001:64",
        "dec:0.95646559138619455059955841977438015,0.91483640719224127693046640436625427,"
        "0.87500000000000000000000000000000000,0.83690739532551772676215361230258263:200")

_ROOT = ("root:-1,1,1:0,1:pow1",
         "root:-1,1,2,1:0,1:pow2",
         "root:-1,1,1,2,1:0,1:pow3",
         "root:-7,0,0,8:0,1:pow4",
         "root:-1,1,1,1,1,1:0,1:pow5")


def _group_text_points(texts, bits: int) -> list:
    out = []
    for text in texts:
        out += _run_texts(text, parse_point(text, bits), caps=_CAPS)
    return out


def _group_period_one() -> list:
    out = []
    for k in range(4):
        point = period_one_point(k, 128)
        out += _run_texts(f"period1 k={k}", (point.alpha, point.beta))
    for n, k in ((1, 2), (3, 1), (4, 2), (5, 1)):
        out += _run_texts(f"fixed n={n} k={k}", fixed_point_nd(n, k, 128).coords)
    return out


def _huge_quotients(count: int, quotient: int) -> Fraction:
    x = Fraction(0)
    for _ in range(count):
        x = 1 / (quotient + x)
    return x


def _group_huge_quotients() -> list:
    x = _huge_quotients(30, 10 ** 20)
    y = _huge_quotients(12, 3 * 10 ** 40)
    out = _run_texts("cf 10**20", (x,))
    out += _run_texts("planar small beta", (Fraction(1, 2), x))
    out += _run_texts("nd small tail", (Fraction(7, 9), Fraction(1, 3), y))
    return out


def _group_audit() -> list:
    out = []
    for n, samples in ((3, 400), (4, 300), (5, 200)):
        report = decomposition_check(n, samples, seed=7)
        out.append({"n": report.n, "samples": report.samples, "ok": report.ok,
                    "mismatches": report.classify_mismatches,
                    "violations": [[[str(c) for c in x], count] for x, count in report.violations]})
    return out


_CLI = (
    ["seq", "--point", "5/7,2/7"],
    ["seq", "--point", "5/7,2/7", "--d-values", "--trace"],
    ["seq", "--point", "5/7"],
    ["seq", "--point", "5/7", "--d-values"],
    ["seq", "--point", "11/13,9/13,3/13", "--d-values"],
    ["seq", "--point", "9/10,7/10,1/2,1/5", "--d-values", "--format", "csv"],
    ["seq", "--point", "root:-1,1,2,1:0,1:pow2", "--max", "40", "--d-values"],
    ["seq", "--point", "root:-1,1,1,2,1:0,1:pow3", "--max", "60", "--d-values"],
    ["seq", "--point", "root:-1,1,1:0,1:pow1", "--max", "80", "--d-values"],
    ["seq", "--point", "root:-1,1,2,1:0,1:pow2", "--max", "400", "--cap-bits", "300"],
    ["seq", "--point", "root:-1,1,1,2,1:0,1:pow3", "--max", "400", "--cap-bits", "256",
     "--d-values"],
    ["seq", "--point", "root:-1,1,1,2,1:0,1:pow3", "--bits", "64", "--max", "120", "--d-values"],
    ["seq", "--point", "dec:0.6180339887498948482045868343656:96", "--max", "100"],
    ["seq", "--point", "dec:0.54,0.29:128", "--max", "80", "--d-values"],
    ["seq", "--point", "dec:0.9,0.7,0.30000000000000000000001:64", "--max", "40"],
    ["seq", "--point", "1,1/2"],
    ["seq", "--point", "1/2,0"],
    ["seq", "--point", "1/2,0,0"],
    ["seq", "--point", "2/3,3/4"],
    ["seq", "--point", "4/3"],
    ["seq", "--point=-1/3"],
    ["seq", "--point", "5/7", "--max", "-1"],
    ["seq", "--point", "root:-1,1,1,1:0,1:pow2", "--bits", "8"],
    ["seq", "--point", "root:-1,1,1,1:0,1/10:pow2"],
    ["seq", "--point", "dec:0.5,0.5000000000000000000000000000001:64"],
    ["classify", "--point", "5/7,2/7"],
    ["classify", "--point", "9/10,9/10,1/10"],
    ["classify", "--point", "9/10,7/10,1/2,1/5"],
    ["classify", "--point", "root:-1,1,2,1:0,1:pow2"],
    ["classify", "--point", "1/3"],
    ["recover", "--point", "5/7,2/7"],
    ["recover", "--point", "9/10,7/10,1/2,1/5"],
    ["recover", "--point", "root:-1,1,1,1:0,1:pow2", "--steps", "25"],
    ["recover", "--point", "root:-1,1,1,2,1:0,1:pow3", "--steps", "20"],
    ["recover", "--point", "root:-1,1,1,2,1:0,1:pow3", "--bits", "64", "--steps", "120"],
    ["recover", "--point", "root:-1,1,1:0,1:pow1", "--bits", "64", "--steps", "100"],
    ["recover", "--point", "dec:0.54,0.29:64", "--steps", "200"],
    ["recover", "--point", "5/7"],
    ["recover", "--point", "5/7", "--steps", "0"],
    ["realize", "--symbols", "1,2,1"],
    ["realize", "--symbols", "0,0,3"],
    ["derive-poly", "--symbols", "1,1,1,1"],
    ["derive-poly", "--symbols", "2,2,2,2,2", "--hint", "root:-1,2,2,1:0,1:pow1"],
    ["derive-poly", "--symbols", "1,2,1,2,1,2", "--earlier", "2", "--later", "4"],
    ["decomp-check", "--n", "3", "--samples", "200", "--seed", "3"],
    ["decomp-check", "--n", "4", "--samples", "100", "--max-den", "500"],
    ["decomp-check", "--n", "3", "--samples", "0"],
    ["verify", "--suite", "period1", "--kmax", "3", "--length", "20"],
    ["verify", "--suite", "identity", "--cases", "10", "--seed", "4"],
    ["verify", "--suite", "reduction", "--cases", "10", "--seed", "4"],
    ["verify", "--suite", "decomp", "--cases", "50"],
    ["verify", "--suite", "conjecture1", "--kmax", "2"],
    ["verify", "--suite", "derive", "--kmax", "3"],
    ["verify", "--suite", "period1", "--kmax", "-1"],
    ["verify", "--suite", "period1", "--length", "0"],
)


def _group_cli() -> list:
    out = []
    for argv in _CLI:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
        errors = [line for line in stderr.getvalue().splitlines() if line.startswith("{")]
        out.append({"argv": argv, "code": code, "stdout": stdout.getvalue(), "stderr": errors})
    return out


GROUPS = {
    **{f"rational_n{n}": (lambda n=n: _group_rational(n)) for n in range(1, 6)},
    "dec_points": lambda: _group_text_points(_DEC, 64),
    "root_points": lambda: _group_text_points(_ROOT, 64),
    "period_one": _group_period_one,
    "huge_quotients": _group_huge_quotients,
    "audit": _group_audit,
    "cli": _group_cli,
}


def fingerprint() -> dict[str, str]:
    """The sha256 of each group's canonical JSON text."""
    return {name: hashlib.sha256(json.dumps(build(), sort_keys=True).encode()).hexdigest()
            for name, build in GROUPS.items()}


def test_behaviour_fingerprint_unchanged():
    expected = json.loads(FINGERPRINT.read_text())
    got = fingerprint()
    differ = sorted(name for name in expected.keys() | got.keys()
                    if expected.get(name) != got.get(name))
    assert not differ, f"behaviour changed in group(s): {', '.join(differ)}"


if __name__ == "__main__":
    FINGERPRINT.write_text(json.dumps(fingerprint(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINT}", file=sys.stderr)
