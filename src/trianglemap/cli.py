"""Command line interface.

Every command writes one JSON object per line to stdout (``--format csv``
switches to CSV with a header row).  Output is deterministic: keys are
sorted, rationals are printed as ``p/q`` strings, and anything random is
seeded.  Exit codes: 0 success, 1 usage or degenerate input or a closed
stdout, 2 precision exhausted, 3 verification failure, 4 out of memory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from fractions import Fraction

from . import io_formats, matrices, periodicity, realization, simplex, triangle
from .errors import DegenerateInputError, PrecisionExhaustedError, TriangleMapError
from .numeric import MAX_PRECISION, SequenceStatus, check_precision

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECISION = 2
EXIT_VERIFY = 3
EXIT_MEMORY = 4


def _fail(error: str, detail: str, code: int) -> int:
    """Write the one JSON stderr line of a command that failed; returns its exit code."""
    print(json.dumps({"error": error, "detail": detail}, sort_keys=True), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this project reserves 2
    for precision exhaustion, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_fail("usage", message, EXIT_USAGE))


def _emit(records: list[dict], fmt: str) -> None:
    if fmt == "csv":
        keys = sorted({k for r in records for k in r})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for r in records:
            writer.writerow({k: json.dumps(r[k], sort_keys=True) if isinstance(r.get(k), (dict, list))
                             else r.get(k, "") for k in keys})
        sys.stdout.write(buf.getvalue())
    else:
        for r in records:
            print(json.dumps(r, sort_keys=True))


def _add_common(p: argparse.ArgumentParser, bits: bool = True, cap_bits: bool = True) -> None:
    """--format on every subcommand; the precision flags only where they are read."""
    if bits:
        p.add_argument("--bits", type=int, default=256,
                       help="working precision for inexact input (default 256)")
    if cap_bits:
        p.add_argument("--cap-bits", type=int, default=None,
                       help="hard ceiling for on-demand refinement")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")


def _check_bits(args) -> None:
    """--bits within the precision limits; --cap-bits (where taken) between --bits and the ceiling."""
    check_precision(args.bits)
    cap = getattr(args, "cap_bits", None)
    if cap is not None and not args.bits <= cap <= MAX_PRECISION:
        raise DegenerateInputError(f"--cap-bits must be between --bits and {MAX_PRECISION}")


def _run_sequence(coords, max_len: int, cap_bits: int | None):
    """Run the engine for the point's dimension; returns the record and its matrix rows."""
    if len(coords) == 2:
        rec = triangle.sequence(triangle.Point2(*coords), max_len, cap_bits=cap_bits)
        return rec, rec.matrix.rows
    rec = simplex.sequence_nd(simplex.PointN(coords), max_len, cap_bits=cap_bits)
    return rec, rec.matrix


def _exhausted(rec) -> PrecisionExhaustedError:
    """The error ``main`` reports for a run that ran out of precision."""
    return PrecisionExhaustedError(
        f"{len(rec.symbols)} symbol(s) certified; the next branch is undecidable"
        f" at {rec.precision_bits} working bits")


# seq -------------------------------------------------------------------------


def _cmd_seq(args) -> int:
    _check_bits(args)
    coords = io_formats.parse_point(args.point, args.bits)
    rec, rows = _run_sequence(coords, args.max, args.cap_bits)
    symbols = [str(s) for s in rec.symbols]
    records: list[dict] = []
    if args.trace:
        for idx, sym in enumerate(symbols):
            records.append({"index": idx + 1, "symbol": sym})
    summary: dict = {
        "symbols": ",".join(symbols),
        "status": rec.status.value,
        "length": len(symbols),
        "refinements": rec.refinements,
        "bits": rec.precision_bits,
        "matrix": io_formats.format_matrix(rows),
    }
    if args.d_values:
        # the whole history in the plane, the final remainders otherwise
        d_values = (rec.d_history if isinstance(rec, triangle.SequenceRecord)
                    else simplex._last_remainders(rec))
        summary["d_values"] = [io_formats.format_exact(d) for d in d_values]
    records.append(summary)
    _emit(records, args.format)
    if rec.status is SequenceStatus.PRECISION_EXHAUSTED:
        raise _exhausted(rec)
    return EXIT_OK


# classify ---------------------------------------------------------------------


def _cmd_classify(args) -> int:
    _check_bits(args)
    coords = io_formats.parse_point(args.point, args.bits)
    if len(coords) == 2:
        symbol = str(triangle.classify(triangle.Point2(*coords), cap_bits=args.cap_bits))
    else:
        symbol = str(simplex.classify_nd(simplex.PointN(coords), cap_bits=args.cap_bits))
    _emit([{"symbol": symbol, "dimension": len(coords)}], args.format)
    return EXIT_OK


# recover ----------------------------------------------------------------------


def _cmd_recover(args) -> int:
    _check_bits(args)
    if args.steps < 1:
        raise DegenerateInputError("--steps must be at least 1")
    coords = io_formats.parse_point(args.point, args.bits)
    rec, rows = _run_sequence(coords, args.steps, args.cap_bits)
    out: dict = {"steps": args.steps, "status": rec.status.value}
    if rec.status is SequenceStatus.PRECISION_EXHAUSTED:
        _emit([out], args.format)
        raise _exhausted(rec)
    leading = simplex._last_remainders(rec)[:-1] if rec.terminated else ()
    if rec.terminated and all(isinstance(d, Fraction) for d in leading):
        out["method"] = "terminated-exact"
        estimates = matrices.recover_terminated(rows, *leading)
    else:
        # every step matrix has a nonnegative inverse with top-left entry at
        # least 1, so the leading minor recover_nd divides by is never zero
        out["method"] = "estimate"
        estimates = matrices.recover_nd(rows)
    out["estimates"] = [str(v) for v in estimates]
    if all(isinstance(c, Fraction) for c in coords):
        residual = max(abs(e - c) for e, c in zip(estimates, coords))
        out["residual"] = str(residual)
    _emit([out], args.format)
    return EXIT_OK


# realize ----------------------------------------------------------------------


def _cmd_realize(args) -> int:
    symbols = io_formats.parse_symbols_2d(args.symbols)
    region = realization.realize(symbols)
    wit = region.centroid()
    _emit([{
        "symbols": ",".join(str(k) for k in symbols),
        "vertices": [io_formats.format_point(v) for v in region.vertices],
        "witness": io_formats.format_point(wit),
        "diameter_sq": str(region.diameter_sq()),
    }], args.format)
    return EXIT_OK


# derive-poly -------------------------------------------------------------------


def _cmd_derive_poly(args) -> int:
    _check_bits(args)
    symbols = io_formats.parse_symbols_2d(args.symbols)
    later = args.later if args.later is not None else len(symbols)
    earlier = args.earlier
    poly = periodicity.derive_cubic(symbols, later, earlier)
    candidate = None
    window = symbols[earlier:later]
    if window and all(k == window[0] for k in window):
        candidate = periodicity.period_one_poly(window[0])
    hint = None
    if args.hint:
        coords = io_formats.parse_point(args.hint, args.bits)
        hint = coords[0]
    report = periodicity.eliminant_report(poly, candidate=candidate, hint=hint)
    _emit([{
        "poly": poly.to_text(),
        "degree": report["degree"],
        "factor_checked": report["factor_checked"],
        "root_residual": report["root_residual"],
    }], args.format)
    return EXIT_OK


# decomp-check -------------------------------------------------------------------


def _cmd_decomp_check(args) -> int:
    report = simplex.decomposition_check(
        args.n, args.samples, seed=args.seed, max_denominator=args.max_den)
    _emit([{
        "n": report.n,
        "samples": report.samples,
        "violations": len(report.violations),
        "classify_mismatches": report.classify_mismatches,
        "ok": report.ok,
    }], args.format)
    return EXIT_OK if report.ok else EXIT_VERIFY


# verify -------------------------------------------------------------------------


def _verify_period1(args):
    if args.length < 1:
        raise DegenerateInputError("--length must be at least 1")
    for k in range(args.kmax + 1):
        point = periodicity.period_one_point(k, args.bits)
        rec = triangle.sequence(point, args.length, cap_bits=args.cap_bits)
        ok = (rec.status is SequenceStatus.TRUNCATED
              and all(sym == k for sym in rec.symbols)
              and len(rec.symbols) == args.length)
        yield {"suite": "period1", "case": f"k={k}", "ok": ok,
               "refinements": rec.refinements}


def _verify_identity(args):
    """The matrix identity, plus a certificate that ties each run to its
    point: the record's symbols, status and remainders are those of the
    integer remainder recursion cut at the length cap, and the matrix is the
    product of the run's step matrices.  The certificate goes first: it
    rejects any wrong symbol, a negative one included, before the matrix
    checks read it."""
    rng, cap = random.Random(args.seed), 40
    for case in range(args.cases):
        den = rng.randint(3, 500)
        b = rng.randint(1, den - 1)
        a = rng.randint(b, den - 1)
        alpha, beta = Fraction(a, den), Fraction(b, den)
        rec = triangle.sequence(triangle.Point2(alpha, beta), cap)
        ref = periodicity.rational_termination_check(den, a, b)
        ok = (rec.symbols == ref.symbols[:cap]
              and rec.terminated is (len(ref.symbols) <= cap)
              and rec.d_history == tuple(Fraction(d, den) for d in ref.d_values[:cap + 3])
              and matrices.fundamental_identity_check(alpha, beta, rec.symbols)
              and rec.matrix.det() == 1
              and rec.matrix == matrices.product_matrix(rec.symbols))
        yield {"suite": "identity", "case": f"{alpha},{beta}", "ok": ok}


def _fraction_expansion(x: Fraction) -> tuple[int, ...]:
    """Continued-fraction quotients of x in (0, 1] by plain Fraction arithmetic."""
    quotients = []
    while x:
        x = 1 / x
        quotients.append(x.numerator // x.denominator)
        x -= quotients[-1]
    return tuple(quotients)


def _verify_reduction(args):
    """The n = 2 and n = 1 runs against references that share no code with
    the engine: the integer remainder recursion and the Fraction expansion.
    With denominators up to 300 no reference is longer than 13 symbols, so
    the 60-symbol cap never cuts a run short."""
    terminated = SequenceStatus.TERMINATED
    rng = random.Random(args.seed)
    for case in range(args.cases):
        den = rng.randint(3, 300)
        b = rng.randint(1, den - 1)
        a = rng.randint(b, den - 1)
        alpha, beta = Fraction(a, den), Fraction(b, den)
        expected = periodicity.rational_termination_check(den, a, b).symbols
        rec2 = triangle.sequence(triangle.Point2(alpha, beta), 60)
        recn = simplex.sequence_nd(simplex.PointN((alpha, beta)), 60)
        ok = (rec2.symbols == tuple(s.k for s in recn.symbols) == expected
              and rec2.status is recn.status is terminated)
        yield {"suite": "reduction", "case": f"{alpha},{beta}", "ok": ok}
        x = Fraction(rng.randint(1, den - 1), den)
        expected1 = _fraction_expansion(x)
        g = triangle.gauss_sequence(x, 60)
        r1 = simplex.sequence_nd(simplex.PointN((x,)), 60)
        ok1 = (g.quotients == tuple(s.k for s in r1.symbols) == expected1
               and g.status is r1.status is terminated)
        yield {"suite": "reduction", "case": f"gauss {x}", "ok": ok1}


def _verify_decomp(args):
    for n in (3, 4):
        report = simplex.decomposition_check(n, args.cases, seed=args.seed)
        yield {"suite": "decomp", "case": f"n={n}", "ok": report.ok,
               "classify_mismatches": report.classify_mismatches}


def _verify_conjecture1(args):
    for n in (2, 3, 4):
        for k in range(args.kmax + 1):
            evidence = periodicity.power_basis_evidence(n, k)
            yield {"suite": "conjecture1", "case": f"n={n},k={k}",
                   "ok": evidence["all_annihilated"]}


def _verify_derive(args):
    for k in range(1, args.kmax + 1):
        poly = periodicity.derive_cubic((k,) * 4, 2, 1)
        yield {"suite": "derive", "case": f"k={k}",
               "ok": poly == periodicity.period_one_poly(k), "poly": poly.to_text()}


_SUITES = {
    "period1": _verify_period1,
    "identity": _verify_identity,
    "reduction": _verify_reduction,
    "decomp": _verify_decomp,
    "conjecture1": _verify_conjecture1,
    "derive": _verify_derive,
}


def _cmd_verify(args) -> int:
    """Run one suite; a suite that checks nothing is an input error, not a pass."""
    _check_bits(args)
    if args.cases < 1:
        raise DegenerateInputError("--cases must be at least 1")
    records: list[dict] = []
    try:
        records.extend(_SUITES[args.suite](args))
    except ValueError as exc:
        # the suites make valid input, so a kernel that refuses it fails the suite
        records.append({"suite": args.suite, "case": "raised", "ok": False, "detail": str(exc)})
    if not records:
        raise DegenerateInputError(f"suite {args.suite} ran no cases")
    failures = sum(1 for r in records if not r["ok"])
    records.append({"summary": True, "suite": args.suite,
                    "cases": len(records), "failures": failures})
    _emit(records, args.format)
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trianglemap",
                     description="exact subdivision sequences on triangles and simplices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", parents=[], help="symbol sequence of a point")
    p.add_argument("--point", required=True)
    p.add_argument("--max", type=int, default=50)
    p.add_argument("--d-values", action="store_true")
    p.add_argument("--trace", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("classify", help="region symbol of a point")
    p.add_argument("--point", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("recover", help="estimate the start of a run from its matrix")
    p.add_argument("--point", required=True)
    p.add_argument("--steps", type=int, default=30)
    _add_common(p)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("realize", help="exact region of points with a given prefix")
    p.add_argument("--symbols", required=True)
    _add_common(p, bits=False, cap_bits=False)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("derive-poly", help="polynomial pinned by a periodic stream")
    p.add_argument("--symbols", required=True)
    p.add_argument("--earlier", type=int, default=0)
    p.add_argument("--later", type=int, default=None)
    p.add_argument("--hint", default=None)
    _add_common(p, cap_bits=False)
    p.set_defaults(func=_cmd_derive_poly)

    p = sub.add_parser("decomp-check", help="sampled exactly-one-region audit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-den", type=int, default=10000)
    _add_common(p, bits=False, cap_bits=False)
    p.set_defaults(func=_cmd_decomp_check)

    p = sub.add_parser("verify", help="built-in verification suites")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--kmax", type=int, default=5)
    p.add_argument("--length", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # exact arithmetic meets numbers past Python's 4300-digit int/str cap
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            code = args.func(args)
        except PrecisionExhaustedError as exc:
            code = _fail("precision-exhausted", str(exc), EXIT_PRECISION)
        except (TriangleMapError, ValueError) as exc:
            code = _fail("degenerate-input", str(exc), EXIT_USAGE)
        except MemoryError as exc:
            # the failed allocation's frames are gone by now, so printing has room
            code = _fail("out-of-memory", str(exc) or "memory exhausted", EXIT_MEMORY)
        # a reader that closed stdout shows here at the latest, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # what is left in the buffer goes to devnull, so that the interpreter's
        # last flush cannot raise again (the recipe in the signal module's docs)
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return _fail("output-closed", "stdout was closed early", EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
