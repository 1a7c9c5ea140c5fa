"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Set-up turns the seed into a list of plain descriptions (integers, tuples,
argument lists), and ``prepare`` finishes them with the benchmark's own work
(outside the set-up clock).  A pass runs every description once: one point,
one run, one audit call or one process.  Every pass rebuilds the program's
objects from the descriptions, so no pass reuses an enclosure or a record made
by another.  ``check`` compares the outputs of one pass with the independent
computations in ``reference.py`` and returns the labels of the operations
whose outputs are wrong.

The program's modules arrive as ``prog``, a mapping from short module names
to the imported modules, because importing the package is part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from math import lcm, log10

import reference

# rational_batch: points per dimension, denominators 10**4 .. 10**12 in equal
# log-width strata (one point per stratum).  Numerators are redrawn until the
# reference run length is within RATIONAL_LENGTH_BAND of the typical length,
# RATIONAL_SYMBOLS_PER_DIGIT[n] * log10(q), so the work per pass hardly moves
# with the seed.  The typical lengths were measured with the reference; for
# n = 1 it is Lochs' constant 12 ln2 ln10 / pi**2.
RATIONAL_POINTS = {1: 80, 2: 60, 3: 40, 4: 30}
RATIONAL_DECADES = (4, 12)
RATIONAL_SYMBOLS_PER_DIGIT = {1: 1.94, 2: 2.0, 3: 2.45, 4: 3.25}
RATIONAL_LENGTH_BAND = 2
RATIONAL_DRAWS = 200
RATIONAL_MAX_LEN = 100_000

# algebraic_long: (n, k, symbols) for the period-one point of dimension n with
# symbol k.  The start precision makes every run refine two or three times.
ALGEBRAIC_RUNS = ((2, 2, 600), (3, 1, 400), (4, 1, 300))
ALGEBRAIC_BITS = 128

# audit: decomposition_check calls per dimension, each with its own seed.
AUDIT_CALLS = {3: 24, 4: 16, 5: 12}
AUDIT_SAMPLES_PER_CALL = 25
AUDIT_MAX_DEN = 10_000


def _symbol(sym) -> object:
    """A program symbol as the reference writes it: k, or (i, j)."""
    if hasattr(sym, "k"):
        return sym.k
    return (sym.i, sym.j)


def _symbol_text(sym) -> str:
    return str(sym) if isinstance(sym, int) else f"({sym[0]},{sym[1]})"


def _scaled(coords) -> list[int]:
    """(q, q*x_1, ..., q*x_n) for rational coordinates over their common denominator."""
    q = lcm(*(c.denominator for c in coords))
    return [q] + [int(c * q) for c in coords]


def _rational_matrix_ok(point, rows, last) -> bool:
    """Unit determinant, and (1, x) times the matrix gives the final remainders."""
    return (abs(reference.determinant(rows)) == 1
            and reference.row_times([Fraction(1), *point], rows) == list(last))


def _contains_powers(values, first_power: int, brackets, bits: int) -> bool:
    """Each value encloses r**(first_power + t); the zeroth power must be exactly 1."""
    for t, v in enumerate(values):
        j = first_power + t
        if j == 0:
            if v != 1:
                return False
        elif not (hasattr(v, "lo_num")
                  and reference.encloses(v.lo_num, v.hi_num, v.prec, brackets[j], bits)):
            return False
    return True


def _period_one_brackets(n: int, k: int, count: int, engine_bits: int):
    bits = engine_bits + 64 + count.bit_length()
    lo, hi = reference.root_bracket(reference.period_one_coeffs(n, k), bits)
    return reference.power_brackets(lo, hi, bits, count), bits


class Workload:
    name = ""
    #: labels of operations that fail on every pass because of a known fault
    known_faults: dict[str, str] = {}

    def make_inputs(self, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, inputs) -> list:
        """Finish the inputs with work of the benchmark's own; not part of set-up."""
        return inputs

    def ops_per_pass(self, inputs) -> int:
        return len(inputs)

    def run_one(self, prog, item):
        """Run the operations of one input description; returns its output."""
        raise NotImplementedError

    def check(self, prog, inputs, outputs) -> list[str]:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class RationalBatch(Workload):
    """Rational points in dimensions 1-4, each run to termination."""

    name = "rational_batch"

    def make_inputs(self, seed):
        """(n, q, draw seed) per point; ``prepare`` draws the numerators."""
        rng = random.Random(seed)
        lo, hi = RATIONAL_DECADES
        draws = []
        for n, count in RATIONAL_POINTS.items():
            for s in range(count):
                q_lo = int(10 ** (lo + (hi - lo) * s / count))
                q_hi = int(10 ** (lo + (hi - lo) * (s + 1) / count))
                draws.append((n, rng.randint(q_lo, q_hi), rng.randrange(1 << 31)))
        return draws

    def prepare(self, draws):
        """(q, numerators) per point, redrawn until the reference run length is typical."""
        points = []
        for n, q, seed in draws:
            rng = random.Random(seed)
            target = RATIONAL_SYMBOLS_PER_DIGIT[n] * log10(q)
            best = None
            for _ in range(RATIONAL_DRAWS):
                nums = tuple(sorted((rng.randint(1, q) for _ in range(n)), reverse=True))
                miss = abs(len(reference.simplex_run([q, *nums])[0]) - target)
                if best is None or miss < best[0]:
                    best = (miss, nums)
                if miss <= RATIONAL_LENGTH_BAND:
                    break
            points.append((q, best[1]))
        return points

    def run_one(self, prog, item):
        triangle, simplex = prog["triangle"], prog["simplex"]
        q, nums = item
        coords = [Fraction(p, q) for p in nums]
        if len(coords) == 1:
            return triangle.gauss_sequence(coords[0], RATIONAL_MAX_LEN)
        if len(coords) == 2:
            return triangle.sequence(triangle.Point2(*coords), RATIONAL_MAX_LEN)
        return simplex.sequence_nd(simplex.PointN(tuple(coords)), RATIONAL_MAX_LEN)

    def check(self, prog, inputs, outputs):
        terminated = prog["numeric"].SequenceStatus.TERMINATED
        bad = []
        for (q, nums), rec in zip(inputs, outputs):
            label = f"{len(nums)}-D {','.join(f'{p}/{q}' for p in nums)}"
            point = [Fraction(p, q) for p in nums]
            if len(nums) == 1:
                quotients, rems = reference.euclid(nums[0], q)
                ok = (list(rec.quotients) == quotients
                      and list(rec.remainders) == [Fraction(r, q) for r in rems])
            elif len(nums) == 2:
                symbols, rems = reference.triangle_run(q, *nums)
                d = [Fraction(r, q) for r in rems]
                ok = (list(rec.symbols) == symbols and list(rec.d_history) == d
                      and _rational_matrix_ok(point, rec.matrix.rows, d[-3:]))
            else:
                symbols, rows = reference.simplex_run([q, *nums])
                d_rows = [tuple(Fraction(r, q) for r in row) for row in rows]
                ok = ([_symbol(s) for s in rec.symbols] == symbols
                      and list(rec.d_history) == d_rows
                      and _rational_matrix_ok(point, rec.matrix, d_rows[-1]))
            if not (ok and rec.status is terminated):
                bad.append(label)
        return bad


class AlgebraicLong(Workload):
    """Long runs of period-one algebraic points in dimensions 2, 3 and 4.

    The points are fixed by (n, k); the seed only orders the runs in a pass,
    so the work per pass does not depend on the seed.
    """

    name = "algebraic_long"

    def make_inputs(self, seed):
        runs = list(ALGEBRAIC_RUNS)
        random.Random(seed).shuffle(runs)
        return runs

    def run_one(self, prog, item):
        n, k, length = item
        if n == 2:
            point = prog["periodicity"].period_one_point(k, ALGEBRAIC_BITS)
            return prog["triangle"].sequence(point, length)
        point = prog["periodicity"].fixed_point_nd(n, k, ALGEBRAIC_BITS)
        return prog["simplex"].sequence_nd(point, length)

    def check(self, prog, inputs, outputs):
        truncated = prog["numeric"].SequenceStatus.TRUNCATED
        bad = []
        for (n, k, length), rec in zip(inputs, outputs):
            if n == 2:
                rows, history = rec.matrix.rows, [(j, [v]) for j, v in enumerate(rec.d_history)]
            else:
                rows, history = rec.matrix, list(enumerate(rec.d_history))
            brackets, bits = _period_one_brackets(n, k, length + n + 1, rec.precision_bits)
            ok = (rec.status is truncated
                  and [_symbol(s) if n > 2 else s for s in rec.symbols] == [k] * length
                  and abs(reference.determinant(rows)) == 1
                  and all(_contains_powers(vals, j, brackets, bits) for j, vals in history))
            if not ok:
                bad.append(f"n={n} k={k} length={length}")
        return bad


class Audit(Workload):
    """decomposition_check in dimensions 3, 4 and 5; one operation per sample."""

    name = "audit"

    def make_inputs(self, seed):
        rng = random.Random(seed)
        return [(n, AUDIT_SAMPLES_PER_CALL, rng.randrange(1 << 31))
                for n, calls in AUDIT_CALLS.items() for _ in range(calls)]

    def ops_per_pass(self, inputs):
        return sum(count for _, count, _ in inputs)

    def run_one(self, prog, item):
        n, count, seed = item
        return prog["simplex"].decomposition_check(n, count, seed=seed,
                                                   max_denominator=AUDIT_MAX_DEN)

    def check(self, prog, inputs, outputs):
        """Every sample lies in exactly one region, and the certified classifier
        agrees with the reference region rules on the same sampled points."""
        simplex = prog["simplex"]
        bad = []
        for (n, count, seed), report in zip(inputs, outputs):
            if not (report.n == n and report.samples == count and report.ok
                    and not report.violations and report.classify_mismatches == 0):
                bad.extend(f"n={n} seed={seed} sample" for _ in range(count))
                continue
            rng = random.Random(seed)
            for _ in range(count):
                x = simplex.sample_rational_point(rng, n, AUDIT_MAX_DEN)
                expected, _ = reference.region_step(_scaled(x))
                if _symbol(simplex.classify_nd(simplex.PointN(x))) != expected:
                    bad.append(f"n={n} point {x}")
        return bad


class Cli(Workload):
    """One-shot ``python3 -m trianglemap.cli`` processes, one at a time."""

    name = "cli"
    known_faults = {
        "recover-nd": "recover on a terminated n-D run returns an estimate, not the exact start",
    }

    def __init__(self, root: str):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.root = root
        self.child_peak_kb = 0
        self.child_walls: list[float] = []

    def make_inputs(self, seed):
        rng = random.Random(seed)

        def rational(n, q_lo, q_hi):
            q = rng.randint(q_lo, q_hi)
            nums = sorted((rng.randint(1, q) for _ in range(n)), reverse=True)
            return q, nums

        def text(q, nums):
            return ",".join(f"{p}/{q}" for p in nums)

        q2, p2 = rational(2, 10**6, 10**9)
        q4, p4 = rational(4, 10**4, 10**6)
        q3, p3 = rational(3, 10**3, 10**5)
        q_back, p_back = rational(2, 10**4, 10**8)
        k_root, k_poly = rng.randint(1, 4), rng.randint(1, 6)
        prefix = [rng.randint(0, 4) for _ in range(3)]
        root_len = 60
        coeffs = reference.period_one_coeffs(2, k_root)
        return [
            ("seq-2d", ["seq", "--point", text(q2, p2), "--max", "1000"], (q2, p2)),
            ("seq-root", ["seq", "--point", f"root:{','.join(map(str, coeffs))}:0,1:pow2",
                          "--max", str(root_len), "--bits", "128", "--d-values"], (k_root, root_len)),
            ("seq-4d", ["seq", "--point", text(q4, p4), "--max", "1000"], (q4, p4)),
            ("classify-3d", ["classify", "--point", text(q3, p3)], (q3, p3)),
            ("recover-2d", ["recover", "--point", text(q_back, p_back), "--steps", "1000"], (q_back, p_back)),
            ("realize", ["realize", "--symbols", ",".join(map(str, prefix))], prefix),
            ("derive-poly", ["derive-poly", "--symbols", ",".join([str(k_poly)] * 6),
                             "--later", "3", "--earlier", "1"], k_poly),
            ("decomp-check", ["decomp-check", "--n", "3", "--samples", "200",
                              "--seed", str(rng.randrange(1 << 31))], 200),
            ("recover-nd", ["recover", "--point", "1/2,1/3,1/5", "--steps", "50"], (30, [15, 10, 6])),
        ]

    def run_child(self, argv: list[str]) -> tuple[int, str]:
        """Run one process to its end; records its wall time and peak memory."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "trianglemap.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                cwd=self.root, env=self.env)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_walls.append(time.perf_counter() - start)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, out.decode()

    def run_one(self, prog, item):
        return self.run_child(item[1])

    def run_in_process(self, prog, inputs) -> list[tuple[int, str]]:
        """The same invocations through ``cli.main`` in this process (traced runs)."""
        results = []
        for _, argv, _ in inputs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = prog["cli"].main(list(argv))
            results.append((code, buf.getvalue()))
        return results

    def peak_rss_kb(self):
        return self.child_peak_kb

    def check(self, prog, inputs, outputs):
        bad = []
        for (label, argv, data), (code, out) in zip(inputs, outputs):
            try:
                rec = json.loads(out.splitlines()[-1])
                ok = code == 0 and getattr(self, "_check_" + label.replace("-", "_"))(rec, data)
            except (IndexError, ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                bad.append(label)
        return bad

    @staticmethod
    def _matrix(rec, size):
        flat = [int(x) for x in rec["matrix"]]
        return [flat[r * size:(r + 1) * size] for r in range(size)]

    def _check_seq_2d(self, rec, data):
        q, nums = data
        symbols, rems = reference.triangle_run(q, *nums)
        last = [Fraction(r, q) for r in rems[-3:]]
        point = [Fraction(p, q) for p in nums]
        return (rec["symbols"] == ",".join(map(str, symbols)) and rec["status"] == "terminated"
                and rec["length"] == len(symbols)
                and _rational_matrix_ok(point, self._matrix(rec, 3), last))

    def _check_seq_root(self, rec, data):
        k, length = data
        brackets, bits = _period_one_brackets(2, k, length + 3, rec["bits"])
        values = []
        for v in rec["d_values"]:
            if isinstance(v, str):
                values.append(Fraction(v))
            else:
                lo, hi, prec = Fraction(v["lo"]), Fraction(v["hi"]), v["bits"]
                values.append(_Dyadic(lo, hi, prec))
        return (rec["symbols"] == ",".join([str(k)] * length)
                and rec["status"] == "truncated-at-max-length" and len(values) == length + 3
                and abs(reference.determinant(self._matrix(rec, 3))) == 1
                and _contains_powers(values, 0, brackets, bits))

    def _check_seq_4d(self, rec, data):
        q, nums = data
        symbols, rows = reference.simplex_run([q, *nums])
        last = [Fraction(r, q) for r in rows[-1]]
        point = [Fraction(p, q) for p in nums]
        return (rec["symbols"] == ",".join(_symbol_text(s) for s in symbols)
                and rec["status"] == "terminated"
                and _rational_matrix_ok(point, self._matrix(rec, 5), last))

    def _check_classify_3d(self, rec, data):
        q, nums = data
        expected, _ = reference.region_step([q, *nums])
        return rec["symbol"] == _symbol_text(expected) and rec["dimension"] == 3

    def _check_recover_2d(self, rec, data):
        q, nums = data
        return rec["estimates"] == [str(Fraction(p, q)) for p in nums] and rec["status"] == "terminated"

    _check_recover_nd = _check_recover_2d

    def _check_realize(self, rec, prefix):
        alpha, beta = (Fraction(c) for c in rec["witness"].split(","))
        q = lcm(alpha.denominator, beta.denominator)
        symbols, _ = reference.triangle_run(q, int(alpha * q), int(beta * q))
        return symbols[:len(prefix)] == prefix and rec["symbols"] == ",".join(map(str, prefix))

    def _check_derive_poly(self, rec, k):
        got = [int(c) for c in rec["poly"].split(",")]
        want = reference.period_one_coeffs(2, k)
        return (len(got) == len(want) and got[-1] != 0
                and all(g * want[-1] == w * got[-1] for g, w in zip(got, want)))

    def _check_decomp_check(self, rec, samples):
        return (rec["ok"] is True and rec["samples"] == samples and rec["violations"] == 0
                and rec["classify_mismatches"] == 0 and rec["n"] == 3)


class _Dyadic:
    """An enclosure read back from CLI output, in the program's (lo, hi, prec) form."""

    def __init__(self, lo: Fraction, hi: Fraction, prec: int):
        self.lo_num = lo.numerator * (1 << prec) // lo.denominator
        self.hi_num = -(-hi.numerator * (1 << prec) // hi.denominator)
        self.prec = prec
        if Fraction(self.lo_num, 1 << prec) != lo or Fraction(self.hi_num, 1 << prec) != hi:
            raise ValueError("enclosure endpoints are not on the stated dyadic grid")


def all_workloads(root: str) -> dict[str, Workload]:
    return {w.name: w for w in (RationalBatch(), AlgebraicLong(), Audit(), Cli(root))}
