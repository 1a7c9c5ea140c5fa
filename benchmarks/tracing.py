"""Per-layer tracing for the benchmark's traced runs.

The layers are the package's modules.  ``Tracer.install`` wraps their public
functions (and the ``FormEvaluator`` query methods) from outside the package:
each call records a span ``(name, start, end, parent)`` in memory, and a few
calls also feed counters from their results.  Nothing under ``src/`` changes,
and untraced runs never install the wrappers.

A span's self time is its duration minus the durations of its direct children,
so the time metrics below add up without counting any interval twice.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

#: Wrapped callables: (module, attribute) -> span name.  Functions are patched
#: in every ``trianglemap`` module that imported them by name.
FUNCTIONS = {
    ("numeric", "refine_root"): "numeric.refine_root",
    ("numeric", "root_powers"): "numeric.root_powers",
    ("polynomials", "gcd"): "polynomials.gcd",
    ("polynomials", "squarefree_part"): "polynomials.squarefree_part",
    ("triangle", "sequence"): "triangle.sequence",
    ("triangle", "gauss_sequence"): "triangle.gauss_sequence",
    ("simplex", "sequence_nd"): "simplex.sequence_nd",
    ("simplex", "classify_nd"): "simplex.classify_nd",
    ("simplex", "region_membership"): "simplex.region_membership",
    ("simplex", "decomposition_check"): "simplex.decomposition_check",
    ("cli", "main"): "cli.main",
}
EVALUATOR_METHODS = ("certified_sign", "certified_floor", "eval_bounds",
                     "materialize", "refine", "exact_zero")

#: Span name -> time metric that receives its self time.
TIME_METRIC = {
    "numeric.certified_sign": "numeric.query_s",
    "numeric.certified_floor": "numeric.query_s",
    "numeric.eval_bounds": "numeric.query_s",
    "numeric.materialize": "numeric.materialize_s",
    "numeric.refine": "numeric.refine_s",
    "numeric.refine_root": "numeric.root_isolation_s",
    "numeric.root_powers": "numeric.root_isolation_s",
    "numeric.exact_zero": "numeric.exact_zero_s",
    "polynomials.gcd": "polynomials.gcd_s",
    "polynomials.squarefree_part": "polynomials.gcd_s",
    "triangle.sequence": "triangle.sequence_s",
    "triangle.gauss_sequence": "triangle.gauss_s",
    "simplex.sequence_nd": "simplex.sequence_nd_s",
    "simplex.classify_nd": "simplex.classify_nd_s",
    "simplex.region_membership": "simplex.membership_s",
    "simplex.decomposition_check": "simplex.decomposition_check_s",
    "cli.main": "cli.main_s",
    "io_formats.parse": "io_formats.parse_s",
    "io_formats.format": "io_formats.format_s",
}

#: Count metric -> span names whose calls it counts.
CALL_COUNTS = {
    "numeric.sign_queries": ("numeric.certified_sign",),
    "numeric.floor_queries": ("numeric.certified_floor",),
    "numeric.eval_bounds_calls": ("numeric.eval_bounds",),
    "numeric.exact_zero_calls": ("numeric.exact_zero",),
    "polynomials.gcd_calls": ("polynomials.gcd", "polynomials.squarefree_part"),
    "simplex.classify_nd_calls": ("simplex.classify_nd",),
    "simplex.membership_calls": ("simplex.region_membership",),
}


def _matrix_bits(rows) -> int:
    return max(abs(x).bit_length() for row in rows for x in row)


class Tracer:
    """Spans and counters of the current pass; ``reset`` starts the next one."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.tally: Counter = Counter()

    # wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package_modules: dict) -> None:
        """Wrap the layer functions; ``package_modules`` maps short names to modules."""
        evaluator = package_modules["numeric"].FormEvaluator
        after = {
            "certified_sign": self._note_bits,
            "certified_floor": self._note_bits,
            "refine": self._note_refine,
            "exact_zero": self._note_zero,
        }
        for method in EVALUATOR_METHODS:
            orig = getattr(evaluator, method)
            self._patch(evaluator, method,
                        self._wrap(f"numeric.{method}", orig, after.get(method)))

        targets = dict(FUNCTIONS)
        io_formats = package_modules["io_formats"]
        for attr in vars(io_formats):
            if attr.startswith("parse_") or attr == "_parse_coordinates":
                targets[("io_formats", attr)] = "io_formats.parse"
            elif attr.startswith("format_"):
                targets[("io_formats", attr)] = "io_formats.format"
        record_hooks = {
            "triangle.sequence": self._note_triangle,
            "triangle.gauss_sequence": self._note_gauss,
            "simplex.sequence_nd": self._note_simplex,
        }
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "trianglemap" or key.startswith("trianglemap."))]
        for (module_name, attr), name in targets.items():
            orig = getattr(package_modules[module_name], attr)
            wrapper = self._wrap(name, orig, record_hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # counters fed from results -------------------------------------------

    def _note_bits(self, args, _result) -> None:
        bits = args[0].bits
        if bits > self.tally["numeric.max_bits"]:
            self.tally["numeric.max_bits"] = bits

    def _note_refine(self, _args, result) -> None:
        if result:
            self.tally["numeric.refinements"] += 1

    def _note_zero(self, _args, result) -> None:
        if result is True:
            self.tally["numeric.exact_zero_hits"] += 1

    def _note_triangle(self, _args, rec) -> None:
        self.tally["triangle.symbols"] += len(rec.symbols)
        bits = _matrix_bits(rec.matrix.rows)
        if bits > self.tally["triangle.max_column_bits"]:
            self.tally["triangle.max_column_bits"] = bits

    def _note_gauss(self, _args, rec) -> None:
        self.tally["triangle.symbols"] += len(rec.quotients)

    def _note_simplex(self, _args, rec) -> None:
        self.tally["simplex.symbols"] += len(rec.symbols)
        bits = _matrix_bits(rec.matrix)
        if bits > self.tally["simplex.max_column_bits"]:
            self.tally["simplex.max_column_bits"] = bits

    # per-pass figures ----------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every count of the pass; these repeat exactly from pass to pass."""
        calls = Counter(span[0] for span in self.spans)
        out = {metric: sum(calls[n] for n in names) for metric, names in CALL_COUNTS.items()}
        for metric in ("numeric.refinements", "numeric.exact_zero_hits", "numeric.max_bits",
                       "triangle.symbols", "triangle.max_column_bits",
                       "simplex.symbols", "simplex.max_column_bits"):
            out[metric] = self.tally[metric]
        return out

    def self_times(self) -> dict[str, float]:
        """Self time of each layer over the pass, in seconds."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, parent) in enumerate(spans):
            metric = TIME_METRIC[name]
            # the d-history's evaluations belong to materialize, not to the queries
            if name == "numeric.eval_bounds" and parent >= 0 and spans[parent][0] == "numeric.materialize":
                metric = "numeric.materialize_s"
            out[metric] += end - start - covered[idx]
        return {metric: out.get(metric, 0.0) for metric in sorted(set(TIME_METRIC.values()))}
