"""Run one benchmark workload; the last line of output is the result as JSON.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  The package is imported from the
checkout's ``src/`` directory, never from an installed copy, and the run stops
with a non-zero exit code when that directory is missing.

A run sets up (imports the package and makes the inputs from the seed), then
repeats identical passes over the same inputs until ``--seconds`` have passed
(``run_seconds`` of ``BENCHMARK.json`` when not given), always finishing the
pass in progress.  A pass runs its operations in at most ``SLICES_PER_PASS``
fixed slices, operation i in slice i mod the slice count, and every slice is
timed on its own.  On a shared virtual CPU the speed of the processor itself
wanders, within a run and from minute to minute; the fastest time of each
slice is the figure least disturbed by it.  Slices stay long enough (tens of
milliseconds) that the garbage collections of a pass fall inside them and
are not dropped by the minimum.

With ``--trace 0`` the result holds the end-to-end metrics:

* ``ops_per_s``: operations in one pass divided by the sum of every slice's
  fastest time, i.e. the fastest pass assembled slice by slice;
* ``setup_s``: median of several set-ups, this process's own and those of
  fresh processes started between passes, each timed from just before
  ``import trianglemap`` to the end of input generation (a workload's
  ``prepare`` step, the benchmark's own work on the inputs, runs after it);
* ``peak_rss_mb``: peak resident memory of this process, or of the largest
  child process on the ``cli`` workload.

With ``--trace 1`` the layer functions are wrapped (see ``tracing.py``) and the
result holds the per-layer metrics of the fastest traced pass.  The spans of
that pass are written to ``benchmarks/out/``.

Every pass's outputs must equal the first pass's, and the first pass's outputs
are checked against ``reference.py``.  ``attempted`` and ``failed`` count
operations over all passes; only the operations a workload names as known
faults may fail with ``correct`` still true.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

from tracing import Tracer  # noqa: E402  (the benchmark's own modules, next to this file)
from workloads import all_workloads  # noqa: E402

#: Set-ups timed per untraced run: this process's own, then fresh processes
#: spread evenly over the run, so that one slow spell of the machine does not
#: decide the median.
SETUP_SAMPLES = 15
#: Fresh interpreters timed for cli.import_s in a traced run.
IMPORT_REPEATS = 5
#: A run makes at least this many passes, however short --seconds is.
MIN_PASSES = 3
#: Slices a pass is cut into (fewer when it has fewer operations).
SLICES_PER_PASS = 8
PROGRAM_MODULES = ("numeric", "polynomials", "triangle", "simplex", "periodicity")
TRACED_MODULES = PROGRAM_MODULES + ("io_formats", "cli")


def set_up(workload, seed: int, modules) -> tuple[float, dict, object]:
    """Import the package and make the inputs; returns (seconds, modules, inputs).

    The inputs are not yet prepared: ``workload.prepare`` runs outside the clock."""
    if not os.path.isfile(os.path.join(SRC, "trianglemap", "__init__.py")):
        raise SystemExit(f"no trianglemap package under {SRC}: run from a source checkout")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    importlib.import_module("trianglemap")
    prog = {name: importlib.import_module(f"trianglemap.{name}") for name in modules}
    inputs = workload.make_inputs(seed)
    elapsed = time.perf_counter() - start
    origin = os.path.dirname(os.path.abspath(sys.modules["trianglemap"].__file__))
    if origin != os.path.join(SRC, "trianglemap"):
        raise SystemExit(f"trianglemap was imported from {origin}, not from this checkout")
    return elapsed, prog, inputs


def setup_modules(name: str) -> tuple[str, ...]:
    return TRACED_MODULES if name == "cli" else PROGRAM_MODULES


def child_setup_seconds(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=120)
    return float(done.stdout.split()[-1])


def import_seconds() -> float:
    """Time of ``import trianglemap.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import trianglemap.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, cwd=ROOT, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    return float(done.stdout.split()[-1])


def layer_metrics(tracer: Tracer, child_walls: list[float], import_s: float) -> dict:
    counts = tracer.counts()
    times = tracer.self_times()
    symbols = counts["triangle.symbols"] + counts["simplex.symbols"]
    queries = counts["numeric.sign_queries"] + counts["numeric.floor_queries"]
    values = {**counts, **times}
    values["numeric.queries_per_symbol"] = queries / symbols if symbols else 0.0
    values["cli.import_s"] = import_s
    values["cli.process_s"] = statistics.median(child_walls) if child_walls else 0.0
    return values


def write_spans(name: str, seed: int, pass_times: list[float], spans: list) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "pass_s": pass_times,
                   "spans": [[n, s - origin, e - origin, p] for n, s, e, p in spans]}, fh)
    return path


def main(argv=None) -> int:
    workloads = all_workloads(ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print the seconds and exit")
    args = parser.parse_args(argv)
    workload = workloads[args.workload]

    own_setup, prog, inputs = set_up(workload, args.seed, setup_modules(workload.name))
    if args.setup_only:
        print(repr(own_setup))
        return 0
    inputs = workload.prepare(inputs)
    setups = [own_setup]

    tracer = None
    if args.trace:
        prog = {name: importlib.import_module(f"trianglemap.{name}") for name in TRACED_MODULES}
        import_s = statistics.median(import_seconds() for _ in range(IMPORT_REPEATS))
        tracer = Tracer()
        tracer.install(prog)

    ops = workload.ops_per_pass(inputs)
    n_slices = min(SLICES_PER_PASS, len(inputs))
    slices = [range(j, len(inputs), n_slices) for j in range(n_slices)]
    fastest_slice = [float("inf")] * n_slices
    pass_times: list[float] = []
    first = None
    repeatable = True
    best = None  # (seconds, per-layer values, spans, counts) of the fastest traced pass
    setup_due = time.perf_counter()
    deadline = setup_due + args.seconds
    while len(pass_times) < MIN_PASSES or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        walls_before = len(getattr(workload, "child_walls", ()))
        outputs = [None] * len(inputs)
        elapsed = 0.0
        for j, members in enumerate(slices):
            start = time.perf_counter()
            for i in members:
                outputs[i] = workload.run_one(prog, inputs[i])
            took = time.perf_counter() - start
            elapsed += took
            fastest_slice[j] = min(fastest_slice[j], took)
        if tracer is not None and hasattr(workload, "run_in_process"):
            start = time.perf_counter()
            # cli.main in this process must print exactly what the processes printed
            if workload.run_in_process(prog, inputs) != outputs:
                repeatable = False
            elapsed += time.perf_counter() - start
        pass_times.append(elapsed)
        if first is None:
            first = outputs
        elif outputs != first:
            repeatable = False
        if tracer is not None:
            walls = getattr(workload, "child_walls", [])[walls_before:]
            counts = tracer.counts()
            if best is not None and counts != best[3]:
                repeatable = False
            if best is None or elapsed < best[0]:
                best = (elapsed, layer_metrics(tracer, walls, import_s), tracer.spans, counts)
        elif len(setups) < SETUP_SAMPLES and time.perf_counter() >= setup_due:
            setups.append(child_setup_seconds(workload.name, args.seed))
            setup_due += args.seconds / (SETUP_SAMPLES - 1)
    if tracer is not None:
        tracer.uninstall()

    failures = workload.check(prog, inputs, first)
    unexpected = [label for label in failures if label not in workload.known_faults]
    for label in failures:
        reason = workload.known_faults.get(label, "output differs from the reference")
        print(f"failed: {label}: {reason}", file=sys.stderr)
    if not repeatable:
        print("passes over the same inputs gave different outputs or counts", file=sys.stderr)

    if tracer is None:
        metrics = {
            "ops_per_s": {"value": ops / sum(fastest_slice), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": workload.peak_rss_kb() / 1024, "unit": "MB"},
        }
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": best[1][name], "unit": unit} for name, unit in units.items()}
        path = write_spans(workload.name, args.seed, pass_times, best[2])
        print(f"spans of the fastest traced pass: {os.path.relpath(path, ROOT)}")
    print(f"{workload.name}: {len(pass_times)} passes of {ops} operations in {n_slices} slices;"
          f" fastest pass {min(pass_times):.4f} s, median pass {statistics.median(pass_times):.4f} s,"
          f" sum of fastest slices {sum(fastest_slice):.4f} s")
    print(json.dumps({
        "correct": repeatable and not unexpected,
        "attempted": ops * len(pass_times),
        "failed": len(failures) * len(pass_times),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
