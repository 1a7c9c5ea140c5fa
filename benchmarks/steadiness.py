"""Steadiness check: two interleaved sets of benchmark runs, compared side by side.

    python3 benchmarks/steadiness.py [--runs N]

Run it from the root of a source checkout.  For every workload it makes 2 x N
untraced runs of ``benchmarks/run.py`` with seeds 1..N, each lasting
``run_seconds`` of ``BENCHMARK.json``: one run of set A and one of set B per
seed, A first on odd seeds and B first on even ones.  Rounds go over all
workloads in turn, so a slow spell of the machine touches every workload and
both sets alike.

For each end-to-end metric it prints both sets' medians and quartiles, each
set's spread (quartile distance over the median), how much worse B's median
is than A's, and the metric's bound from ``BENCHMARK.json``.  A metric is
``ok`` when both spreads and the change stay within the bound; the failed
share of operations must be identical in both sets.
Raw results go to ``benchmarks/out/steadiness.json``.  The exit code is 0 when
every line is ok.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance over the median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    command = [sys.executable if part == "python3" else part for part in spec["command"]]

    results: dict = {name: {"A": [], "B": []} for name in names}
    for seed in range(1, args.runs + 1):
        for name in names:
            for label in ("AB" if seed % 2 else "BA"):
                res = run_once(command, name, seed, seconds)
                results[name][label].append(res)
                print(f"{name} seed {seed} set {label}: "
                      + ", ".join(f"{m} {v['value']:.6g}" for m, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steadiness.json"), "w") as fh:
        json.dump({"runs": args.runs, "seconds": seconds, "results": results}, fh, indent=1)

    all_ok = True
    header = (f"{'workload':<15} {'metric':<12} {'A median':>11} {'A q1..q3':>23} {'A spr':>6}"
              f" {'B median':>11} {'B q1..q3':>23} {'B spr':>6} {'worse':>6} {'bound':>5}  verdict")
    print(f"{args.runs} runs per set, {seconds} s each")
    print(header)
    for name in names:
        for metric in spec["end_to_end"]:
            m = metric["name"]
            a = spread([r["metrics"][m]["value"] for r in results[name]["A"]])
            b = spread([r["metrics"][m]["value"] for r in results[name]["B"]])
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (b[0] - a[0]) / a[0]
            ok = a[3] <= metric["bound"] and b[3] <= metric["bound"] and worse <= metric["bound"]
            all_ok &= ok
            print(f"{name:<15} {m:<12} {a[0]:>11.5g} {a[1]:>11.5g}..{a[2]:<11.5g} {a[3]:>6.3f}"
                  f" {b[0]:>11.5g} {b[1]:>11.5g}..{b[2]:<11.5g} {b[3]:>6.3f}"
                  f" {worse:>+6.3f} {metric['bound']:>5}  {'ok' if ok else 'FAIL'}")
        shares = {label: sorted({r["failed"] / r["attempted"] for r in results[name][label]})
                  for label in "AB"}
        correct = all(r["correct"] for label in "AB" for r in results[name][label])
        same = len(shares["A"]) == 1 and shares["A"] == shares["B"]
        all_ok &= same and correct
        print(f"{name:<15} failed share A {shares['A']} B {shares['B']}, all correct: {correct}"
              f"  {'ok' if same and correct else 'FAIL'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
