"""Mutation check: each mutant of a decision line must fail the tests named for it.

A mutant is one exact text replacement in one file under ``src/``, and its
text must occur there exactly once, so a mutant whose line has changed fails
the check instead of testing nothing.  For each mutant the repository is
copied to a temporary directory, the replacement is made in the copy, and the
mutant's test files run there with ``pytest -x``.  A failing test kills the
mutant; one that survives fails the check.  The same test files first run
on an unmutated copy, which must pass, so a kill is the mutant's and not a
broken test's.

Run from anywhere, with the test dependencies installed::

    python tools/mutants.py

It prints one line per mutant and exits 0 if every mutant is killed, 1 if any
survives or does not match once, and 2 if the unmutated tests fail or a run
stops for any other reason (a collection error, an interrupt).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


NUMERIC = "src/trianglemap/numeric.py"
SIMPLEX = "src/trianglemap/simplex.py"

MUTANTS = (
    Mutant("negative last remainder passes", SIMPLEX,
           '    if last is NEGATIVE:\n        raise ValueError("last remainder is negative")\n', "",
           ("tests/test_simplex.py",)),
    Mutant("undecided last sign at max_len is precision-exhausted", SIMPLEX,
           "if len(symbols) == max_len else PRECISION_EXHAUSTED",
           "if len(symbols) == max_len and last is POSITIVE else PRECISION_EXHAUSTED",
           ("tests/test_simplex.py",)),
    Mutant("evaluator loop runs past max_len", SIMPLEX,
           "if s is not POSITIVE or len(symbols) == max_len:",
           "if s is not POSITIVE:",
           ("tests/test_simplex.py",)),
    Mutant("membership asks no region name", SIMPLEX,
           "return (_names_region(symbol, len(xs)) and _in_domain(den, xs, closed)",
           "return (_in_domain(den, xs, closed)",
           ("tests/test_simplex.py",)),
    Mutant("domain check fails a zero gap before x_n", SIMPLEX,
           "if s is POSITIVE or (s is ZERO and (t < n or allow_zero_last)):",
           "if s is POSITIVE or (s is ZERO and t == n and allow_zero_last):",
           ("tests/test_simplex.py",)),
    Mutant("zero slack goes to the pair family", SIMPLEX,
           '"slack sign is ambiguous") is not NEGATIVE:',
           '"slack sign is ambiguous") is POSITIVE:',
           ("tests/test_simplex.py",)),
    Mutant("packed sign reads a value of 1 at top as zero", NUMERIC,
           "return POSITIVE if p >= self.top else",
           "return POSITIVE if p > self.top else",
           ("tests/test_numeric.py",)),
    Mutant("window reads zero on a straddle", NUMERIC,
           "return ZERO if lo == hi else AMBIGUOUS",
           "return ZERO",
           ("tests/test_simplex.py",)),
)

#: What a copy leaves out: version control and whatever earlier runs cached.
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


def _pytest(tree: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code for ``tests`` in the copy ``tree``: 0 passed, 1 failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-W", "error", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _run_on_copy(mutant: Mutant | None, tests: tuple[str, ...]) -> int:
    """pytest's exit code on a fresh copy of the repository, with ``mutant``
    applied unless it is None."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        if mutant is not None:
            target = tree / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        return _pytest(tree, tests)


def main() -> int:
    unmatched = [m.name for m in MUTANTS if (ROOT / m.path).read_text().count(m.old) != 1]
    if unmatched:
        for name in unmatched:
            print(f"no single match  {name}")
        return 1
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    code = _run_on_copy(None, tests)
    if code != 0:
        print(f"unmutated tests exit {code}: {' '.join(tests)}", file=sys.stderr)
        return 2
    survived = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        code = _run_on_copy(mutant, mutant.tests)
        took = time.perf_counter() - start
        if code not in (0, 1):
            print(f"pytest exit {code}  {mutant.name}", file=sys.stderr)
            return 2
        survived += code == 0
        print(f"{'survived' if code == 0 else 'killed  '}  {mutant.name}  ({took:.1f} s)")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
