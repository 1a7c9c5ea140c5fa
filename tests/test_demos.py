"""The demos, each run as its own process against its captured stdout.

``demo_golden.json`` holds the exit code and stdout of every script under
``demos/`` run with default arguments and ``PYTHONPATH=src``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "demo_golden.json").read_text())


def test_golden_covers_every_demo():
    assert sorted(case["demo"] for case in GOLDEN) == sorted(
        path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("case", GOLDEN, ids=[case["demo"] for case in GOLDEN])
def test_demo_stdout(case):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / case["demo"])],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == case["exit"], proc.stderr
    assert proc.stdout == case["stdout"]
