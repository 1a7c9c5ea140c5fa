"""The README's command-line examples, run through ``cli.main``.

Each ``$ trianglemap ...`` line of the README's ``text`` block is one case;
the lines after it, up to the next blank line, are its exact stdout.
"""

import re
import shlex
from pathlib import Path

import pytest

from trianglemap.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, str]]:
    text = README.read_text()
    block = re.search(r"```text\n(.*?)```", text, re.S).group(1)
    cases = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.splitlines()
        assert command.startswith("$ trianglemap "), command
        cases.append((command[len("$ trianglemap "):], "".join(line + "\n" for line in output)))
    return cases


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected
