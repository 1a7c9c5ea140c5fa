"""The README's command-line examples, run through ``cli.main``, and its exit codes.

Each ``$ trianglemap ...`` line of the README's ``text`` block is one case;
the lines after it, up to the next blank line, are its exact stdout.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from trianglemap import cli
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


def test_exit_codes_name_every_stderr_error():
    # the first argument of every _fail call is the error value of a stderr line
    tree = ast.parse(Path(cli.__file__).read_text())
    errors = {node.args[0].value for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_fail"}
    assert errors >= {"usage", "degenerate-input", "precision-exhausted", "out-of-memory", "output-closed"}
    paragraph = re.search(r"^Exit codes:.*?(?=\n\n)", README.read_text(), re.S | re.M).group(0)
    for error in errors:
        assert f"`{error}`" in paragraph, error
