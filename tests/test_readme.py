"""Every command-line example in the README runs and exits with code 0.

Examples that read a script or state file (``--script``, ``--file``) are
left out: the README does not ship those inputs.
"""

import shlex
from pathlib import Path

import pytest

from chiralis.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("chiralis ") and "--script" not in line and "--file" not in line:
            out.append(line)
    return out


def test_examples_found():
    assert len(_examples()) >= 9


@pytest.mark.parametrize("example", _examples())
def test_readme_example_exits_zero(example, capsys):
    assert run(shlex.split(example)[1:]) == 0, capsys.readouterr().err
