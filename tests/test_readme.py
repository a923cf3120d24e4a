"""README's command examples run and succeed.

Every ``curvlab ...`` line of README's ``sh`` blocks, with its continuation
lines joined, is split like a shell would and run in-process through
``cli.main``; each must exit 0.
"""

import re
import shlex
from pathlib import Path

import pytest

from curvlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("curvlab "):
                commands.append(shlex.split(line)[1:])
    return commands


COMMANDS = readme_commands()


def test_readme_has_command_examples():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_readme_command_exits_zero(argv, capsys):
    code = main(argv)
    assert code == 0, capsys.readouterr().err
