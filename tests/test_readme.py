"""README's command examples run and succeed, and the documented defaults
are the parser's.

Every ``curvlab ...`` line of README's ``sh`` blocks, with its continuation
lines joined, is split like a shell would and run in-process through
``cli.main``; each must exit 0.  README's defaults table and the
``Defaults:`` sentence of the ``cli`` docstring must state the defaults that
``build_parser`` declares, and no others.
"""

import re
import shlex
from pathlib import Path

import pytest

from curvlab import cli
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


_PAIR = re.compile(r"(--[a-z-]+) ([\w.]+)(?: \((\w+) for ([\w-]+)\))?")


def _stated(text, command):
    """The `--flag value` pairs a docs fragment states for command; a pair
    followed by `(other for command)` states other for that command."""
    return {(flag, other if which == command else value)
            for flag, value, other, which in _PAIR.findall(text.replace("`", ""))}


def test_docs_state_the_parser_defaults():
    commands = cli.build_parser().commands
    common = set.intersection(*(set(sub.flags) for sub in commands.values()))
    declared = {name: {dest: (flag.option_strings[0], str(flag.default))
                       for dest, flag in sub.flags.items()
                       if flag.default is not None and flag.default is not False}
                for name, sub in commands.items()}

    table = dict(re.findall(r"^\| `?([\w -]+?)`? \| (.+) \|$", README.read_text(), re.M))
    sentence = re.search(r"Defaults: (.*?)\. ", " ".join(cli.__doc__.split()))[1]
    clauses = dict(clause.split(" ", 1) for clause in sentence.split("; "))
    for name, defaults in declared.items():
        readme = _stated(table["every command"], name) | _stated(table.get(name, ""), name)
        assert readme == set(defaults.values()), name
        # the Defaults: sentence names only the flags that some command lacks
        specific = {pair for dest, pair in defaults.items() if dest not in common}
        assert _stated(clauses.get(name, ""), name) == specific, name
