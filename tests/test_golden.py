"""Every command of the golden corpus prints exactly its stored transcript.

A failure shows the unified diff from the stored file; if the change is
intended, ``python tests/golden.py --update`` rewrites the files and prints
the same diff.
"""

import pytest

import golden
from test_readme import COMMANDS as README_COMMANDS


def test_corpus_and_files_match():
    assert sorted(p.stem for p in golden.GOLDEN.glob("*.txt")) == sorted(golden.CORPUS)


def test_corpus_holds_readmes_commands():
    assert all(argv in golden.CORPUS.values() for argv in README_COMMANDS)


@pytest.mark.parametrize("name", list(golden.CORPUS))
def test_transcript_is_unchanged(name):
    delta = golden.diff(name, golden.transcript(golden.CORPUS[name]))
    assert not delta, delta
