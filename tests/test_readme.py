"""The README's command examples are run and compared byte for byte.

Each ``$ fluxstab ...`` line in a fenced block of README.md is followed by
the lines the command prints.  The benchmark parses these line formats
with regular expressions, so a change to one shows up here first.
"""

import re
import shlex
from pathlib import Path

import pytest

from fluxstab.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _examples() -> list[tuple[str, str]]:
    """``(command, stdout)`` for every example, in README order."""
    text = (ROOT / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", text, flags=re.M | re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ fluxstab "):
                command, _, output = chunk.partition("\n")
                examples.append((command[2:], output.rstrip("\n") + "\n"))
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 3  # two tmain runs and one hatd-lin run


@pytest.mark.parametrize("command, output", EXAMPLES,
                         ids=[command for command, _ in EXAMPLES])
def test_readme_example_prints_its_output(command, output, capsys,
                                          monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples name configs/ from the root
    main(shlex.split(command)[1:])
    assert capsys.readouterr().out == output
