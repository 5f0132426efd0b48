"""Every ``$ invstab ...`` example in README.md prints exactly what it shows.

An example is an indented block whose first line is ``$ invstab`` plus
arguments; the rest of the block, up to the next unindented line, is the
expected stdout (blank lines inside the block included, trailing ones not).
"""

import shlex
from pathlib import Path

import pytest

from invstab import cli

README = Path(__file__).resolve().parent.parent / 'README.md'
INDENT = '    '
PROMPT = INDENT + '$ invstab '


def readme_examples():
    lines = README.read_text(encoding='utf-8').splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith(PROMPT):
            continue
        block = []
        for body in lines[i + 1:]:
            if body and not body.startswith(INDENT):
                break
            block.append(body[len(INDENT):])
        while block and not block[-1]:
            block.pop()
        expected = ''.join(b + '\n' for b in block)
        examples.append((line[len(PROMPT):], expected))
    return examples


def test_readme_has_examples():
    commands = [cmd.split()[0] for cmd, _ in readme_examples()]
    assert commands == ['check', 'search', 'generate', 'verify',
                        'trace-table']


@pytest.mark.parametrize('command, expected', readme_examples(),
                         ids=[cmd for cmd, _ in readme_examples()])
def test_readme_example(capsys, command, expected):
    assert cli.main(shlex.split(command)) == cli.EXIT_OK
    assert capsys.readouterr().out == expected
