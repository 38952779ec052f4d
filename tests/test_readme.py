"""README's "Command line" examples print what their comments say.

Every line of that block that reads `mgk ...  # expected` is run through
`mgk.cli.main`, and its stdout must start with the comment, so a change
to a command's output or to the README shows up here.
"""

import os
import shlex

import pytest

from mgk.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def command_examples():
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, sep, expected = line.partition("  # ")
        if line.startswith("mgk ") and sep:
            examples.append((shlex.split(command)[1:], expected.strip()))
    return examples


EXAMPLES = command_examples()


def test_the_block_has_examples():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example_prints_its_comment(capsys, argv, expected):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0 and out.startswith(expected), out
