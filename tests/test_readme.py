"""The README's examples, run as written.

Its ```python blocks run in order, in one namespace, and every print is
compared with the ``# ...`` comment that follows it, inline or on the
next line.  Its ``$ cospricer price ...`` lines, and the command its
prose quotes with the price it prints, run through ``cli.main``.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from cospricer.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
# a shell line and the output line under it
SHELL_LINES = re.findall(r"^\$ cospricer (price .*)\n([^$`\n].*)$", README, re.M)
# "`cospricer price --flags` prints <price>", possibly across a line break
PROSE_COMMANDS = re.findall(r"`cospricer (price [^`]*)` prints\s+([-0-9.e]+)", README)


def expected_prints(block: str) -> list:
    """The comment after each print call of block, in order."""
    lines = block.splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        inline = re.search(r"\)\s*#\s*(.*)$", line)
        if inline:
            out.append(inline.group(1).strip())
            continue
        follow = re.match(r"#\s*(.*)$", lines[i + 1]) if i + 1 < len(lines) else None
        assert follow, f"print without a comment giving its output: {line!r}"
        out.append(follow.group(1).strip())
    return out


def run_cli(capsys, args: str):
    code = main(shlex.split(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_readme_has_the_examples_these_tests_read():
    assert len(PYTHON_BLOCKS) == 3
    assert len(SHELL_LINES) == 2
    assert len(PROSE_COMMANDS) == 1


def test_python_blocks_print_what_their_comments_say():
    namespace = {}
    for index, block in enumerate(PYTHON_BLOCKS):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            exec(compile(block, f"README.md python block {index}", "exec"), namespace)
        assert printed.getvalue().splitlines() == expected_prints(block), block


@pytest.mark.parametrize("args, output", SHELL_LINES, ids=[a for a, _ in SHELL_LINES])
def test_shell_lines_print_the_line_under_them(capsys, args, output):
    assert run_cli(capsys, args) == (0, output + "\n", "")


@pytest.mark.parametrize("args, value", PROSE_COMMANDS, ids=[a for a, _ in PROSE_COMMANDS])
def test_prose_command_prints_its_price(capsys, args, value):
    code, out, err = run_cli(capsys, args)
    assert (code, err) == (0, "")
    assert out.split()[0] == value
