"""The README's Python and CLI examples run against the package as it is, and
its criteria table lists the CLI's criteria."""

import re
import shlex
from pathlib import Path

from bell3q.cli import CRITERION_NAMES, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_and_the_quick_start_seesaw_reaches_its_bound():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    namespaces = [{} for _ in blocks]
    for block, namespace in zip(blocks, namespaces):
        exec(compile(block, str(README), "exec"), namespace)
    quick_start = namespaces[0]
    bound = quick_start["report"].bound_value
    assert abs(bound - 4 * 0.9**3) < 1e-12   # printed as 2.916...
    assert abs(quick_start["oracle"].value - bound) < 1e-9


def test_cli_block_lines_exit_0(capsys):
    block = re.search(r"## CLI\n\n```\n(.*?)```", README.read_text(), flags=re.S).group(1)
    commands = block.replace("\\\n", " ").splitlines()
    assert commands
    for command in commands:
        program, *argv = shlex.split(command)
        assert program == "bell3q"
        assert main(argv) == 0, command
        assert capsys.readouterr().out


def test_criteria_table_names_the_cli_criteria_in_order():
    rows = re.search(r"\| criterion \|.*\n\| ---.*\n((?:\|.*\n)+)", README.read_text()).group(1)
    names = tuple(re.match(r"\| `(\w+)` \|", row).group(1) for row in rows.splitlines())
    assert names == CRITERION_NAMES
