"""The README's Python and CLI examples run against the package as it is."""

import re
import shlex
from pathlib import Path

from bell3q.cli import main

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
