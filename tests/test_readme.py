"""The README's Python examples run against the package as it is."""

import re
from pathlib import Path

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
