"""README's Library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_examples_run_in_order():
    """Every ```python block of README, in order, in one namespace: a later
    block reads the loop an earlier one built."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["loop"].step_index == namespace["n_steps"] + int(40.0 / namespace["grid"].dt)
    assert len(namespace["traces"][0]) == namespace["n_steps"] + 1
