"""The README's Python quickstart runs as written.

The block is executed, not copied: an API change that breaks the
snippet fails here instead of waiting for a reader to find it.
"""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def test_the_readme_python_block_runs():
    blocks = PYTHON_BLOCK.findall((ROOT / "README.md").read_text("utf-8"))
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    label, cycles = out.getvalue().splitlines()[0].split()
    assert label == "777"
    assert int(cycles) > 0
