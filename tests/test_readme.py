"""The README's fenced Python blocks run as written, so the API sketch
cannot drift from the API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for k, block in enumerate(blocks):
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, f"README.md python block {k}", "exec"), {})
