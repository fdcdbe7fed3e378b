"""The README's code runs, and its stated results are what the code returns."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        env = {}
        for line in block.splitlines():
            stmt, sep, comment = line.partition("#")
            if sep and stmt.strip():  # an expression followed by its result
                value = eval(stmt, env)
                assert re.match(re.escape(repr(value)) + r"(,|$)", comment.strip()), line
            else:
                exec(line, env)
