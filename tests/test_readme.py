"""README's quickstart blocks run, and print the values their comments show."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
# The value a print line's comment shows: its first number, True, False or None.
COMMENT_VALUE = re.compile(r"#.*?(-?\d[\d.e+-]*|True|False|None)")


def test_readme_has_both_quickstart_blocks():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("block", [pytest.param(block, id=f"block-{i}") for i, block in enumerate(BLOCKS)])
def test_quickstart_prints_its_commented_values(block):
    expected = []
    for line in block.splitlines():
        if line.startswith("print("):
            match = COMMENT_VALUE.search(line)
            assert match, f"print without a value comment: {line}"
            expected.append(match.group(1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
