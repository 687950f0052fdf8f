"""The "Library quick start" block of README.md runs and prints what
its comments say.  A comment with ``...`` fixes the prefix and the
suffix of the line only."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start():
    text = README.read_text(encoding="utf-8")
    found = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```",
                      text, re.S | re.M)
    assert found, "README.md has no Library quick start code block"
    return found.group(1)


def test_readme_quick_start_prints_its_comments():
    code = _quick_start()
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(") and "#" in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert expected and len(printed) == len(expected)
    for line, want in zip(printed, expected):
        if "..." in want:
            prefix, suffix = want.split("...", 1)
            assert line.startswith(prefix) and line.endswith(suffix), \
                (line, want)
        else:
            assert line == want
