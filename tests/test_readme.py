"""The README's Python examples run as written: its ```python blocks run
in order in one namespace, and each line `print(...)  # text` prints
exactly text."""

import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.M | re.S)
EXPECTED = re.compile(r"^print\(.*\)\s+# (.*)$")


def test_readme_examples_print_what_they_say():
    blocks = BLOCK.findall(README.read_text())
    assert len(blocks) == 4
    printed = []

    def record(*args):
        printed.append((sys._getframe(1).f_lineno, " ".join(map(str, args))))

    namespace = {"print": record}
    checked = 0
    for number, block in enumerate(blocks, 1):
        printed.clear()
        exec(compile(block, f"README block {number}", "exec"), namespace)
        for lineno, line in enumerate(block.splitlines(), 1):
            match = EXPECTED.match(line)
            if match:
                assert [text for at, text in printed if at == lineno] == [match[1]], line
                checked += 1
    assert checked == 7
