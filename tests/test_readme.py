"""The README's library example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_at_a_glance_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library at a glance", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed and all(float(v) > 0 for v in printed)
