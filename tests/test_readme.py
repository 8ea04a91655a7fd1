"""The README's library sketch runs as printed and prints what it says."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_sketch():
    text = README.read_text()
    section = text.split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_prints_pi_over_8(capsys):
    exec(compile(library_sketch(), str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1
    assert float(printed[0]) == pytest.approx(math.pi / 8, rel=1e-12)
