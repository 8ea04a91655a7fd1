"""The README's library sketch runs as printed and prints what it says,
its key table lists every config key with its default, and its Flags
sentence names every option of the run subcommands."""

import math
import re
from pathlib import Path

import pytest

from tubeflow.cli import _KEYS, main

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


def key_table():
    """{key: default text} from the README's config key table."""
    rows = re.findall(r"^\| `([\w.]+)` \| (.*?) \|", README.read_text(), re.M)
    return {key: default.strip("`") for key, default in rows}


def test_key_table_lists_every_config_key_with_its_default():
    table = key_table()
    assert list(table) == list(_KEYS)
    for key, text in table.items():
        assert _KEYS[key].parse(text) == _KEYS[key].default, key


def test_flags_sentence_names_every_solve_option(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    options = set(re.findall(r"(?<![\w-])--[a-z][\w-]*",
                             capsys.readouterr().out)) - {"--help"}
    sentence = README.read_text().split("Flags:", 1)[1].split("Exit codes")[0]
    assert set(re.findall(r"`(--[a-z][\w-]*)", sentence)) == options
    assert "--config" in options  # the help text was read
