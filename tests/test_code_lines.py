"""``scripts/code_lines.py``: the code-line count every change reports."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

FIXTURE = '''"""Module docstring: not code."""

# A comment line: not code.
import os  # a trailing comment leaves a code line

NOTE = 1
"""An attribute note written as a string: not code."""


def f(a,
      b):
    """Docstring
    over two lines."""

    total = (a +
             b)
    text = """a multi-line string
inside a statement counts"""
    return total, text, os
'''


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("code_lines", module)
    spec.loader.exec_module(module)
    return module


def test_counts_code_and_drops_comments_blanks_and_string_statements(code_lines):
    # import, NOTE, def (2 lines), total (2), text (2), return.
    assert code_lines.code_lines(FIXTURE) == 9


def test_groups_by_package_and_prints_a_total(code_lines, tmp_path, capsys):
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "a.py").write_text(FIXTURE)
    (tmp_path / "top.py").write_text("x = 1\n\n# done\n")
    assert code_lines.count_tree(tmp_path) == {"core": 9, code_lines.TOP_LEVEL: 1}
    assert code_lines.main([str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == f"{tmp_path} total: 10"
