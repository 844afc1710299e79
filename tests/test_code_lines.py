"""The code-line counter of ``tools/code_lines.py``: which lines it counts."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load():
    """The script as a module, run as an import, not as ``__main__``."""
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load()

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a comment after code


# a comment alone
class A:
    """Class docstring."""

    x = 1


def f(a):
    """Function
    docstring."""
    "a string statement that opens no body"
    return math.hypot(
        a,
        a,
    )
'''


def test_docstrings_comments_and_blank_lines_are_not_code(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, class, x = 1, def, the string statement, and the 4-line return
    assert code_lines.code_lines(path) == 1 + 1 + 1 + 1 + 1 + 4


def test_a_statement_over_three_lines_counts_three(tmp_path):
    path = tmp_path / "three.py"
    path.write_text("x = (\n    1,\n)\n")
    assert code_lines.code_lines(path) == 3


def test_importing_the_script_counts_nothing(capsys):
    _load()
    assert capsys.readouterr().out == ""


def test_the_scripts_total_is_the_sum_over_the_files():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    want = sum(code_lines.code_lines(p) for p in (ROOT / "src").rglob("*.py"))
    assert out[-1].split() == [str(want), "total"]
    assert len(out) - 1 == len(list((ROOT / "src").rglob("*.py")))
