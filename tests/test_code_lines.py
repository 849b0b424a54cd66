"""tools/code_lines.py, the count by which a less-code change is judged."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''\
"""Module docstring,
over two lines."""

# a comment

import os  # a line with code and a comment counts


class A:
    """Class docstring."""

    def f(self):
        """Function docstring,
        over two lines."""
        x = 1
        """A string that is not a docstring,
        over two lines."""
        return os.path.join(
            x,
            x)
'''


def test_counts_the_lines_that_hold_code():
    # import, class, def, x = 1, the two lines of the string that is not a
    # docstring and the three lines of the call
    assert code_lines.code_lines(SOURCE) == 9
    assert code_lines.code_lines('"""Docstring."""\n\n# comment\n') == 0
