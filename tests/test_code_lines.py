"""The code-line count of ``tools/code_lines.py``."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

from code_lines import code_lines  # noqa: E402


def test_docstrings_comments_and_blank_lines_do_not_count():
    source = '''"""Module
docstring."""

# a comment
X = """a string that is
not a docstring"""


class A:
    """Class docstring."""

    def f(self, y):
        """Function
        docstring."""
        return (y +  # trailing comment
                1)
'''
    # X's two lines, class A, def f and the return's two lines
    assert code_lines(source) == 6
