from code_lines import count_code_lines

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line, then blank lines


class C:
    """Class docstring."""

    TEXT = """a string that is
not a docstring"""

    def f(self, a,
          b):
        """Function docstring.

        Its blank line does not count either.
        """
        return [a,
                b]
'''


def test_counts_code_lines_outside_docstrings_and_comments():
    # import; class; both lines of TEXT; both lines of the def; both of the return
    assert count_code_lines(SAMPLE) == 8
