from pathlib import Path

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


SRC = Path(__file__).resolve().parents[1] / "src"

# The code lines of every file under src/, as `python tests/code_lines.py src`
# prints them.  A change that grows or shrinks src/ updates this table, so its
# diff shows where; the total is the measure of "net lines of src/".
CODE_LINES = {
    "cohomolab/__init__.py": 34,
    "cohomolab/__main__.py": 4,
    "cohomolab/ansatz.py": 279,
    "cohomolab/cli.py": 184,
    "cohomolab/cocycles.py": 211,
    "cohomolab/linalg.py": 60,
    "cohomolab/operators.py": 304,
    "cohomolab/poly.py": 275,
    "cohomolab/quantization.py": 133,
    "cohomolab/report.py": 191,
    "cohomolab/symbols.py": 62,
}


def test_src_code_lines_are_pinned_per_file():
    counted = {path.relative_to(SRC).as_posix(): count_code_lines(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.rglob("*.py"))}
    assert counted == CODE_LINES
