"""The counting rules of tools/code_lines.py and its two-tree output."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULE = '''"""Module docstring,
over two lines."""

# A comment line.
X = 1  # a trailing comment keeps its line


class C:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a multi-line
string that is not a docstring"""
        return text
'''


def test_counting_rules():
    # Counted: X, class C, def f, both lines of `text`, return.
    assert code_lines.code_lines(MODULE) == 6


@pytest.fixture()
def two_trees(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (parent / "a.py").write_text("x = 1\ny = 2\nz = 3\nw = 4\n")
    (parent / "gone.py").write_text("w = 1\n")
    (change / "a.py").write_text('"""Now documented."""\nx = 1\n')
    (change / "new.py").write_text("v = [\n    1,\n]\n")
    return parent, change


def test_one_tree_output(two_trees, capsys):
    _, change = two_trees
    assert code_lines.main(["code_lines.py", str(change)]) == 0
    assert capsys.readouterr().out == "     1  a.py\n     3  new.py\n     4  total\n"


def test_two_tree_output(two_trees, capsys):
    parent, change = two_trees
    assert code_lines.main(["code_lines.py", str(change), str(parent)]) == 0
    assert capsys.readouterr().out == (
        "     4 ->      1  a.py\n"
        "     1 ->      0  gone.py\n"
        "     0 ->      3  new.py\n"
        "     5 ->      4  total (-1)\n"
    )
