"""tools/code_lines.py, the code-line counter that line budgets rest on,
on small inline sources."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os   # a trailing comment leaves its line a code line

# a comment line


def f(x):
    """A function docstring."""
    text = """a string
over three
lines"""
    "a string statement after the first is not a docstring"
    return x


class C:
    """A class docstring
    over two lines."""

    def g(self):
        \'\'\'A method docstring.\'\'\'
        return 1
'''

# import, def f, the three lines of text, the later string, return x,
# class C, def g, return 1
CODE = 10


def test_docstrings_comments_and_blank_lines_are_not_code():
    assert code_lines.count(SOURCE) == (CODE, SOURCE.count("\n"))
    assert code_lines.docstring_lines(code_lines.ast.parse(SOURCE)) == {1, 2, 10, 19, 20, 23}


def test_a_string_over_several_lines_counts_each_line():
    assert code_lines.count('x = """a\nb\nc"""\n') == (3, 3)
    assert code_lines.count("y = (1,\n\n     2)\n") == (2, 3)


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    code_lines.main(["code_lines.py", str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    lines = SOURCE.count("\n")
    assert rows == [["module", "code", "lines"],
                    ["a.py", str(CODE), str(lines)],
                    ["b.py", "1", "3"],
                    ["total", str(CODE + 1), str(lines + 3)]]
