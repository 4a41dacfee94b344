"""Count the code lines of the tmfusion package, per module and in total.

A code line is a line that holds a Python token other than a comment or
a docstring: blank lines, comment lines and the lines of module, class
and function docstrings do not count, and a string that spans several
lines counts each of them.  The second column is the plain line count
(``wc -l``).  Standard library only:

    python3 tools/code_lines.py [package directory]

The directory defaults to src/tmfusion next to this script's parent.
"""

import ast
import io
import os
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """(code lines, lines) of one module's source text."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED and tok.start[0] not in docs:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code), source.count("\n")


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    package = argv[1] if len(argv) > 1 else os.path.join(here, "..", "src", "tmfusion")
    names = sorted(n for n in os.listdir(package) if n.endswith(".py"))
    width = max(len(n) for n in names + ["total"])
    print("%-*s %6s %6s" % (width, "module", "code", "lines"))
    totals = [0, 0]
    for name in names:
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            code, lines = count(fh.read())
        totals[0] += code
        totals[1] += lines
        print("%-*s %6d %6d" % (width, name, code, lines))
    print("%-*s %6d %6d" % (width, "total", *totals))


if __name__ == "__main__":
    main(sys.argv)
