"""The size of `src/sqmlab`, pinned from above.

A line counts if it holds a token other than a comment, NL, NEWLINE,
INDENT, DEDENT or the end marker, and lies outside every module, class
and function docstring.  Functions are the `def` and `async def` nodes,
nested ones included.  The pins are the package's own count: a change
that adds code raises them in its diff and says why in CHANGES.md, and
a change that removes code may lower them.
"""

import ast
import io
import tokenize
from pathlib import Path

import sqmlab

SRC = Path(sqmlab.__file__).resolve().parent

CODE_LINES_MAX = 1753
FUNCTIONS_MAX = 165

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def code_size(source: str) -> tuple[int, int]:
    """(code lines, functions) of one module's source."""
    tree = ast.parse(source)
    docstrings, functions = set(), 0
    for node in ast.walk(tree):
        functions += isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings), functions


def test_counter_skips_docstrings_comments_and_blank_lines():
    source = '''"""Module
docstring."""

# a comment
X = 1  # code with a comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        s = """a string
        that is code"""

        async def g():
            return s
        return g
'''
    # X, class A, def f, the two lines of s, async def g, both returns
    assert code_size(source) == (8, 2)


def test_package_stays_within_its_pinned_size():
    sizes = {path.stem: code_size(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    lines = sum(n for n, _ in sizes.values())
    functions = sum(f for _, f in sizes.values())
    assert lines <= CODE_LINES_MAX, f"{lines} code lines by module: {sizes}"
    assert functions <= FUNCTIONS_MAX, f"{functions} functions by module: {sizes}"
