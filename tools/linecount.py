"""Print the line counts of the Python sources under ``src/``.

Three numbers: total lines, code lines and docstring lines.  A code
line holds a token other than a comment and is not part of a
docstring; a docstring line is one spanned by the docstring of a
module, class or function.  Blank and comment-only lines count in the
total alone.  From the repository root::

    python3 tools/linecount.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int, int]:
    """(total, code, docstring) lines of one source file."""
    docs = docstring_lines(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs), len(docs)


def main() -> None:
    totals = [0, 0, 0]
    for path in sorted(SRC.rglob("*.py")):
        for k, n in enumerate(count(path.read_text())):
            totals[k] += n
    for label, n in zip(("total", "code", "docstring"), totals):
        print(f"{label:<10}{n:>6,}")


if __name__ == "__main__":
    main()
