"""Print the number of code lines in each Python file given, one "count path" line per file.

Usage: python scripts/code_lines.py FILE...

A code line holds a token other than a comment or a line break, so blank lines
and comment-only lines do not count; a token that spans lines, such as a
triple-quoted string, counts every line it covers. The lines of module, class
and function docstrings are then taken out. The count reads the source with
`tokenize` and `ast` and runs nothing, so it measures a change's size without
its comments and docstrings.
"""

from __future__ import annotations

import ast
import sys
import tokenize

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: str) -> int:
    with open(path, "rb") as f:
        source = f.read()
    lines = set()
    for tok in tokenize.tokenize(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source, path)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            value = first.value if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for path in paths:
        print(f"{code_lines(path):7d} {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
