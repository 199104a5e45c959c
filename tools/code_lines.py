#!/usr/bin/env python3
"""Count the code lines of Python modules: lines that hold a token other than
a comment, and that are not part of a docstring.

    python3 tools/code_lines.py [DIR_OR_FILE ...]   (default: src/spdzgen)

Prints one line per module and a total.  A docstring is the string literal
that opens a module, class or function body; a string token spanning
several lines counts each of them.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with tokenize.open(path) as fh:
        tokens = list(tokenize.generate_tokens(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_text())))


def main(argv) -> int:
    paths = []
    for arg in argv or [str(ROOT / "src" / "spdzgen")]:
        arg = Path(arg)
        paths += sorted(arg.glob("*.py")) if arg.is_dir() else [arg]
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print("%6d  %s" % (count, path.name))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
