#!/usr/bin/env python3
"""Count the lines of Python source that hold code.

A line holds code when some token other than a comment covers it. Blank
lines, comment-only lines and the docstrings of modules, classes and
functions do not count; a string literal that is not a docstring does, on
every line it spans. Prints the count per file, then the total.

Usage:
    python3 tools/code_lines.py <file-or-directory> ...

A directory stands for every *.py file below it.
"""
import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree) -> list:
    """((first line, column), (last line, column)) of each docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc = body[0].value
                spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _python_files(paths) -> list:
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(os.path.join(root, name) for root, _, names in os.walk(path)
                            for name in names if name.endswith(".py"))
        else:
            files.append(path)
    return files


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for path in _python_files(paths):
        with open(path, "r", encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:7d} {path}")
    print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
