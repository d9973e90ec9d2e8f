"""Count the code lines of the Python modules in a directory.

A code line holds at least one token that is not a comment, a line break, an
indentation change or a docstring (of a module, class or function). Blank
lines, comment lines and docstrings therefore do not count, and a statement
spread over several lines counts each of them. The count is printed per
module and in total.

Usage: python tools/code_lines.py [DIRECTORY]   (default: src/acsflow)
"""

import argparse
import ast
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(tree):
    """(line, column) of the first token of each docstring in the tree."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source):
    """The number of code lines of a module's source text."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", default="src/acsflow")
    args = parser.parse_args(argv)
    counts = {}
    for root, dirs, files in os.walk(args.directory):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    counts[os.path.relpath(path, args.directory)] = code_lines(fh.read())
    if not counts:
        sys.exit(f"no Python modules under {args.directory}")
    width = max(len(name) for name in counts)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")


if __name__ == "__main__":
    main()
