"""Count the lines of the package's source, two ways.

Prints the `wc -l` total of `src/absorbing_mdp/*.py` and its split into
code, docstring, full-line comment and blank lines:

* a blank line holds nothing but whitespace, inside a docstring or not;
* a docstring line is any other line of the first statement of a module,
  class or function body when that statement is a string literal;
* a comment line holds nothing but a comment;
* every other line is a code line.

Usage: python tools/source_size.py [FILE ...]
(default: every src/absorbing_mdp/*.py, relative to the repository root).
Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def split(text: str) -> dict[str, int]:
    """The line counts of one source text, by kind."""
    docs = _docstring_lines(ast.parse(text))
    comments = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip():
            comments.add(tok.start[0])
    counts = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            counts["blank"] += 1
        elif i in docs:
            counts["docstring"] += 1
        elif i in comments:
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted((ROOT / "src" / "absorbing_mdp").glob("*.py"))
    total = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for path in paths:
        for kind, n in split(path.read_text()).items():
            total[kind] += n
    lines = sum(total.values())
    print(f"wc -l: {lines:,} lines in {len(paths)} files")
    print(
        f"{lines:,} = {total['code']:,} code + {total['docstring']:,} docstring"
        f" + {total['comment']:,} comment + {total['blank']:,} blank"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
