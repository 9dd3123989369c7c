"""Count the source lines of each module of `src/conceptds`, by kind.

Every line of a module is one of four kinds:

* docstring: inside the docstring of the module, a class or a function;
* code: any other line that holds a token of the program, a string
  spanning lines included;
* comment: a line whose only token is a comment;
* blank: every other line.

The four counts of a module sum to its line count.  `__init__.py` only
re-exports names, so it is listed apart and left out of the total.

Run from anywhere, with no options: python3 tools/src_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "conceptds"
KINDS = ("code", "docstring", "comment", "blank")
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The lines of one module's text, by kind."""
    code: set[int] = set()
    comment: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comment.add(token.start[0])
        elif token.type not in _SKIPPED:
            code.update(range(token.start[0], token.end[0] + 1))
    docstring = _docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number in range(1, len(text.splitlines()) + 1):
        if number in docstring:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        elif number in comment:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def _row(name: str, counts: dict[str, int]) -> str:
    return f"{name:<16}" + "".join(f"{counts[k]:>10}" for k in KINDS) \
        + f"{sum(counts.values()):>10}"


def main() -> None:
    print(f"{'module':<16}" + "".join(f"{k:>10}" for k in KINDS)
          + f"{'lines':>10}")
    total = dict.fromkeys(KINDS, 0)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        counts = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(_row(path.name, counts))
    print(_row("total", total))
    init = PACKAGE / "__init__.py"
    print(_row(init.name, count(init.read_text(encoding="utf-8")))
          + "  (apart, not in the total)")


if __name__ == "__main__":
    main()
