"""Print code lines per module of ``src/narrative_seq`` and their total.

A code line is a source line that holds at least one token other than a
comment or a docstring: blank lines, comment-only lines and the lines of a
module, class or function docstring do not count; a multi-line string that
is not a docstring does. Run from anywhere:

    python3 tools/code_lines.py [PACKAGE_DIR [PARENT_PACKAGE_DIR]]

With a second directory (say, the package in a ``git worktree`` of the
parent commit), each module is printed as parent -> change, a module absent
from one side counting 0 there, followed by both totals and the net change.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "narrative_seq"
_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return len(lines)


def package_lines(package: Path) -> dict[str, int]:
    """Code lines of each ``*.py`` module directly in ``package``, by file name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def main(argv: list[str]) -> int:
    change = package_lines(Path(argv[1]) if len(argv) > 1 else PACKAGE)
    if len(argv) < 3:
        for name, n in change.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(change.values()):6d}  total")
        return 0
    parent = package_lines(Path(argv[2]))
    for name in sorted(parent.keys() | change.keys()):
        print(f"{parent.get(name, 0):6d} -> {change.get(name, 0):6d}  {name}")
    before, after = sum(parent.values()), sum(change.values())
    print(f"{before:6d} -> {after:6d}  total ({after - before:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
