"""Count code lines per package: non-blank, non-comment, no docstrings.

    python scripts/code_lines.py [ROOT ...]        # default: src/repro

A line counts when it holds a token other than a comment or a line break.
Statements that are a bare string expression — docstrings, and attribute
or module notes written as strings — are dropped whole.  Lines are grouped
by the first directory under each root (``core``, ``ml``, ...); files
directly in the root are grouped as ``(top-level)``.  Prints one line per
group, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

TOP_LEVEL = "(top-level)"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Number of code lines in one module's ``source``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def count_tree(root: Path) -> Counter[str]:
    """Code lines of every ``*.py`` file under ``root``, by package."""
    counts: Counter[str] = Counter()
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        group = parts[0] if len(parts) > 1 else TOP_LEVEL
        counts[group] += code_lines(path.read_text(encoding="utf-8"))
    return counts


def main(argv: list[str] | None = None) -> int:
    roots = [Path(arg) for arg in (argv if argv is not None else sys.argv[1:])]
    for root in roots or [Path("src/repro")]:
        counts = count_tree(root)
        for group, lines in counts.most_common():
            print(f"{root}/{group}: {lines:,}")
        print(f"{root} total: {sum(counts.values()):,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
