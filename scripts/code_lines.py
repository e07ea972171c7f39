#!/usr/bin/env python3
"""Physical and code lines of every module of the divalg package.

    python3 scripts/code_lines.py [--src DIR]

Print one row per module of DIR/divalg (by default the `src/` of this
checkout), sorted by name, then the total: the module's physical lines (as
`wc -l` counts them) and its code lines.  A line is a code line when it
holds a token other than a comment, a line break (NL or NEWLINE), an
INDENT or DEDENT, or a string that stands alone as a statement (a
docstring); a token that spans lines, such as a multi-line string, counts
on each line it spans.  Exit 2 with one `error:` line when DIR holds no
divalg package or a module cannot be tokenized.
"""
from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# tokens that never make a line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# tokens after which a string starts a statement
_STATEMENT_START = {None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source: str) -> int:
    """The number of code lines of a module's source text."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.type == tokenize.STRING:
            # a run of adjacent strings is one expression
            end = i
            while end + 1 < len(tokens) and tokens[end + 1].type == tokenize.STRING:
                end += 1
            before = tokens[i - 1].type if i else None
            after = tokens[end + 1].type if end + 1 < len(tokens) else None
            if before in _STATEMENT_START and after in (tokenize.NEWLINE, tokenize.ENDMARKER):
                i = end + 1
                continue
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        i += 1
    return len(lines)


def module_counts(package: Path) -> list[tuple[str, int, int]]:
    """(module name, physical lines, code lines) of each .py file of a package."""
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, source.count("\n"), code_lines(source)))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory holding the divalg package (default: this checkout's src/)")
    args = parser.parse_args(argv)
    package = args.src / "divalg"
    if not (package / "__init__.py").is_file():
        print(f"error: {args.src} holds no divalg package", file=sys.stderr)
        return 2
    try:
        rows = module_counts(package)
    except (OSError, SyntaxError, tokenize.TokenError) as exc:
        print(f"error: cannot tokenize a module of {package}: {exc}", file=sys.stderr)
        return 2
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>6}  {code:>6}")
    total = [sum(row[i] for row in rows) for i in (1, 2)]
    print(f"{'total':<{width}}  {total[0]:>6}  {total[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
