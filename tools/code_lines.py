"""Count the code lines of Python modules.

    python tools/code_lines.py [directory ...]

A code line is a distinct source line that carries a token other than a
comment, a docstring or whitespace (`tokenize`). A docstring here is any
logical line that is one string literal and nothing else. A token that
spans several lines, such as a multi-line string in an expression, counts
each of them. Prints one row per module of each directory (src/ovalkit by
default), sorted by name, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The number of code lines of the module at path."""
    lines: set[int] = set()
    logical: list[tokenize.TokenInfo] = []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if not (len(logical) == 1 and logical[0].type == tokenize.STRING):
                    for t in logical:
                        lines.update(range(t.start[0], t.end[0] + 1))
                logical = []
            elif tok.type not in _LAYOUT:
                logical.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    total = 0
    for directory in argv or ["src/ovalkit"]:
        for path in sorted(Path(directory).glob("*.py")):
            n = code_lines(path)
            total += n
            print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
