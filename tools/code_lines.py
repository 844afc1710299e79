"""Count the code lines of the Python files under a directory.

    python tools/code_lines.py src

A code line holds a token other than a comment or a line break, and is not
part of a docstring (the string statement that opens a module, class or
function body).  Prints the count per file and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

def code_lines(path):
    src = Path(path).read_text()
    doc = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                doc.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)

if __name__ == "__main__":
    total = 0
    for p in sorted(Path(sys.argv[1]).rglob("*.py")):
        n = code_lines(p); total += n; print(f"{n:6d} {p}")
    print(f"{total:6d} total")
