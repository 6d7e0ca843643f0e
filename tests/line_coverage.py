"""Statements of the package that no test executes.

Runs the pytest suite in this process under ``sys.settrace`` (and
``threading.settrace`` for threads started later), records every line
executed in ``src/inflaton``, turns tracing off and prints each statement
that never ran, one per line as ``path:line  source``.  Docstrings are
left out.  A compound statement (``if``, ``for``, ``def``, ...) counts by
its header.  Extra arguments go to pytest in place of the default
``-q --continue-on-collection-errors``:

    python tests/line_coverage.py
    python tests/line_coverage.py -q tests/test_cli.py

Lines that run only in ``sweep``'s worker processes are not counted: the
tracer sees this process only.  The traced suite takes about 1.5 times as
long as the untraced one (45 s against 30 s on a 2-core x86-64 machine).
Stdlib only (and pytest, which runs the suite); not a test module: pytest
does not collect it.
"""

import ast
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "inflaton"
sys.path.insert(0, str(REPO / "src"))


def executed_lines(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with tracing on; return its exit code and the executed
    lines of each package file."""
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(tree: ast.Module) -> list[tuple[int, int]]:
    """(first, last) line of each statement's traced span: the whole of a
    simple statement, the header of a compound one (decorators included)."""
    spans = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.stmt, ast.excepthandler)) or _is_docstring(node)
                or isinstance(node, (ast.Try, ast.Global, ast.Nonlocal))):
            continue    # a try: header runs no code of its own; its body is listed
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        spans.append((first, max(first, last)))
    return sorted(spans)


def main(argv: list[str]) -> int:
    code, hits = executed_lines(argv or ["-q", "--continue-on-collection-errors",
                                         str(REPO / "tests")])
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = hits.get(str(path), set())
        for first, last in statements(ast.parse(source)):
            if not ran.intersection(range(first, last + 1)):
                missed.append(f"{path.relative_to(REPO)}:{first}  {lines[first - 1].strip()}")
    print(f"\n{len(missed)} statements in src/inflaton that no test executed "
          f"(lines run only in sweep worker processes are not counted):")
    print("\n".join(missed))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
