"""List the statements of ``src/propfit`` that no test reaches.

    python3 tools/unreached_lines.py [PYTEST_ARGS ...]

Runs the tier-1 suite (``tests/``, or the given pytest arguments) in this
interpreter under a ``sys.settrace`` line tracer, installed before propfit
is imported and on every thread, and prints each statement none of whose
lines ran as ``file:line: text``, in file order. A compound statement
counts by its header (``if``, ``for``, ``def`` ... up to its body). Lines
with no bytecode (docstrings, ``global``) are not statements here. Code run
only in child processes, as the demo tests run the demos, is not seen.
pytest's report and a summary go to stderr; the exit status is pytest's.
Only the standard library and pytest are used, and nothing is written but
pytest's own bytecode caches.
"""

from __future__ import annotations

import ast
import contextlib
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "propfit"


def code_lines(source: str, filename: str) -> set[int]:
    """The lines that own bytecode in ``source``, nested code included."""
    lines, todo = set(), [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def statements(tree: ast.Module):
    """Every statement with the lines of its own text: a simple statement's
    whole span, a compound one's header up to its first nested statement."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        nested = [child.lineno for field in ("body", "orelse", "finalbody", "handlers")
                  for child in getattr(node, field, ())]
        last = min(nested) - 1 if nested else node.end_lineno
        yield node.lineno, range(first, max(first, last) + 1)


def unreached(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    owned = code_lines(source, str(path))
    out = set()
    for line, span in statements(ast.parse(source)):
        own = owned.intersection(span)
        if own and not own & ran:
            out.add((line, text[line - 1].strip()))
    return sorted(out)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        mine = ours.get(name)
        if mine is None:
            mine = ours[name] = name.startswith(prefix)
            if mine:
                ran.setdefault(name, set())
        if not mine:
            return None
        ran[name].add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(argv or ["-q", "-p", "no:cacheprovider",
                                          "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        missed = unreached(path, ran.get(str(path), set()))
        total += len(missed)
        for line, text in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{total} unreached statements in {PACKAGE.relative_to(ROOT)}", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
