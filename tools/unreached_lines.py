"""List the statements of ``src/propfit`` that no test, or no traffic, reaches.

    python3 tools/unreached_lines.py [PYTEST_ARGS ...]
    python3 tools/unreached_lines.py --traffic

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

With ``--traffic`` the traced run is the program's traffic, not the tests:
every workload of ``BENCHMARK.json`` at each of ``SEEDS``, its CLI calls
made in this interpreter through ``propfit.cli.main`` as
``perfbench/run.py`` makes them, on inputs that ``perfbench/inputs.py``
writes, in an untraced child process, into a temporary directory; then the
demos, each run as ``__main__``, and ``propfit check``, all in that
directory and with their standard output dropped. The summary on stderr
also counts what the workloads alone leave unreached. The exit status is 1
when a call exits non-zero or raises (its traceback goes to stderr).
Nothing is written outside that directory: bytecode caches are off.
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "propfit"
# The benchmark seeds the traffic's inputs are drawn from.
SEEDS = (1, 2, 3)


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


@contextlib.contextmanager
def traced(ran: dict[str, set[int]]):
    """Record in ``ran`` each line of ``src/propfit`` run in the block, by file,
    on this thread and every thread started in it."""
    prefix = str(PACKAGE) + "/"
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
        yield
    finally:
        sys.settrace(None)
        threading.settrace(None)


def unreached_all(ran: dict[str, set[int]]) -> list[str]:
    """Every statement of ``src/propfit`` with no line in ``ran``, as
    ``file:line: text``."""
    return [f"{path.relative_to(ROOT)}:{line}: {text}"
            for path in sorted(PACKAGE.rglob("*.py"))
            for line, text in unreached(path, ran.get(str(path), set()))]


def workload_calls(work: Path) -> list[list[str]]:
    """The CLI calls of every ``BENCHMARK.json`` workload at each of
    ``SEEDS``, their inputs written under ``work`` and their reports to go
    there."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    calls = []
    for name in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            inputs = work / f"{name}-{seed}"
            subprocess.run([sys.executable, "-B", str(ROOT / "perfbench" / "inputs.py"),
                            "--workload", name, "--seed", str(seed), "--out", str(inputs)],
                           check=True)
            for path in sorted(inputs.iterdir()):
                out = ["--format", "json", "--out", str(work / f"{inputs.name}-{path.stem}.out")]
                calls.append(["simulate", "--config", str(path), "--threads", "1", *out]
                             if path.suffix == ".json" else ["fit", "--data", str(path), *out])
    return calls


def failed(step) -> bool:
    """Run ``step()``; whether it returned a non-zero exit status or raised."""
    try:
        status = step()
        return isinstance(status, int) and status != 0
    except (Exception, SystemExit):
        traceback.print_exc()
        return True


def traffic(ran: dict[str, set[int]]) -> int:
    """Trace the benchmark workloads, then the demos and ``propfit check``,
    into ``ran``; returns how many of their calls failed."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work, open(os.devnull, "w") as sink:
        calls = workload_calls(Path(work))
        os.chdir(work)
        try:
            with traced(ran), contextlib.redirect_stdout(sink):
                from propfit import cli

                count = sum(failed(lambda argv=argv: cli.main(argv)) for argv in calls)
            print(f"{len(unreached_all(ran))} unreached statements in "
                  f"{PACKAGE.relative_to(ROOT)} by the workloads alone", file=sys.stderr)
            with traced(ran), contextlib.redirect_stdout(sink):
                for demo in sorted((ROOT / "demos").glob("*.py")):
                    count += failed(lambda: runpy.run_path(str(demo), run_name="__main__"))
                count += failed(lambda: cli.main(["check"]))
        finally:
            os.chdir(here)
    return count


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    ran: dict[str, set[int]] = {}
    if argv == ["--traffic"]:
        sys.dont_write_bytecode = True
        status = int(traffic(ran) > 0)
    else:
        import pytest

        with traced(ran), contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(argv or ["-q", "-p", "no:cacheprovider",
                                          "--continue-on-collection-errors", str(ROOT / "tests")])
    missed = unreached_all(ran)
    for line in missed:
        print(line)
    print(f"{len(missed)} unreached statements in {PACKAGE.relative_to(ROOT)}", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
