"""List the lines of src/pwlannulus that a test run never executes.

    python tools/line_trace.py [PYTEST_ARGS...]

Runs pytest in this process (default arguments: -q -p no:cacheprovider
tests, from the checkout that holds this file) under sys.settrace, with a
local trace function only in frames whose code was compiled from a file of
src/pwlannulus.  Then it prints "file:line: source" for each executable line
that did not run, a count per file and the total, and exits with pytest's
status.

A line is executable when an instruction of the module's code object, or of
a code object nested in it, maps to it (co_lines); it ran when it raised a
"line" event.  Code run in a subprocess is not seen.  Under the trace the
tests take about three times as long.  Apart from pytest, which it runs, it
uses only the standard library.
"""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pwlannulus"


def executable_lines(path) -> set[int]:
    """The lines that some code object compiled from the file maps to."""
    source = pathlib.Path(path).read_text(encoding="utf-8")
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(func, paths) -> tuple[object, dict[str, set[int]]]:
    """func() under the trace; its result and, per file of paths, the lines
    that ran."""
    ran = {p: set() for p in paths}
    real = {os.path.realpath(p): lines for p, lines in ran.items()}
    by_name = {}   # co_filename -> its set in ran, or None when not traced

    def local(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = real.get(os.path.realpath(name))
        return None if by_name[name] is None else local

    old = sys.gettrace()
    sys.settrace(global_)
    try:
        result = func()
    finally:
        sys.settrace(old)
    return result, ran


def missed(ran) -> dict[str, list[int]]:
    """Per file, the executable lines that are not in ran, in order."""
    return {p: sorted(executable_lines(p) - lines) for p, lines in ran.items()}


def report(misses, out, root=ROOT) -> int:
    """Write each missed line with its source, then the counts; the total."""
    for p, lines in misses.items():
        text = pathlib.Path(p).read_text(encoding="utf-8").splitlines()
        for n in lines:
            out.write(f"{os.path.relpath(p, root)}:{n}: {text[n - 1].strip()}\n")
    for p, lines in misses.items():
        out.write(f"{os.path.relpath(p, root)}: {len(lines)} not run\n")
    total = sum(map(len, misses.values()))
    out.write(f"total: {total} not run\n")
    return total


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    paths = sorted(str(p) for p in PACKAGE.glob("*.py"))
    status, ran = run_traced(
        lambda: pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"]), paths)
    report(missed(ran), sys.stdout)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
